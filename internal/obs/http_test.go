package obs

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"
)

func serve(t *testing.T, h http.Handler, path string) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET %s: status %d, body %q", path, rec.Code, rec.Body.String())
	}
	return rec
}

// TestDebugObsHandler checks that /debug/obs serves the live snapshot of
// the tracer the handler was built from.
func TestDebugObsHandler(t *testing.T) {
	tr := NewTracer(8)
	track := tr.NewTrack("learners", "learner0", 1, 0)
	track.End(PhaseForward, track.Begin())

	var snap LiveSnapshot
	if err := json.Unmarshal(serve(t, tr.Handler(), "/debug/obs").Body.Bytes(), &snap); err != nil {
		t.Fatalf("/debug/obs is not a LiveSnapshot: %v", err)
	}
	if len(snap.Tracks) != 1 || snap.Tracks[0].Name != "learner0" || len(snap.Tracks[0].Phases) != 1 ||
		snap.Tracks[0].Phases[0].Phase != PhaseForward.String() || snap.Tracks[0].Phases[0].Count != 1 {
		t.Errorf("/debug/obs snapshot %+v, want one forward span on learner0", snap)
	}
}

// TestDebugMetricsHandler checks the Prometheus endpoint: 404 until a
// registry is attached; then the fleet gauges and every track's phase
// aggregates, each sample line of the form `name{labels} value`.
func TestDebugMetricsHandler(t *testing.T) {
	tr := NewTracer(8)
	rec := httptest.NewRecorder()
	tr.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/metrics", nil))
	if rec.Code != http.StatusNotFound {
		t.Fatalf("/debug/metrics without a registry: status %d, want 404", rec.Code)
	}

	reg := NewRegistry()
	tr.SetMetrics(reg)
	NewFleet(reg, 2)
	tk := tr.Learner(0)
	tk.End(PhaseForward, tk.Begin())
	body := serve(t, tr.Handler(), "/debug/metrics").Body.String()
	for _, want := range []string{
		"# TYPE sasgd_fleet_live_ranks gauge\n",
		"sasgd_fleet_live_ranks 0\n",
		"# TYPE sasgd_phase_ns_total counter\n",
		`sasgd_phase_ns_total{track="learner 0",phase="forward"} `,
		`sasgd_phase_spans_total{track="learner 0",phase="forward"} 1` + "\n",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/debug/metrics missing %q:\n%s", want, body)
		}
	}
	sample := regexp.MustCompile(`^[a-z_]+(\{[a-z_]+="[^"]*"(,[a-z_]+="[^"]*")*\})? -?[0-9][0-9.e+-]*$`)
	for _, line := range strings.Split(strings.TrimSpace(body), "\n") {
		if !strings.HasPrefix(line, "# TYPE ") && !sample.MatchString(line) {
			t.Errorf("/debug/metrics line %q is not `name{labels} value`", line)
		}
	}
}

// TestPrometheusExposition pins the exposition's shape: one TYPE line
// per metric name, counters before gauges, then the phase counters.
func TestPrometheusExposition(t *testing.T) {
	tr := newTestTracer(8, 10)
	reg := NewRegistry()
	tr.SetMetrics(reg)
	reg.Counter("sasgd_boundaries_total").Add(3)
	reg.Gauge("sasgd_live_ranks").Set(2)
	reg.Gauge("sasgd_drift_rms").Set(0.25)
	tk := tr.Learner(1)
	tk.End(PhaseBackward, tk.Begin())
	tk.End(PhaseBackward, tk.Begin())
	var b strings.Builder
	if err := tr.writeMetrics(&b); err != nil {
		t.Fatal(err)
	}
	want := "# TYPE sasgd_boundaries_total counter\n" +
		"sasgd_boundaries_total 3\n" +
		"# TYPE sasgd_drift_rms gauge\n" +
		"sasgd_drift_rms 0.25\n" +
		"# TYPE sasgd_live_ranks gauge\n" +
		"sasgd_live_ranks 2\n" +
		"# TYPE sasgd_phase_ns_total counter\n" +
		`sasgd_phase_ns_total{track="learner 1",phase="backward"} 20` + "\n" +
		"# TYPE sasgd_phase_spans_total counter\n" +
		`sasgd_phase_spans_total{track="learner 1",phase="backward"} 2` + "\n"
	if got := b.String(); got != want {
		t.Fatalf("exposition:\n%s\nwant:\n%s", got, want)
	}
}

// TestDebugPprofHandler checks that the runtime profiles are mounted on
// the debug mux: the index lists them, a named profile is served through
// it, and the fixed endpoints are routed to their own handlers.
func TestDebugPprofHandler(t *testing.T) {
	h := NewTracer(8).Handler()
	if body := serve(t, h, "/debug/pprof/").Body.String(); !strings.Contains(body, "goroutine") || !strings.Contains(body, "heap") {
		t.Errorf("/debug/pprof/ index does not list the runtime profiles:\n%s", body)
	}
	if body := serve(t, h, "/debug/pprof/goroutine?debug=1").Body.String(); !strings.Contains(body, "goroutine profile:") {
		t.Errorf("/debug/pprof/goroutine?debug=1 served %q", body)
	}
	if body := serve(t, h, "/debug/pprof/cmdline").Body.String(); !strings.Contains(body, ".test") {
		t.Errorf("/debug/pprof/cmdline served %q, want the test binary's command line", body)
	}
}
