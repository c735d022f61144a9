package obs

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
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
