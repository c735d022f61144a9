package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strings"
	"testing"
)

func TestMain(m *testing.M) {
	runtime.GOMAXPROCS(2)
	setKernelWorkers(2)
	os.Exit(m.Run())
}

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

func loadManifest(t *testing.T) manifest {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(strings.NewReader(string(raw)))
	dec.DisallowUnknownFields()
	var m manifest
	if err := dec.Decode(&m); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return m
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestManifestMatchesCommand pins BENCHMARK.json to the command's own
// tables and to the limits of the benchmark contract.
func TestManifestMatchesCommand(t *testing.T) {
	m := loadManifest(t)
	if len(m.Workloads) != len(workloads) || len(m.Workloads) < 2 || len(m.Workloads) > 8 {
		t.Fatalf("manifest lists %d workloads, command has %d, contract allows 2..8", len(m.Workloads), len(workloads))
	}
	for i, w := range m.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: manifest %q / %q, command %q / %q", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
		if !nameRE.MatchString(w.Name) || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q: name or why outside the contract's limits (why is %d characters)", w.Name, len(w.Why))
		}
	}
	seen := map[string]bool{}
	compare := func(kind string, got []manifestMetric, want []metricDef, limit int, bounded bool) {
		if len(got) != len(want) || len(got) < 1 || len(got) > limit {
			t.Fatalf("%s: manifest lists %d metrics, command emits %d, contract allows 1..%d", kind, len(got), len(want), limit)
		}
		for i, g := range got {
			if g.Name != want[i].name || g.Unit != want[i].unit {
				t.Errorf("%s[%d]: manifest %s (%s), command %s (%s)", kind, i, g.Name, g.Unit, want[i].name, want[i].unit)
			}
			if !nameRE.MatchString(g.Name) || !unitRE.MatchString(g.Unit) || seen[g.Name] {
				t.Errorf("%s %q (%q): bad or repeated name or unit", kind, g.Name, g.Unit)
			}
			seen[g.Name] = true
			if g.Better != "higher" && g.Better != "lower" {
				t.Errorf("%s %q: better = %q", kind, g.Name, g.Better)
			}
			if bounded != (g.Bound != nil) || (bounded && (*g.Bound <= 0 || *g.Bound > 0.25)) {
				t.Errorf("%s %q: bound %v", kind, g.Name, g.Bound)
			}
		}
	}
	compare("end_to_end", m.EndToEnd, endToEnd, 16, true)
	compare("per_layer", m.PerLayer, perLayer, 128, false)

	var setup *manifestMetric
	for i := range m.EndToEnd {
		if m.EndToEnd[i].Name == "setup_s" {
			setup = &m.EndToEnd[i]
		}
	}
	if setup == nil || setup.Unit != "s" || setup.Better != "lower" {
		t.Fatalf("end_to_end needs setup_s in s, lower is better; got %+v", setup)
	}
	for _, e := range m.EndToEnd {
		if *e.Bound > *setup.Bound {
			t.Errorf("%s has a larger bound than setup_s", e.Name)
		}
	}
	if len(m.Paths) != 1 || m.Paths[0] != "bench" || m.RunSeconds < 1 || m.RunSeconds > 60 {
		t.Errorf("paths %v, run_seconds %d", m.Paths, m.RunSeconds)
	}
}

func metricNames(r result) []string {
	var names []string
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func defNames(defs []metricDef) []string {
	var names []string
	for _, d := range defs {
		names = append(names, d.name)
	}
	sort.Strings(names)
	return names
}

func failedChecks(o outcome) []check {
	var bad []check
	for _, c := range o.checks {
		if !c.OK {
			bad = append(bad, c)
		}
	}
	return bad
}

// TestQuickEndToEnd runs the untraced pass of every workload at the
// smoke-test budget: every output check passes and exactly the
// manifest's end-to-end metrics come out, none of them zero.
func TestQuickEndToEnd(t *testing.T) {
	for i := range workloads {
		w := workloads[i].quick()
		t.Run(w.name, func(t *testing.T) {
			out, err := runEndToEnd(&w, 1, 0.5, budget{setups: 1, maxReps: 2})
			if err != nil {
				t.Fatal(err)
			}
			if bad := failedChecks(out); len(bad) > 0 || !out.correct() || out.attempted < 1 {
				t.Fatalf("attempted %d failed %d, failed checks %+v", out.attempted, out.failed, bad)
			}
			res := render(out, endToEnd)
			if got, want := metricNames(res), defNames(endToEnd); strings.Join(got, " ") != strings.Join(want, " ") {
				t.Fatalf("emitted %v, want %v", got, want)
			}
			for n, v := range res.Metrics {
				if v.Value <= 0 {
					t.Errorf("%s = %v, end-to-end metrics are never zero", n, v.Value)
				}
			}
		})
	}
}

// TestQuickTraced runs the traced pass of every workload at the
// smoke-test budget: tracing leaves the final parameters alone, the
// closed-form traffic holds, the learners' spans cover the traced run
// within 10 %, exactly the manifest's per-layer metrics come out,
// and the trace file is valid.
func TestQuickTraced(t *testing.T) {
	dir := t.TempDir()
	for i := range workloads {
		w := workloads[i].quick()
		t.Run(w.name, func(t *testing.T) {
			out, err := runTraced(&w, 1, 5, dir)
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("cover %.3f", out.metrics["core.trace_cover_frac"])
			if bad := failedChecks(out); len(bad) > 0 || !out.correct() {
				t.Fatalf("attempted %d failed %d, failed checks %+v", out.attempted, out.failed, bad)
			}
			res := render(out, perLayer)
			if got, want := metricNames(res), defNames(perLayer); strings.Join(got, " ") != strings.Join(want, " ") {
				t.Fatalf("emitted %v, want %v", got, want)
			}
			if c := out.metrics["core.trace_cover_frac"]; c < 0.90 || c > 1.10 {
				t.Errorf("core.trace_cover_frac = %.3f", c)
			}
			checkTraceFile(t, filepath.Join(dir, w.name+".trace.json"))
		})
	}
}

// checkTraceFile loads a Chrome trace and checks that its events are
// matched begin/end pairs, properly nested on every thread — every span
// lies inside its parent — and that the learners' step spans are there.
func checkTraceFile(t *testing.T, path string) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	spans, err := validateTrace(raw)
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	if spans == 0 {
		t.Fatalf("%s: no spans", path)
	}
	for _, name := range []string{"forward", "backward", "local_step"} {
		if !strings.Contains(string(raw), `"name": "`+name+`"`) {
			t.Errorf("%s: no %s span", path, name)
		}
	}
}

func TestGuardRefusesLibraryEnvironment(t *testing.T) {
	if err := guardEnvironment(); err != nil {
		t.Fatalf("clean environment refused: %v", err)
	}
	t.Setenv("SASGD_COMPRESS", "qint8")
	if err := guardEnvironment(); err == nil || !strings.Contains(err.Error(), "SASGD_COMPRESS") {
		t.Fatalf("SASGD_COMPRESS accepted: %v", err)
	}
}

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	xs := make([]float64, 2000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	for _, c := range []struct {
		n          int
		value, pct float64
	}{
		{2000, 1980, 99}, // p99 has 20 samples beyond it
		{100, 90, 90},    // ten beyond the 90th
		{19, 19, 100},    // too few for any percentile: the maximum
	} {
		if v, pct := tail(xs[:c.n]); v != c.value || pct != c.pct {
			t.Errorf("tail of %d samples = %v at p%v, want %v at p%v", c.n, v, pct, c.value, c.pct)
		}
	}
}
