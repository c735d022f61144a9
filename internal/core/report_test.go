package core

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"sasgd/internal/comm"
	"sasgd/internal/obs"
)

// reportCounts renders the end-of-run report of a run and returns each
// step-decomposition row's span count by phase name, and the text with
// every run of blanks collapsed to one space.
func reportCounts(cfg Config, res *Result) (map[string]int64, string) {
	rows, _ := decompose(cfg.Tracer, res.Wall)
	counts := map[string]int64{}
	for _, r := range rows {
		counts[r.name] = r.Count
	}
	var buf bytes.Buffer
	WriteReport(&buf, cfg, res)
	lines := strings.Split(buf.String(), "\n")
	for i, l := range lines {
		lines[i] = strings.Join(strings.Fields(l), " ")
	}
	return counts, strings.Join(lines, "\n")
}

// TestReportDecompositionExactPastTheRing: on 4-span rings, which every
// learner wraps many times over, the step decomposition still
// counts every span and sums every nanosecond, because it reads the
// tracks' live aggregates; the learner rows and "other" add up to local
// learners × wall exactly, the printed shares to 100.0 %, and the
// percentiles say they cover only what the rings kept.
func TestReportDecompositionExactPastTheRing(t *testing.T) {
	const p, epochs = 2, 2
	prob := tinyProblem(48, 24, 5) // 24 samples per learner: 6 steps per epoch at batch 4
	cfg := Config{
		Algo: AlgoSASGD, Learners: p, Interval: 2, Gamma: 0.05,
		Batch: 4, Epochs: epochs, Seed: 3, Tracer: obs.NewTracer(4),
	}
	res := Train(cfg, prob)
	steps := int64(epochs * 6)

	rows, learners := decompose(cfg.Tracer, res.Wall)
	if learners != p {
		t.Fatalf("decomposition over %d learners, want %d", learners, p)
	}
	want := map[obs.Phase]int64{
		obs.PhaseForward: steps * p, obs.PhaseBackward: steps * p, obs.PhaseLocalStep: steps * p,
		obs.PhaseAggWait: steps / 2 * p, obs.PhaseAggApply: steps / 2 * p,
		obs.PhaseBcast: p, obs.PhaseEval: epochs,
	}
	var phaseNs [obs.NumPhases]int64
	for _, tk := range cfg.Tracer.Tracks() {
		for ph := range phaseNs {
			phaseNs[ph] += tk.PhaseNs(obs.Phase(ph))
		}
	}
	var sum, shares int64
	for i, r := range rows[:len(learnerPhases)+1] {
		sum += int64(r.Total)
		shares += r.share
		if i == len(learnerPhases) {
			break // other
		}
		ph := learnerPhases[i]
		if r.name != ph.String() || r.Count != want[ph] || int64(r.Total) != phaseNs[ph] {
			t.Errorf("row %s: %d spans, %d ns; want %s: %d spans, %d ns (Σ PhaseNs)",
				r.name, r.Count, r.Total, ph, want[ph], phaseNs[ph])
		}
	}
	if wantNs := int64(p) * int64(res.Wall); sum != wantNs {
		t.Errorf("learner rows + other = %d ns, want learners × wall = %d ns", sum, wantNs)
	}
	if shares != 1000 {
		t.Errorf("shares add up to %d tenths of a percent, want 1000", shares)
	}
	_, out := reportCounts(cfg, res)
	for _, s := range []string{"2 learners", fmt.Sprintf("\nforward %d ", steps*p), "\ntotal - ", "100.0%", "* percentiles"} {
		if !strings.Contains(out, s) {
			t.Errorf("report missing %q:\n%s", s, out)
		}
	}
}

// TestReportRanksAgreeWithDecomposition: a metered run's ranks block
// shows each rank's compute as its learner track's forward + backward,
// and the ranks' compute adds up to the decomposition's forward and
// backward rows. 48 samples over 3 learners at batch 4 is 4 steps per
// epoch, so T = 2 puts a boundary on the last step.
func TestReportRanksAgreeWithDecomposition(t *testing.T) {
	cfg := Config{
		Algo: AlgoSASGD, Learners: 3, Interval: 2, Gamma: 0.05,
		Batch: 4, Epochs: 2, Seed: 3, Tracer: obs.NewTracer(0), Metrics: true,
	}
	res := Train(cfg, tinyProblem(48, 24, 5))
	counts, out := reportCounts(cfg, res)
	if counts["forward"] == 0 {
		t.Fatalf("no forward spans:\n%s", out)
	}
	computeNs := map[string]time.Duration{} // learner track name → forward + backward
	for _, pp := range cfg.Tracer.Profile() {
		if pp.Phase == obs.PhaseForward || pp.Phase == obs.PhaseBackward {
			computeNs[pp.Track] += pp.Total
		}
	}
	row0 := fmt.Sprintf("\n0 %.1f ", float64(computeNs["learner 0"])/1e6)
	if !strings.Contains(out, "ranks\n") || !strings.Contains(out, row0) {
		t.Errorf("ranks block has no row %q:\n%s", row0, out)
	}
	rows, _ := decompose(cfg.Tracer, res.Wall)
	var fleet, spans float64
	for _, r := range res.Fleet.Ranks {
		fleet += r.TotComputeNs
	}
	for _, r := range rows {
		if r.name == "forward" || r.name == "backward" {
			spans += float64(r.Total)
		}
	}
	if fleet != spans {
		t.Errorf("ranks' compute adds up to %v ns, the decomposition's forward + backward to %v ns", fleet, spans)
	}
}

// TestReportTraffic renders a run's traffic per collective and per
// boundary; on a TCP transport it adds the socket line whose framing
// overhead is bytes/(8·words) − 1.
func TestReportTraffic(t *testing.T) {
	mesh, err := comm.NewTCPLoopback(2)
	if err != nil {
		t.Fatal(err)
	}
	defer mesh.Close()
	cfg := Config{
		Algo: AlgoSASGD, Learners: 2, Interval: 2, Gamma: 0.05,
		Batch: 4, Epochs: 1, Seed: 3, Transport: mesh,
	}
	res := Train(cfg, tinyProblem(48, 24, 5))
	if res.Boundaries != 3 {
		t.Fatalf("Result.Boundaries = %d, want 3", res.Boundaries)
	}
	_, out := reportCounts(cfg, res)
	tree := res.Comm.PerAlgo["tree"]
	ws := mesh.WireStats()
	for _, s := range []string{
		"traffic: 3 boundaries",
		fmt.Sprintf("tree %d %d %.1f %.1f", tree.Words, tree.Messages, float64(tree.Words)/3, float64(tree.Messages)/3),
		fmt.Sprintf("framing overhead %.4f", float64(ws.BytesOut)/float64(8*res.Comm.Words)-1),
	} {
		if !strings.Contains(out, s) {
			t.Errorf("report missing %q:\n%s", s, out)
		}
	}
	if strings.Contains(out, "step decomposition") || strings.Contains(out, "ranks") {
		t.Errorf("an untraced, unmetered run's report has a step or ranks block:\n%s", out)
	}
}

// TestReportAsyncRecordsNoSpans: the asynchronous loop records no spans,
// and its report says so in one line instead of an empty table.
func TestReportAsyncRecordsNoSpans(t *testing.T) {
	cfg := Config{
		Algo: AlgoDownpour, Learners: 2, Gamma: 0.05,
		Batch: 4, Epochs: 1, Seed: 3, Tracer: obs.NewTracer(0),
	}
	res := Train(cfg, tinyProblem(48, 24, 5))
	_, out := reportCounts(cfg, res)
	if want := "step decomposition: none, the asynchronous downpour loop records no spans\n"; out != want {
		t.Errorf("report = %q, want %q", out, want)
	}
}
