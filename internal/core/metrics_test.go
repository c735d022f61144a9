package core

import (
	"fmt"
	"testing"
	"time"

	"sasgd/internal/comm"
	"sasgd/internal/netsim"
	"sasgd/internal/obs"
)

// TestMetricsBitwiseIdentical pins the observability contract: turning
// metrics on must not change a single bit of the training
// result. The fleet frame rides its own buffer and its allreduce touches
// no gradient state, so FinalParams is bitwise equal with metrics on or
// off across every boundary policy — plain, compressed,
// scheduled (adaptive T, hierarchical, delayed), and with a straggler.
func TestMetricsBitwiseIdentical(t *testing.T) {
	prob := tinyProblem(48, 24, 5)
	for _, tc := range []struct {
		name string
		mut  func(*Config)
	}{
		{"legacy-dense", func(c *Config) {}},
		{"legacy-topk", func(c *Config) {
			c.Compress = CodecTopK
			c.CompressK = 0.1
		}},
		{"sched-adaptive", func(c *Config) { c.TSched = TSchedAdaptive }},
		{"hier-delayed", func(c *Config) {
			c.Learners = 4
			c.HierGroups = 2
			c.TOuter = 2
			c.DelayedApply = true
		}},
		{"faults", func(c *Config) {
			c.Faults = mustPlan(t, "slow=3:3")
		}},
		// At T = 1 the metered run keeps gs apart from g and the plain
		// one sums g in place, where a −0 gradient keeps its sign: the
		// same bits here are localStep's −0 argument.
		{"T1-dense", func(c *Config) { c.Interval = 1 }},
		{"T1-topk", func(c *Config) {
			c.Interval = 1
			c.Compress = CodecTopK
			c.CompressK = 0.1
		}},
	} {
		base := Config{
			Algo: AlgoSASGD, Learners: 4, Interval: 2, Gamma: 0.05,
			Batch: 4, Epochs: 2, Seed: 9,
		}
		tc.mut(&base)
		plain := Train(base, prob)

		cfg := base
		cfg.Metrics = true
		metered := Train(cfg, prob)

		if len(plain.FinalParams) == 0 || len(plain.FinalParams) != len(metered.FinalParams) {
			t.Fatalf("%s: param count mismatch (%d vs %d)", tc.name,
				len(plain.FinalParams), len(metered.FinalParams))
		}
		for i := range plain.FinalParams {
			if !sameBits(plain.FinalParams[i], metered.FinalParams[i]) {
				t.Fatalf("%s: metrics changed training at param %d: %g vs %g",
					tc.name, i, plain.FinalParams[i], metered.FinalParams[i])
			}
		}
		// The run must actually have produced a fleet view, not silently
		// skipped collection.
		snap := metered.Fleet
		if snap == nil || snap.Boundaries == 0 {
			t.Fatalf("%s: no fleet boundaries ingested", tc.name)
		}
		if snap.DriftRMS < 0 {
			t.Fatalf("%s: negative drift RMS", tc.name)
		}
	}
}

// TestMetricsFrameTrafficPinned pins the control frame's wire cost
// exactly: one tree allreduce per boundary, 2(p−1) messages of the
// frame's width — p·FrameWords fleet words, 2 for adaptive T's drift
// statistic, 2 for adapt-k's capture at a boundary that applied an
// aggregate — however many controllers share it, and the fleet view's
// word count equals what metrics adds to the wire, with a straggler
// too.
func TestMetricsFrameTrafficPinned(t *testing.T) {
	prob := tinyProblem(48, 24, 5)
	const p = 4
	base := Config{
		Algo: AlgoSASGD, Learners: p, Interval: 2, Gamma: 0.05,
		Batch: 4, Epochs: 2, Seed: 9,
	}
	frame := int64(2 * (p - 1)) // messages per control frame
	fleetWords := int64(p * obs.FrameWords)

	// What metrics adds to a plain run, and to one with a slow rank.
	for _, faults := range []string{"", "slow=3:3"} {
		run := func(metrics bool) *Result {
			cfg := base
			if faults != "" {
				cfg.Faults = mustPlan(t, faults)
			}
			cfg.Metrics = metrics
			return Train(cfg, prob)
		}
		plain := run(false)
		metered := run(true)
		snap := metered.Fleet
		if snap.Boundaries == 0 {
			t.Fatalf("faults %q: no boundaries ingested", faults)
		}
		if got := metered.WordsMoved - plain.WordsMoved; got != snap.Words {
			t.Fatalf("faults %q: metrics added %d words, the fleet view counts %d", faults, got, snap.Words)
		}
		if want := snap.Boundaries * frame * fleetWords; snap.Words != want {
			t.Fatalf("faults %q: %d frame words over %d boundaries, want %d", faults, snap.Words, snap.Boundaries, want)
		}
		if got, want := metered.Comm.Messages-plain.Comm.Messages, snap.Boundaries*frame; got != want {
			t.Fatalf("faults %q: metrics added %d messages over %d boundaries, want %d", faults, got, snap.Boundaries, want)
		}
	}

	// Every controller at once on a flat eager boundary. Top-k gradients
	// are charged to "sparse", so "tree" is the control frame alone.
	cfg := base
	cfg.TSched, cfg.Compress, cfg.CompressK, cfg.CompressAdapt = TSchedAdaptive, CodecTopK, 0.3, true
	cfg.Metrics = true
	res := Train(cfg, prob)
	b := res.Fleet.Boundaries
	ctl := res.Comm.PerAlgo["tree"]
	if want := b * frame * (4 + fleetWords); ctl.Words != want {
		t.Errorf("all controllers: %d control words over %d boundaries, want %d", ctl.Words, b, want)
	}
	if want := b * frame; ctl.Messages != want {
		t.Errorf("all controllers: %d control messages over %d boundaries, want %d", ctl.Messages, b, want)
	}

	// Delayed adapt-k alone: boundary 0 applies nothing, so it sends no
	// control frame; every later boundary sends one.
	cfg = base
	cfg.DelayedApply, cfg.Compress, cfg.CompressK, cfg.CompressAdapt = true, CodecTopK, 0.3, true
	res = Train(cfg, prob)
	boundaries := int64(base.Epochs * batchesPerEpoch(prob.Train.Partition(p), base.Batch) / base.Interval)
	if got, want := res.Comm.PerAlgo["tree"].Messages, (boundaries-1)*frame; got != want {
		t.Errorf("delayed adapt-k: %d control messages over %d boundaries, want %d", got, boundaries, want)
	}
}

// TestMetricsFlagsSeededStraggler seeds a deterministic 4× straggler
// (fault-plan slow=2:4 on a simulated fabric) and requires the anomaly
// detector to flag exactly that rank: its simulated compute per boundary
// sits far outside the peers' z-score band for every boundary, so the
// streak trips after DefaultStreak boundaries.
func TestMetricsFlagsSeededStraggler(t *testing.T) {
	prob := tinyProblem(64, 24, 6)
	const p, slow = 8, 2
	cfg := Config{
		Algo: AlgoSASGD, Learners: p, Interval: 1, Gamma: 0.05,
		Batch: 4, Epochs: 3, Seed: 11,
		Sim: netsim.New(p, netsim.DefaultConfig()), FlopsPerSample: 1e7,
		Faults:  mustPlan(t, "slow=2:4"),
		Metrics: true,
	}
	res := Train(cfg, prob)
	snap := res.Fleet
	if snap.Boundaries < obs.DefaultStreak+1 {
		t.Fatalf("only %d boundaries — not enough to trip the streak", snap.Boundaries)
	}
	got := snap.Anomalies
	if len(got) != 1 || got[0] != slow {
		t.Fatalf("anomalies = %v, want [%d] (per-rank z: %v)", got, slow, rankZs(snap))
	}
	if !snap.Ranks[slow].Flagged || snap.Ranks[slow].Z < obs.DefaultZ {
		t.Fatalf("straggler health = %+v", snap.Ranks[slow])
	}
}

// TestFleetComputeIsTrackPhaseSum pins the one-clock rule: the fleet
// frame reads a rank's compute time from its learner track, so when the
// last step is a boundary, every rank's cumulative compute equals the
// forward + backward total of "learner r" in the tracer's profile.
func TestFleetComputeIsTrackPhaseSum(t *testing.T) {
	const p = 3
	tr := obs.NewTracer(0)
	// 48 samples over 3 learners at batch 4: 4 steps per epoch, so T = 2
	// puts a boundary on the last of the 8 steps.
	res := Train(Config{
		Algo: AlgoSASGD, Learners: p, Interval: 2, Gamma: 0.05,
		Batch: 4, Epochs: 2, Seed: 3, Tracer: tr, Metrics: true,
	}, tinyProblem(48, 24, 5))
	phaseNs := map[string]float64{}
	for _, pp := range tr.Profile() {
		if pp.Phase == obs.PhaseForward || pp.Phase == obs.PhaseBackward {
			phaseNs[pp.Track] += float64(pp.Total)
		}
	}
	snap := res.Fleet
	if snap.Boundaries != 4 {
		t.Fatalf("%d boundaries ingested, want 4", snap.Boundaries)
	}
	for r, h := range snap.Ranks {
		want := phaseNs[fmt.Sprintf("learner %d", r)]
		if want == 0 || h.TotComputeNs != want {
			t.Errorf("rank %d: fleet compute %v ns, learner track forward+backward %v ns", r, h.TotComputeNs, want)
		}
	}
}

// TestSlowRankSleepIsSpanned: a slow=R:K rank sleeps (K−1)·SlowSleep a
// step for the compute it stands for, and the sleep is compute on its
// learner track — R's forward + backward is at least steps × the sleep,
// still one forward and one backward per step — while the peers' wait
// for it at the boundaries is agg_wait on theirs.
func TestSlowRankSleepIsSpanned(t *testing.T) {
	const p, slow, steps = 2, 1, 12 // 24 samples per learner at batch 4, two epochs
	plan := mustPlan(t, "slow=1:4")
	plan.SlowSleep = 2 * time.Millisecond
	sleep := plan.SlowSleepFor(slow)
	tr := obs.NewTracer(0)
	Train(Config{
		Algo: AlgoSASGD, Learners: p, Interval: 2, Gamma: 0.05,
		Batch: 4, Epochs: 2, Seed: 3, Tracer: tr, Faults: plan,
	}, tinyProblem(48, 24, 5))
	phases := map[string]map[obs.Phase]obs.PhaseProfile{}
	for _, pp := range tr.Profile() {
		if phases[pp.Track] == nil {
			phases[pp.Track] = map[obs.Phase]obs.PhaseProfile{}
		}
		phases[pp.Track][pp.Phase] = pp
	}
	for r := 0; r < p; r++ {
		lt := phases[fmt.Sprintf("learner %d", r)]
		fwd, bwd := lt[obs.PhaseForward], lt[obs.PhaseBackward]
		if fwd.Count != steps || bwd.Count != steps {
			t.Errorf("rank %d: %d forward and %d backward spans, want %d each", r, fwd.Count, bwd.Count, steps)
		}
		if r == slow {
			if got, want := fwd.Total+bwd.Total, steps*sleep; got < want {
				t.Errorf("slow rank %d: spanned compute %v, want at least steps × %v = %v", r, got, sleep, want)
			}
		} else if got, want := lt[obs.PhaseAggWait].Total, steps*sleep/4; got < want {
			t.Errorf("rank %d: agg_wait %v while its peer slept %v, want at least %v", r, got, steps*sleep, want)
		}
	}
}

func rankZs(s *obs.FleetSnap) []float64 {
	zs := make([]float64, len(s.Ranks))
	for i, r := range s.Ranks {
		zs[i] = r.Z
	}
	return zs
}

func mustPlan(t *testing.T, spec string) *comm.FaultPlan {
	t.Helper()
	plan, err := comm.ParseFaultPlan(spec)
	if err != nil {
		t.Fatal(err)
	}
	return plan
}
