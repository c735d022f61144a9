package core

import (
	"testing"

	"sasgd/internal/comm"
	"sasgd/internal/netsim"
)

// TestDelayedSingleBoundaryBitwiseEager: with exactly one communication
// boundary in the whole run, delayed application degenerates to eager —
// the only aggregate is launched at the last step and flushed before the
// final evaluation, which is precisely when the eager run applies it.
func TestDelayedSingleBoundaryBitwiseEager(t *testing.T) {
	prob := tinyProblem(32, 16, 4)
	for _, p := range []int{2, 3, 5} {
		// 32 samples / p learners, batch 4: bpe × 2 epochs = total steps;
		// Interval = total steps ⇒ one boundary at the very last step.
		shards := prob.Train.Partition(p)
		total := 2 * batchesPerEpoch(shards, 4)
		base := Config{
			Algo: AlgoSASGD, Learners: p, Interval: total, Gamma: 0.05,
			Batch: 4, Epochs: 2, Seed: 31, TSched: TSchedStatic,
		}
		eager := Train(base, prob)
		cfg := base
		cfg.DelayedApply = true
		delayed := Train(cfg, prob)
		for i := range eager.FinalParams {
			if !sameBits(eager.FinalParams[i], delayed.FinalParams[i]) {
				t.Fatalf("p=%d: single-boundary delayed not bitwise eager at %d: %g vs %g",
					p, i, eager.FinalParams[i], delayed.FinalParams[i])
			}
		}
		if eager.WordsMoved != delayed.WordsMoved {
			t.Errorf("p=%d: eager moved %d words, delayed %d", p, eager.WordsMoved, delayed.WordsMoved)
		}
	}
}

// TestDelayedOneRoundShiftHooks pins the delay semantics through
// AggHook: the delayed run fires the hook at APPLICATION time with the
// aggregate's ORIGIN boundary index, so origins arrive in order, the
// hook count matches the eager run's (the final pending aggregate is
// flushed), and the FIRST aggregate — computed from the shared prefix of
// the trajectory, before delay skews it — is bitwise identical.
func TestDelayedOneRoundShiftHooks(t *testing.T) {
	prob := tinyProblem(48, 16, 3)
	type hook struct {
		boundary int
		gs       []float64
	}
	collect := func(delayed bool) []hook {
		var hooks []hook
		cfg := Config{
			Algo: AlgoSASGD, Learners: 4, Interval: 2, Gamma: 0.05,
			Batch: 4, Epochs: 2, Seed: 33, TSched: TSchedStatic,
			DelayedApply: delayed,
			AggHook: func(b int, gs []float64) {
				hooks = append(hooks, hook{b, append([]float64(nil), gs...)})
			},
		}
		Train(cfg, prob)
		return hooks
	}
	eager := collect(false)
	delayed := collect(true)
	if len(eager) == 0 || len(eager) != len(delayed) {
		t.Fatalf("hook counts: eager %d, delayed %d", len(eager), len(delayed))
	}
	for i := range delayed {
		if delayed[i].boundary != i {
			t.Fatalf("delayed hook %d has origin boundary %d, want %d (in order)", i, delayed[i].boundary, i)
		}
	}
	for i := range eager[0].gs {
		if eager[0].gs[i] != delayed[0].gs[i] {
			t.Fatalf("first aggregate differs at %d: %g vs %g — the shared-prefix round must be bitwise",
				i, eager[0].gs[i], delayed[0].gs[i])
		}
	}
}

// TestDelayedHooksUnderFaults: the in-flight launch moves only time. The
// delayed exchange runs on the rank's runner, left in flight across the
// next interval, and a slow rank (slow=1:3) changes when every launch
// completes but not what it carries. For every exchange the engine has —
// the dense tree, both codecs, the inter-island exchange and a codec
// under a hierarchy — the run with the straggler must end in the same
// final parameters bit for bit as the run without, and where the
// aggregate is dense show the same hooks with the same origins and
// aggregates, the final flush included.
func TestDelayedHooksUnderFaults(t *testing.T) {
	prob := tinyProblem(48, 16, 3)
	type hook struct {
		boundary int
		gs       []float64
	}
	for _, tc := range []struct {
		name  string
		dense bool
		mut   func(*Config)
	}{
		{"dense", true, func(*Config) {}},
		{"topk", false, func(c *Config) { c.Compress, c.CompressK = CodecTopK, 0.2 }},
		{"qint8", false, func(c *Config) { c.Compress = CodecQInt8 }},
		{"hier", true, func(c *Config) { c.HierGroups, c.TOuter = 2, 2 }},
		{"hier-topk", false, func(c *Config) {
			c.HierGroups, c.TOuter = 2, 2
			c.Compress, c.CompressK = CodecTopK, 0.2
		}},
	} {
		run := func(plan *comm.FaultPlan) ([]hook, *Result) {
			var hooks []hook
			cfg := Config{
				Algo: AlgoSASGD, Learners: 4, Interval: 2, Gamma: 0.05,
				Batch: 4, Epochs: 2, Seed: 33, DelayedApply: true, Faults: plan,
				AggHook: func(b int, gs []float64) {
					hooks = append(hooks, hook{b, append([]float64(nil), gs...)})
				},
			}
			tc.mut(&cfg)
			return hooks, Train(cfg, prob)
		}
		fixed, fixedRes := run(nil)
		faulty, faultyRes := run(&comm.FaultPlan{Slow: map[int]float64{1: 3}})
		if tc.dense && len(fixed) == 0 || len(faulty) != len(fixed) {
			t.Fatalf("%s: hook counts: %d without the straggler, %d with it", tc.name, len(fixed), len(faulty))
		}
		for i := range fixed {
			if faulty[i].boundary != fixed[i].boundary || i > 0 && fixed[i].boundary <= fixed[i-1].boundary {
				t.Fatalf("%s: hook %d has origin boundary %d, want %d (in order)", tc.name, i, faulty[i].boundary, fixed[i].boundary)
			}
			for j := range fixed[i].gs {
				if !sameBits(fixed[i].gs[j], faulty[i].gs[j]) {
					t.Fatalf("%s: aggregate %d differs at %d: %g vs %g", tc.name, i, j, fixed[i].gs[j], faulty[i].gs[j])
				}
			}
		}
		for i := range fixedRes.FinalParams {
			if !sameBits(fixedRes.FinalParams[i], faultyRes.FinalParams[i]) {
				t.Fatalf("%s: delayed run with a slow rank diverged at %d: %g vs %g",
					tc.name, i, fixedRes.FinalParams[i], faultyRes.FinalParams[i])
			}
		}
	}
}

// TestHierSingletonIslandsBitwiseFlat: with one island per rank the
// intra phase is a no-op, every rank is a leader, and the outer exchange
// at TOuter=1 is the flat tree over all ranks every boundary — so the
// hierarchical path must be bitwise the flat eager path.
func TestHierSingletonIslandsBitwiseFlat(t *testing.T) {
	prob := tinyProblem(48, 16, 2)
	for _, p := range []int{2, 3, 5, 8} {
		base := Config{
			Algo: AlgoSASGD, Learners: p, Interval: 2, Gamma: 0.05,
			Batch: 4, Epochs: 2, Seed: 35, TSched: TSchedStatic,
		}
		flat := Train(base, prob)
		cfg := base
		cfg.HierGroups = p
		cfg.TOuter = 1
		hier := Train(cfg, prob)
		for i := range flat.FinalParams {
			if !sameBits(flat.FinalParams[i], hier.FinalParams[i]) {
				t.Fatalf("p=%d: singleton-island hier not bitwise flat at %d: %g vs %g",
					p, i, flat.FinalParams[i], hier.FinalParams[i])
			}
		}
		if flat.WordsMoved != hier.WordsMoved {
			t.Errorf("p=%d: flat moved %d words, hier %d", p, flat.WordsMoved, hier.WordsMoved)
		}
	}
}

// TestHierDelayedDegenerateEqualsEager: delay touches only the OUTER
// exchange; with TOuter larger than the run's boundary count the outer
// never fires, so delayed and eager hierarchical runs are identical.
func TestHierDelayedDegenerateEqualsEager(t *testing.T) {
	prob := tinyProblem(48, 16, 1)
	base := Config{
		Algo: AlgoSASGD, Learners: 6, Interval: 2, Gamma: 0.05,
		Batch: 4, Epochs: 2, Seed: 37,
		HierGroups: 3, TOuter: 1000,
	}
	eager := Train(base, prob)
	cfg := base
	cfg.DelayedApply = true
	delayed := Train(cfg, prob)
	for i := range eager.FinalParams {
		if !sameBits(eager.FinalParams[i], delayed.FinalParams[i]) {
			t.Fatalf("outer-never-fires: delayed differs from eager at %d", i)
		}
	}
	if eager.WordsMoved != delayed.WordsMoved {
		t.Errorf("eager moved %d words, delayed %d", eager.WordsMoved, delayed.WordsMoved)
	}
}

// TestHierReducesCrossIslandTraffic: the hierarchy's reason to exist —
// at equal inner period, the two-level schedule must push several times
// fewer words across island boundaries than the flat schedule, without
// giving up convergence entirely (sanity floor, not a tight bound).
func TestHierReducesCrossIslandTraffic(t *testing.T) {
	prob := tinyProblem(64, 24, 6)
	simCfg := netsim.DefaultConfig() // IslandSize 2 ⇒ 4 islands at p=8
	base := Config{
		Algo: AlgoSASGD, Learners: 8, Interval: 2, Gamma: 0.05,
		Batch: 4, Epochs: 3, Seed: 39, TSched: TSchedStatic,
		Sim: netsim.New(8, simCfg), FlopsPerSample: 1e7,
	}
	flat := Train(base, prob)
	cfg := base
	cfg.Sim = netsim.New(8, simCfg)
	cfg.HierGroups = 4 // block islands of 2 = the simulated topology
	cfg.TOuter = 4
	hier := Train(cfg, prob)
	if flat.Comm.CrossWords == 0 || hier.Comm.CrossWords == 0 {
		t.Fatalf("cross-island accounting missing: flat %d, hier %d",
			flat.Comm.CrossWords, hier.Comm.CrossWords)
	}
	if hier.Comm.CrossWords*2 > flat.Comm.CrossWords {
		t.Errorf("hier crossed %d words, flat %d — want ≥2× reduction",
			hier.Comm.CrossWords, flat.Comm.CrossWords)
	}
	if hier.FinalTest < 0.5 {
		t.Errorf("hier run collapsed: final test accuracy %.3f", hier.FinalTest)
	}
}

// TestDelayedDeterministicUnderSim: the DeferSync discipline must make
// the delayed run's simulated time independent of goroutine
// interleaving — two identical runs agree on values AND clocks — and
// the hidden transfer must not make the run slower than eager.
func TestDelayedDeterministicUnderSim(t *testing.T) {
	prob := tinyProblem(48, 16, 8)
	mk := func(delayed bool) *Result {
		return Train(Config{
			Algo: AlgoSASGD, Learners: 4, Interval: 2, Gamma: 0.05,
			Batch: 4, Epochs: 3, Seed: 41, TSched: TSchedStatic,
			DelayedApply: delayed,
			Sim:          netsim.New(4, netsim.DefaultConfig()), FlopsPerSample: 1e8,
		}, prob)
	}
	a, b := mk(true), mk(true)
	if a.SimTime != b.SimTime {
		t.Fatalf("delayed sim time not reproducible: %g vs %g", a.SimTime, b.SimTime)
	}
	for i := range a.FinalParams {
		if !sameBits(a.FinalParams[i], b.FinalParams[i]) {
			t.Fatalf("delayed run not reproducible at %d", i)
		}
	}
	eager := mk(false)
	if a.SimTime > eager.SimTime {
		t.Errorf("delayed sim time %g exceeds eager %g — the hidden transfer made it slower", a.SimTime, eager.SimTime)
	}
}

// TestScheduledComposesCodecs: every policy × codec combination must be
// run-to-run deterministic (bitwise) — the composition contract.
func TestScheduledComposesCodecs(t *testing.T) {
	prob := tinyProblem(48, 16, 9)
	for _, tc := range []struct {
		name string
		mut  func(*Config)
	}{
		{"delayed+topk", func(c *Config) { c.DelayedApply = true; c.Compress = CodecTopK; c.CompressK = 0.2 }},
		{"delayed+qint8", func(c *Config) { c.DelayedApply = true; c.Compress = CodecQInt8 }},
		{"delayed+topk+adapt", func(c *Config) {
			c.DelayedApply = true
			c.Compress = CodecTopK
			c.CompressK = 0.2
			c.CompressAdapt = true
		}},
		{"hier+topk", func(c *Config) { c.HierGroups = 2; c.TOuter = 2; c.Compress = CodecTopK; c.CompressK = 0.2 }},
		{"hier+qint8", func(c *Config) { c.HierGroups = 2; c.TOuter = 2; c.Compress = CodecQInt8 }},
		{"hier+delayed", func(c *Config) { c.HierGroups = 2; c.TOuter = 2; c.DelayedApply = true }},
		{"hier+delayed+topk", func(c *Config) {
			c.HierGroups = 2
			c.TOuter = 2
			c.DelayedApply = true
			c.Compress = CodecTopK
			c.CompressK = 0.2
		}},
		{"adaptive+hier+delayed", func(c *Config) {
			c.TSched = TSchedAdaptive
			c.HierGroups = 2
			c.TOuter = 2
			c.DelayedApply = true
		}},
	} {
		cfg := Config{
			Algo: AlgoSASGD, Learners: 4, Interval: 2, Gamma: 0.05,
			Batch: 4, Epochs: 2, Seed: 43,
		}
		tc.mut(&cfg)
		a := Train(cfg, prob)
		b := Train(cfg, prob)
		if len(a.FinalParams) == 0 {
			t.Fatalf("%s: no final params", tc.name)
		}
		for i := range a.FinalParams {
			if !sameBits(a.FinalParams[i], b.FinalParams[i]) {
				t.Fatalf("%s: not run-to-run deterministic at %d", tc.name, i)
			}
		}
	}
}

// TestCrashEndsRunWithItsError: a fault plan's crash ends the run with
// the crashing rank's error, on every boundary policy — among them the
// compositions a boundary checkpoint cannot hold (a codec's residual, a
// pending delayed aggregate, an island reference), whose crash is
// therefore not recoverable by resume: Run names the rank and the
// boundary, every peer unwinds, and two runs end alike.
func TestCrashEndsRunWithItsError(t *testing.T) {
	prob := tinyProblem(48, 24, 11)
	for _, tc := range []struct {
		name string
		cfg  Config
		want string
	}{
		{"dense", with(goldenBase(3, 1), func(c *Config) { c.Faults = mustPlan(t, "crash=1@2") }),
			"learner 1: core: rank 1 crashed at boundary 2 (fault plan)"},
		{"topk-delayed", with(goldenBase(3, 2), func(c *Config) {
			c.Faults, c.Compress, c.CompressK, c.DelayedApply = mustPlan(t, "crash=1@2"), CodecTopK, 0.3, true
		}), "learner 1: core: rank 1 crashed at boundary 2 (fault plan)"},
		{"qint8-hier", with(goldenBase(4, 1), func(c *Config) {
			c.Faults, c.Compress, c.HierGroups, c.TOuter = mustPlan(t, "crash=1@2"), CodecQInt8, 2, 2
		}), "learner 1: core: rank 1 crashed at boundary 2 (fault plan)"},
		// Rank 2 is island 1's leader.
		{"hier", Config{
			Algo: AlgoSASGD, Learners: 6, Interval: 2, Gamma: 0.05, Batch: 4, Epochs: 6, Seed: 47,
			HierGroups: 3, TOuter: 2, Faults: mustPlan(t, "crash=2@1"),
		}, "learner 2: core: rank 2 crashed at boundary 1 (fault plan)"},
		{"hier-delayed", Config{
			Algo: AlgoSASGD, Learners: 6, Interval: 2, Gamma: 0.05, Batch: 4, Epochs: 6, Seed: 47,
			HierGroups: 3, TOuter: 2, DelayedApply: true, Faults: mustPlan(t, "crash=2@1"),
		}, "learner 2: core: rank 2 crashed at boundary 1 (fault plan)"},
	} {
		for run := 0; run < 2; run++ {
			res, err := Run(tc.cfg, prob)
			if res != nil || err == nil || err.Error() != tc.want {
				t.Fatalf("%s, run %d: Run returned (%v, %v), want the crash error %q", tc.name, run, res, err, tc.want)
			}
		}
	}
}
