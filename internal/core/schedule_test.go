package core

import (
	"testing"

	"sasgd/internal/comm"
	"sasgd/internal/netsim"
)

// TestStaticSchedBitwiseLegacy is the T-scheduler's degenerate pin: an
// explicit TSchedStatic is the default schedule, so final parameters,
// words on the wire and the final period must all be bitwise/exactly
// what a run that never names a scheduler produces — dense, compressed,
// and under the fabric simulation.
func TestStaticSchedBitwiseLegacy(t *testing.T) {
	prob := tinyProblem(48, 24, 5)
	for _, tc := range []struct {
		name string
		mut  func(*Config)
	}{
		{"dense", func(c *Config) {}},
		{"ptree", func(c *Config) { c.Allreduce = AllreducePTree; c.CommChunk = 16 }},
		{"topk", func(c *Config) { c.Compress = CodecTopK; c.CompressK = 0.1 }},
		{"qint8", func(c *Config) { c.Compress = CodecQInt8 }},
		{"adaptk", func(c *Config) { c.Compress = CodecTopK; c.CompressK = 0.1; c.CompressAdapt = true }},
	} {
		for _, p := range []int{1, 2, 3, 5, 8} {
			base := Config{
				Algo: AlgoSASGD, Learners: p, Interval: 2, Gamma: 0.05,
				Batch: 4, Epochs: 2, Seed: 9,
			}
			tc.mut(&base)
			legacy := Train(base, prob)

			cfg := base
			cfg.TSched = TSchedStatic
			sched := Train(cfg, prob)

			if len(sched.FinalParams) != len(legacy.FinalParams) {
				t.Fatalf("%s p=%d: param count mismatch", tc.name, p)
			}
			for i := range legacy.FinalParams {
				if legacy.FinalParams[i] != sched.FinalParams[i] {
					t.Fatalf("%s p=%d: scheduled path not bitwise at %d: %g vs %g",
						tc.name, p, i, legacy.FinalParams[i], sched.FinalParams[i])
				}
			}
			if legacy.WordsMoved != sched.WordsMoved {
				t.Errorf("%s p=%d: legacy moved %d words, scheduled %d",
					tc.name, p, legacy.WordsMoved, sched.WordsMoved)
			}
			if sched.FinalT != base.Interval {
				t.Errorf("%s p=%d: FinalT = %d, want %d", tc.name, p, sched.FinalT, base.Interval)
			}
		}
	}
}

// TestStaticSchedBitwiseLegacySim repeats the pin under the fabric
// simulation: the scheduled path must reproduce the legacy simulated
// time exactly, not just the values.
func TestStaticSchedBitwiseLegacySim(t *testing.T) {
	prob := tinyProblem(48, 24, 6)
	base := Config{
		Algo: AlgoSASGD, Learners: 4, Interval: 2, Gamma: 0.05,
		Batch: 4, Epochs: 2, Seed: 10,
		Sim: netsim.New(4, netsim.DefaultConfig()), FlopsPerSample: 1e8,
	}
	legacy := Train(base, prob)
	cfg := base
	cfg.Sim = netsim.New(4, netsim.DefaultConfig())
	cfg.TSched = TSchedStatic
	sched := Train(cfg, prob)
	for i := range legacy.FinalParams {
		if legacy.FinalParams[i] != sched.FinalParams[i] {
			t.Fatalf("sim: scheduled path not bitwise at %d", i)
		}
	}
	if legacy.SimTime != sched.SimTime {
		t.Errorf("sim time: legacy %g, scheduled %g", legacy.SimTime, sched.SimTime)
	}
}

// TestAdaptiveTDeterminism: the adaptive controller bases every decision
// on allreduced quantities, so two identical runs must agree bitwise —
// across learner counts and worker budgets (goroutine interleaving must
// not leak into the schedule).
func TestAdaptiveTDeterminism(t *testing.T) {
	prob := tinyProblem(48, 24, 7)
	for _, p := range []int{1, 2, 3, 5, 8} {
		for _, workers := range []int{1, 2} {
			cfg := Config{
				Algo: AlgoSASGD, Learners: p, Interval: 4, Gamma: 0.05,
				Batch: 4, Epochs: 3, Seed: 13,
				TSched: TSchedAdaptive, Workers: workers,
			}
			a := Train(cfg, prob)
			b := Train(cfg, prob)
			if a.FinalT != b.FinalT {
				t.Fatalf("p=%d w=%d: FinalT %d vs %d across identical runs", p, workers, a.FinalT, b.FinalT)
			}
			for i := range a.FinalParams {
				if a.FinalParams[i] != b.FinalParams[i] {
					t.Fatalf("p=%d w=%d: adaptive run not reproducible at %d", p, workers, i)
				}
			}
			lo, hi := 1, cfg.Interval*tAdaptSpan
			if cfg.Interval/tAdaptSpan > lo {
				lo = cfg.Interval / tAdaptSpan
			}
			if a.FinalT < lo || a.FinalT > hi {
				t.Errorf("p=%d: FinalT %d outside [%d, %d]", p, a.FinalT, lo, hi)
			}
		}
	}
}

// TestSchedulerRestore pins checkpoint-resume semantics for the
// scheduler state.
func TestSchedulerRestore(t *testing.T) {
	s := newTScheduler(Config{Interval: 8, TSched: TSchedStatic})
	s.restore(16)
	if s.T() != 8 {
		t.Errorf("static restore(16): T = %d, want the configured 8", s.T())
	}
	s = newTScheduler(Config{Interval: 8, TSched: TSchedAdaptive})
	s.restore(16)
	if s.T() != 16 {
		t.Errorf("adaptive restore(16): T = %d, want 16", s.T())
	}
	s = newTScheduler(Config{Interval: 8, TSched: TSchedAdaptive})
	s.restore(0) // pre-scheduler checkpoint: keep the start period
	if s.T() != 8 {
		t.Errorf("adaptive restore(0): T = %d, want 8", s.T())
	}
}

// TestAdaptiveTWithFaultsDeterministic: the scheduler under the
// resilient path (live-view allreduces, crash mid-run) must stay
// reproducible run to run.
func TestAdaptiveTWithFaultsDeterministic(t *testing.T) {
	prob := tinyProblem(48, 24, 9)
	cfg := Config{
		Algo: AlgoSASGD, Learners: 4, Interval: 4, Gamma: 0.05,
		Batch: 4, Epochs: 3, Seed: 21,
		TSched: TSchedAdaptive,
		Faults: &comm.FaultPlan{CrashAt: map[int]int{2: 1}, EvictAfter: 3e8},
	}
	a := Train(cfg, prob)
	b := Train(cfg, prob)
	if a.LiveP != 3 || b.LiveP != 3 {
		t.Fatalf("LiveP = %d/%d, want 3 (one crash)", a.LiveP, b.LiveP)
	}
	if a.FinalT != b.FinalT {
		t.Fatalf("FinalT %d vs %d across identical faulty runs", a.FinalT, b.FinalT)
	}
	for i := range a.FinalParams {
		if a.FinalParams[i] != b.FinalParams[i] {
			t.Fatalf("faulty adaptive run not reproducible at %d", i)
		}
	}
}
