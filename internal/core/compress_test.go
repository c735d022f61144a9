package core

import (
	"sync/atomic"
	"testing"

	"sasgd/internal/comm"
	"sasgd/internal/obs"
)

// TestFaultyCompressedMatchesPlain runs the compression engine under a
// fault plan with a slow rank: a straggler moves only time, so the run
// must reproduce the plain compressed run bit for bit — same codecs,
// same per-bucket collectives, same adaptive-k trajectory.
func TestFaultyCompressedMatchesPlain(t *testing.T) {
	prob := cifarProblem(24, 12)
	for _, tc := range []struct {
		name  string
		codec string
		k     float64
		adapt bool
	}{
		{"topk", CodecTopK, 0.05, false},
		{"topk-adapt", CodecTopK, 0.05, true},
		{"qint8", CodecQInt8, 0, false},
	} {
		base := Config{
			Algo: AlgoSASGD, Learners: 5, Interval: 2, Gamma: 0.05,
			Batch: 4, Epochs: 2, Seed: 13,
			Compress: tc.codec, CompressK: tc.k, CompressAdapt: tc.adapt,
		}
		plain := Train(base, prob)
		cfg := base
		cfg.Faults = &comm.FaultPlan{Slow: map[int]float64{2: 3}}
		faulty := Train(cfg, prob)
		if len(faulty.FinalParams) != len(plain.FinalParams) {
			t.Fatalf("%s: param count mismatch", tc.name)
		}
		for i := range plain.FinalParams {
			if !sameBits(plain.FinalParams[i], faulty.FinalParams[i]) {
				t.Fatalf("%s: compressed run with a slow rank diverges at %d: %g vs %g",
					tc.name, i, plain.FinalParams[i], faulty.FinalParams[i])
			}
		}
	}
}

// TestAdaptiveCompressionDeterministicAndBounded pins the adaptive-k
// controller: the capture ratio is allreduced so every learner moves k
// in lockstep, which makes the whole run a deterministic function of the
// seed — two identical runs must agree bitwise on parameters and on the
// final working fraction, and that fraction must stay inside the
// controller's clamp [k0/8, min(1, 8·k0)].
func TestAdaptiveCompressionDeterministicAndBounded(t *testing.T) {
	prob := cifarProblem(24, 12)
	cfg := Config{
		Algo: AlgoSASGD, Learners: 4, Interval: 1, Gamma: 0.05,
		Batch: 4, Epochs: 3, Seed: 14,
		Compress: CodecTopK, CompressK: 0.05, CompressAdapt: true,
	}
	a := Train(cfg, prob)
	b := Train(cfg, prob)
	for i := range a.FinalParams {
		if !sameBits(a.FinalParams[i], b.FinalParams[i]) {
			t.Fatalf("adaptive run not deterministic: params differ at %d", i)
		}
	}
	if a.CompressK != b.CompressK {
		t.Fatalf("adaptive run not deterministic: final k %v vs %v", a.CompressK, b.CompressK)
	}
	const k0 = 0.05
	if a.CompressK < k0/8 || a.CompressK > 8*k0 {
		t.Errorf("final working fraction %v outside clamp [%v, %v]", a.CompressK, k0/8, 8*k0)
	}

	// Dense and qint8 runs report no working fraction.
	dense := cfg
	dense.Compress, dense.CompressK, dense.CompressAdapt = "", 0, false
	if r := Train(dense, prob); r.CompressK != 0 {
		t.Errorf("dense run reports CompressK=%v, want 0", r.CompressK)
	}
}

// TestEveryRunReportsFinalTAndCompressK: the result's schedule and codec
// fields do not depend on which boundary policies a run composes — every
// SASGD run reports the period it ended on, and every top-k run,
// fault-plane ones included, the fraction it ended on.
func TestEveryRunReportsFinalTAndCompressK(t *testing.T) {
	prob := tinyProblem(48, 24, 5)
	for _, tc := range []struct {
		name string
		mut  func(*Config)
		k    float64 // expected CompressK (0 = dense / qint8)
	}{
		{"plain", func(c *Config) {}, 0},
		{"topk", func(c *Config) { c.Compress, c.CompressK = CodecTopK, 0.1 }, 0.1},
		{"qint8", func(c *Config) { c.Compress = CodecQInt8 }, 0},
		{"faults", func(c *Config) { c.Faults = &comm.FaultPlan{} }, 0},
		{"faults+topk", func(c *Config) {
			c.Faults = &comm.FaultPlan{}
			c.Compress, c.CompressK = CodecTopK, 0.1
		}, 0.1},
		{"hier+delayed+topk", func(c *Config) {
			c.HierGroups, c.TOuter, c.DelayedApply = 2, 2, true
			c.Compress, c.CompressK = CodecTopK, 0.1
		}, 0.1},
	} {
		cfg := Config{
			Algo: AlgoSASGD, Learners: 4, Interval: 2, Gamma: 0.05,
			Batch: 4, Epochs: 2, Seed: 9,
		}
		tc.mut(&cfg)
		res := Train(cfg, prob)
		if res.FinalT != cfg.Interval {
			t.Errorf("%s: FinalT = %d, want %d", tc.name, res.FinalT, cfg.Interval)
		}
		if res.CompressK != tc.k {
			t.Errorf("%s: CompressK = %g, want %g", tc.name, res.CompressK, tc.k)
		}
	}
	// The adaptive controller's final fraction survives a fault plan
	// too: same trajectory as the run without one.
	adapt := Config{
		Algo: AlgoSASGD, Learners: 4, Interval: 1, Gamma: 0.05,
		Batch: 4, Epochs: 3, Seed: 14,
		Compress: CodecTopK, CompressK: 0.05, CompressAdapt: true,
	}
	plain := Train(adapt, cifarProblem(24, 12))
	adapt.Faults = &comm.FaultPlan{}
	if got := Train(adapt, cifarProblem(24, 12)); got.CompressK == 0 || got.CompressK != plain.CompressK {
		t.Errorf("adaptive top-k under a fault plan ends at %g, without one at %g", got.CompressK, plain.CompressK)
	}
}

// buildEngine builds rank 0's boundary engine for cfg the way a run
// does, on a simulated group, so a test can read the apply path
// the run's boundaries switch on.
func buildEngine(t *testing.T, cfg Config, prob *Problem) *engine {
	t.Helper()
	cfg = resolved(t, cfg)
	g := comm.NewSimGroup(cfg.Learners, nil, nil)
	tk := obs.NewTracer(1).Learner(0)
	fc := newFleetCollector(cfg, 0, cfg.Learners, obs.NewFleet(cfg.Learners), tk)
	e := newEngine(cfg, g, 0, cfg.Learners, prob.Model(cfg.Seed), tk, fc)
	t.Cleanup(e.close)
	return e
}

// pathCodec counts a codec's collectives by the path they took.
type pathCodec struct {
	comm.Compressor
	plain, applied *atomic.Int64
}

func (c *pathCodec) Allreduce(g *comm.Group, rank int, seg, res []float64, ratio, ready float64, tk *obs.Track, arg int32) {
	c.plain.Add(1)
	c.Compressor.Allreduce(g, rank, seg, res, ratio, ready, tk, arg)
}

func (c *pathCodec) AllreduceApply(g *comm.Group, rank int, seg, res, x []float64, alpha, ratio, ready float64, tk *obs.Track, arg int32) {
	c.applied.Add(1)
	c.Compressor.AllreduceApply(g, rank, seg, res, x, alpha, ratio, ready, tk, arg)
}

// TestFlatEagerCodecAppliesSparse: a flat, eager codec boundary applies
// its aggregate where the codec holds it — top-k's pairs, qint8's
// integers — on every collective of the run, and lands on the bits of
// the materialised path (bucket scatter, then axpy over the model),
// which an AggHook keeps a run on. Delay and hierarchy apply later and
// keep the materialised path too. Metrics and adapt-k read resid², which
// must not move a bit either, and which the fleet frame's captured-mass
// share must see: strictly between 0 and 1.
func TestFlatEagerCodecAppliesSparse(t *testing.T) {
	defer func() { newCompressor = comm.NewCompressor }()
	prob := nlcfProblem(72, 12)
	for _, tc := range []struct {
		name   string
		mut    func(*Config)
		sparse bool
	}{
		{"topk", func(c *Config) {}, true},
		{"topk-T1", func(c *Config) { c.Interval = 1 }, true},
		{"topk-adapt", func(c *Config) { c.CompressAdapt = true }, true},
		{"topk-metrics", func(c *Config) { c.Metrics = true }, true},
		{"qint8", func(c *Config) { c.Compress = CodecQInt8 }, true},
		{"topk-delayed", func(c *Config) { c.DelayedApply = true }, false},
		{"topk-hier", func(c *Config) { c.HierGroups, c.TOuter = 2, 2 }, false},
	} {
		var finals [2][]float64
		for i, hook := range []bool{false, true} {
			cfg := Config{Algo: AlgoSASGD, Learners: 3, Interval: 2, Gamma: 0.05, Batch: 4, Epochs: 2, Seed: 7,
				Compress: CodecTopK, CompressK: 0.05}
			tc.mut(&cfg)
			if hook {
				cfg.AggHook = func(int, []float64) {}
			}
			if e := buildEngine(t, cfg, prob); e.fused != (tc.sparse && !hook) || e.comp == nil {
				t.Fatalf("%s hook=%v: engine applies in the collective: %v, codec %v", tc.name, hook, e.fused, e.comp)
			}
			var plain, applied atomic.Int64
			newCompressor = func(name string) comm.Compressor {
				return &pathCodec{Compressor: comm.NewCompressor(name), plain: &plain, applied: &applied}
			}
			res := Train(cfg, prob)
			finals[i] = res.FinalParams
			newCompressor = comm.NewCompressor
			if cfg.Metrics {
				var sent2, resid2 float64
				for _, r := range res.Fleet.Ranks {
					sent2, resid2 = sent2+r.Sent2, resid2+r.Resid2
				}
				if got := sent2 / (sent2 + resid2); !(got > 0 && got < 1) {
					t.Fatalf("%s hook=%v: captured-mass share %g, want it strictly inside (0, 1)", tc.name, hook, got)
				}
			}
			if sparse := tc.sparse && !hook; sparse && (plain.Load() > 0 || applied.Load() == 0) || !sparse && applied.Load() > 0 {
				t.Fatalf("%s hook=%v: %d collectives materialised the aggregate and %d applied it (want sparse: %v)",
					tc.name, hook, plain.Load(), applied.Load(), sparse)
			}
		}
		for i := range finals[0] {
			if !sameBits(finals[0][i], finals[1][i]) {
				t.Fatalf("%s: param %d applied %g != materialised %g (must be bitwise)", tc.name, i, finals[0][i], finals[1][i])
			}
		}
	}
}
