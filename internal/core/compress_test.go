package core

import (
	"testing"

	"sasgd/internal/comm"
)

// TestCompressedOverlapMatchesSerialSweep is the compression engine's
// composition acceptance: a backward-overlapped compressed run must be
// *bitwise* identical to the serial compressed run for both codecs at
// every learner count and bucket count. The per-bucket codec collectives
// are independent and deterministic, so launching them early (as each
// bucket's layers finish backward) instead of all at the boundary cannot
// change a single bit — only the simulated schedule. Serial and overlap
// must share the bucket plan: compression is per-bucket, so different
// partitions legitimately select different coordinates.
func TestCompressedOverlapMatchesSerialSweep(t *testing.T) {
	prob := cifarProblem(24, 12)
	for _, codec := range []struct {
		name string
		k    float64
	}{
		{CodecTopK, 0.05},
		{CodecQInt8, 0},
	} {
		for _, p := range []int{1, 2, 3, 5, 8} {
			// {1, 3, per-layer} buckets; 0 selects per-layer.
			for _, buckets := range []int{1, 3, 0} {
				base := Config{
					Algo: AlgoSASGD, Learners: p, Interval: 2, Gamma: 0.05,
					Batch: 4, Epochs: 2, Seed: 11,
					Compress: codec.name, CompressK: codec.k,
					CommBuckets: buckets,
				}
				serial := Train(base, prob)
				cfg := base
				cfg.OverlapComm = true
				ov := Train(cfg, prob)
				if len(ov.FinalParams) != len(serial.FinalParams) {
					t.Fatalf("%s p=%d buckets=%d: param count mismatch", codec.name, p, buckets)
				}
				for i := range serial.FinalParams {
					if serial.FinalParams[i] != ov.FinalParams[i] {
						t.Fatalf("%s p=%d buckets=%d: overlap not bitwise at %d: %g vs %g",
							codec.name, p, buckets, i, serial.FinalParams[i], ov.FinalParams[i])
					}
				}
				// Same collectives either way — same words on the wire.
				if serial.WordsMoved != ov.WordsMoved {
					t.Errorf("%s p=%d buckets=%d: serial moved %d words, overlap %d",
						codec.name, p, buckets, serial.WordsMoved, ov.WordsMoved)
				}
			}
		}
	}
}

// TestCompressedOverlapMatchesSerialNLCF spot-checks the sweep's
// invariant on the temporal-conv model family (different layer shapes,
// so different per-layer bucket plans).
func TestCompressedOverlapMatchesSerialNLCF(t *testing.T) {
	prob := nlcfProblem(24, 12)
	for _, codec := range []struct {
		name string
		k    float64
	}{
		{CodecTopK, 0.05},
		{CodecQInt8, 0},
	} {
		base := Config{
			Algo: AlgoSASGD, Learners: 3, Interval: 2, Gamma: 0.05,
			Batch: 4, Epochs: 2, Seed: 12,
			Compress: codec.name, CompressK: codec.k,
		}
		serial := Train(base, prob)
		cfg := base
		cfg.OverlapComm = true
		ov := Train(cfg, prob)
		for i := range serial.FinalParams {
			if serial.FinalParams[i] != ov.FinalParams[i] {
				t.Fatalf("%s: overlap not bitwise at %d", codec.name, i)
			}
		}
	}
}

// TestFaultyCompressedMatchesPlain runs the compression engine on the
// membership plane: under an empty fault plan (nothing injected,
// nobody crashes) the fault-capable run must reproduce the plain
// compressed run bit for bit — same codecs, same per-bucket collectives,
// same adaptive-k trajectory.
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
		cfg.Faults = &comm.FaultPlan{} // zero value: injects nothing
		faulty := Train(cfg, prob)
		if len(faulty.FinalParams) != len(plain.FinalParams) {
			t.Fatalf("%s: param count mismatch", tc.name)
		}
		for i := range plain.FinalParams {
			if plain.FinalParams[i] != faulty.FinalParams[i] {
				t.Fatalf("%s: resilient compressed run diverges at %d: %g vs %g",
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
		OverlapComm: true,
	}
	a := Train(cfg, prob)
	b := Train(cfg, prob)
	for i := range a.FinalParams {
		if a.FinalParams[i] != b.FinalParams[i] {
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
		{"overlap", func(c *Config) { c.OverlapComm = true }, 0},
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
	// The adaptive controller's final fraction survives the fault plane
	// too: same trajectory as the fixed-membership run.
	adapt := Config{
		Algo: AlgoSASGD, Learners: 4, Interval: 1, Gamma: 0.05,
		Batch: 4, Epochs: 3, Seed: 14,
		Compress: CodecTopK, CompressK: 0.05, CompressAdapt: true,
	}
	plain := Train(adapt, cifarProblem(24, 12))
	adapt.Faults = &comm.FaultPlan{}
	if got := Train(adapt, cifarProblem(24, 12)); got.CompressK == 0 || got.CompressK != plain.CompressK {
		t.Errorf("adaptive top-k under a fault plan ends at %g, fixed membership at %g", got.CompressK, plain.CompressK)
	}
}
