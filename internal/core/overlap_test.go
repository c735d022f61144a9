package core

import (
	"fmt"
	"math/rand"
	"testing"

	"sasgd/internal/data"
	"sasgd/internal/model"
	"sasgd/internal/netsim"
	"sasgd/internal/nn"
	obsmetrics "sasgd/internal/obs/metrics"
)

// cifarProblem and nlcfProblem build reduced-scale instances of the
// paper's two model families (Tables I and II shapes, shrunk) over tiny
// synthetic datasets — the overlap equivalence sweep needs real
// multi-layer conv and temporal-conv stacks, not the single-segment tiny
// linear model.
func cifarProblem(nTrain, nTest int) *Problem {
	cfg := data.SmallImageConfig()
	cfg.TrainN, cfg.TestN = nTrain, nTest
	train, test := data.GenImages(cfg)
	return &Problem{
		Name: "small-cifar",
		Model: func(seed int64) *nn.Network {
			return model.NewCIFARNet(rand.New(rand.NewSource(seed)), model.SmallCIFARConfig())
		},
		Train: train, Test: test,
	}
}

func nlcfProblem(nTrain, nTest int) *Problem {
	cfg := data.SmallTextConfig()
	cfg.TrainN, cfg.TestN = nTrain, nTest
	train, test := data.GenText(cfg)
	return &Problem{
		Name: "small-nlcf",
		Model: func(seed int64) *nn.Network {
			return model.NewNLCFNet(rand.New(rand.NewSource(seed)), model.SmallNLCFConfig())
		},
		Train: train, Test: test,
	}
}

// TestOverlapBitwiseEquivalenceSweep is the tentpole acceptance sweep:
// backward-overlapped bucketed aggregation must be *bitwise* identical to
// the serial path for both dense collectives (fixed bucket boundaries
// plus the tree's segmentation-independent per-element summation order)
// at every learner count and bucket count, on both model families.
func TestOverlapBitwiseEquivalenceSweep(t *testing.T) {
	for _, prob := range []*Problem{cifarProblem(24, 12), nlcfProblem(24, 12)} {
		for _, alg := range []AllreduceAlgo{AllreduceTree, AllreducePTree} {
			// The hint composes with either T-schedule.
			for _, tsched := range []string{"", TSchedStatic, TSchedAdaptive} {
				for _, p := range []int{1, 2, 3, 5, 8} {
					base := Config{
						Algo: AlgoSASGD, Learners: p, Interval: 2, Gamma: 0.05,
						Batch: 4, Epochs: 3, Seed: 3, Allreduce: alg, CommChunk: 64,
						TSched: tsched,
					}
					serial := Train(base, prob)
					// {1, 3, per-layer} buckets; 0 selects per-layer.
					for _, buckets := range []int{1, 3, 0} {
						cfg := base
						cfg.OverlapComm = true
						cfg.CommBuckets = buckets
						ov := Train(cfg, prob)
						if len(ov.FinalParams) != len(serial.FinalParams) {
							t.Fatalf("%s/%s p=%d: param count mismatch", prob.Name, alg, p)
						}
						for i := range serial.FinalParams {
							if s, o := serial.FinalParams[i], ov.FinalParams[i]; s != o {
								t.Fatalf("%s/%s p=%d buckets=%d: overlap not bitwise at %d: %g vs %g",
									prob.Name, alg, p, buckets, i, s, o)
							}
						}
						// Honoured, not silently ignored: the buckets went
						// through the comm worker, and the schedule ended where
						// the serial run's did.
						if ov.Comm.BucketOps == 0 || ov.FinalT != serial.FinalT {
							t.Fatalf("%s/%s/%q p=%d buckets=%d: %d bucket ops, FinalT %d vs serial %d",
								prob.Name, alg, tsched, p, buckets, ov.Comm.BucketOps, ov.FinalT, serial.FinalT)
						}
					}
				}
			}
		}
	}
}

// TestOverlapKeepsDriftStatistic: the boundary batch of an overlapped
// run performs the same local update as any other batch, so the replica
// drift the fleet gauge (and the adaptive T-scheduler) reads is the same
// number with the hint on or off.
func TestOverlapKeepsDriftStatistic(t *testing.T) {
	prob := cifarProblem(24, 12)
	drift := func(overlap bool) float64 {
		reg := obsmetrics.New()
		Train(Config{
			Algo: AlgoSASGD, Learners: 3, Interval: 2, Gamma: 0.05,
			Batch: 4, Epochs: 2, Seed: 3, OverlapComm: overlap, Metrics: reg,
		}, prob)
		snap := reg.Fleet().Snapshot()
		if snap == nil || snap.Boundaries == 0 {
			t.Fatal("no fleet boundaries ingested")
		}
		return snap.DriftRMS
	}
	if off, on := drift(false), drift(true); off != on || off == 0 {
		t.Fatalf("drift RMS %g with the overlap hint off, %g with it on", off, on)
	}
}

// TestOverlapUnsupportedAndLegacyConfigsMatchSerial: a top-k run goes
// through the bucketed worker with the hint on or off, so it must be
// bitwise stable under the flag.
func TestOverlapUnsupportedAndLegacyConfigsMatchSerial(t *testing.T) {
	prob := cifarProblem(24, 12)
	base := Config{Algo: AlgoSASGD, Learners: 3, Interval: 2, Gamma: 0.05, Batch: 4, Epochs: 2, Seed: 4,
		Compress: CodecTopK, CompressK: 0.2}
	serial := Train(base, prob)
	cfg := base
	cfg.OverlapComm = true
	ov := Train(cfg, prob)
	for i := range serial.FinalParams {
		if serial.FinalParams[i] != ov.FinalParams[i] {
			t.Fatalf("top-k run diverged under the overlap hint at %d", i)
		}
	}
}

// TestCompressKFullMatchesDense pins the degenerate "ship everything"
// compression: top-k with CompressK = 1 normalizes to no codec at all, so
// it must take the dense path (honoring cfg.Allreduce) and reproduce an
// uncompressed run bit for bit.
func TestCompressKFullMatchesDense(t *testing.T) {
	prob := cifarProblem(24, 12)
	for _, alg := range []AllreduceAlgo{AllreduceTree, AllreducePTree} {
		base := Config{Algo: AlgoSASGD, Learners: 4, Interval: 2, Gamma: 0.05, Batch: 4, Epochs: 2, Seed: 5, Allreduce: alg}
		dense := Train(base, prob)
		full := base
		full.Compress, full.CompressK = CodecTopK, 1
		fr := Train(full, prob)
		for i := range dense.FinalParams {
			if dense.FinalParams[i] != fr.FinalParams[i] {
				t.Fatalf("%s: CompressK=1 not bitwise vs dense at %d: %g vs %g",
					alg, i, dense.FinalParams[i], fr.FinalParams[i])
			}
		}
		// Traffic must also be dense-shaped: the degenerate compression
		// must not route through the sparse index+value collective.
		if fr.WordsMoved != dense.WordsMoved {
			t.Errorf("%s: CompressK=1 moved %d words, dense moved %d", alg, fr.WordsMoved, dense.WordsMoved)
		}
	}
}

// TestOverlapSimFasterAtT1 is the simulated-fabric acceptance criterion:
// at T=1 and p=8 — the regime Fig. 6 shows is communication-dominated —
// stamping buckets with their layers' backward-completion times must
// yield strictly lower simulated epoch time than the serial
// end-of-backward schedule, with bitwise identical parameters.
func TestOverlapSimFasterAtT1(t *testing.T) {
	run := func(overlap bool) *Result {
		simCfg := netsim.DefaultConfig()
		// Rescale the reduced model's messages to paper scale so the
		// aggregation dominates the way Fig. 6 reports for T=1.
		simCfg.WordFactor = 100
		prob := nlcfProblem(64, 16)
		cfg := Config{
			Algo: AlgoSASGD, Learners: 8, Interval: 1, Gamma: 0.05,
			Batch: 4, Epochs: 1, Seed: 6,
			Sim: netsim.New(8, simCfg), FlopsPerSample: 1e8,
			OverlapComm: overlap,
		}
		return Train(cfg, prob)
	}
	serial := run(false)
	ov := run(true)
	for i := range serial.FinalParams {
		if serial.FinalParams[i] != ov.FinalParams[i] {
			t.Fatalf("simulated overlap run diverges at %d", i)
		}
	}
	if ov.SimTime >= serial.SimTime {
		t.Errorf("overlapped T=1 epoch time %.4fs not strictly below serial %.4fs", ov.SimTime, serial.SimTime)
	}
}

// TestPlanBucketsPartitions: plans are contiguous, cover the whole
// buffer, respect the requested count, and key each bucket to its
// earliest layer.
func TestPlanBucketsPartitions(t *testing.T) {
	net := model.NewCIFARNet(rand.New(rand.NewSource(7)), model.SmallCIFARConfig())
	psegs := net.ParamSegments()
	for _, n := range []int{0, 1, 2, 3, len(psegs), len(psegs) + 5} {
		segs, minLayer := planBuckets(psegs, n)
		wantN := n
		if n <= 0 || n > len(psegs) {
			wantN = len(psegs)
		}
		if len(segs) != wantN || len(minLayer) != wantN {
			t.Fatalf("n=%d: got %d buckets, want %d", n, len(segs), wantN)
		}
		off := 0
		for i, s := range segs {
			if s.Off != off || s.Len <= 0 {
				t.Fatalf("n=%d: bucket %d not contiguous: %+v at offset %d", n, i, s, off)
			}
			if i > 0 && minLayer[i] <= minLayer[i-1] {
				t.Fatalf("n=%d: bucket minLayers not increasing: %v", n, minLayer)
			}
			off += s.Len
		}
		if off != net.NumParams() {
			t.Fatalf("n=%d: buckets cover %d words, want %d", n, off, net.NumParams())
		}
	}
}

// BenchmarkOverlapAggregation sweeps the overlap knobs at T=1 (every
// batch aggregates — the maximum-communication regime) over the
// reduced-scale CIFAR family: the serial baseline against bucketed
// overlap at 1, 4, and per-layer buckets. Single-core caveat: on a
// 1-CPU host the overlap cannot reduce wall-clock time (compute and
// comm share the core); these numbers measure overhead there, and the
// simulated-time win is pinned by TestOverlapSimFasterAtT1 instead.
func BenchmarkOverlapAggregation(b *testing.B) {
	for _, p := range []int{2, 4, 8} {
		for _, mode := range []struct {
			name    string
			overlap bool
			buckets int
		}{
			{"serial", false, 0},
			{"buckets=1", true, 1},
			{"buckets=4", true, 4},
			{"buckets=layers", true, 0},
		} {
			b.Run(fmt.Sprintf("p=%d/%s", p, mode.name), func(b *testing.B) {
				prob := cifarProblem(8*p, 8)
				cfg := Config{
					Algo: AlgoSASGD, Learners: p, Interval: 1, Gamma: 0.05,
					Batch: 8, Epochs: 1, Seed: 1,
					OverlapComm: mode.overlap, CommBuckets: mode.buckets,
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					Train(cfg, prob)
				}
			})
		}
	}
}
