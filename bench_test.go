// Package sasgd's top-level benchmark harness: one benchmark per table
// and figure of the paper (each wraps the corresponding experiment
// driver at a reduced budget and reports the figure's headline quantity
// as a custom metric), plus the ablation benchmarks DESIGN.md §5 calls
// out. Regenerate everything with:
//
//	go test -bench=. -benchmem .
//
// The full-budget reproductions (paper-default epochs and sweeps) are
// produced by cmd/experiments; these benchmarks are sized to keep a full
// -bench=. pass in the low minutes.
package sasgd

import (
	"flag"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"sasgd/internal/core"
	"sasgd/internal/experiments"
	"sasgd/internal/model"
	"sasgd/internal/nn"
	"sasgd/internal/parallel"
	"sasgd/internal/tensor"
)

// benchWorkers selects the worker counts the kernel sweep benchmarks run
// at, e.g. go test -bench Kernel . -workers 1,2,4,8
// (the package path must precede -workers: go test stops reading
// package arguments at the first flag it does not recognise itself).
var benchWorkers = flag.String("workers", "1,2,4,8", "comma-separated worker counts for kernel benchmark sweeps")

func workerCounts(b *testing.B) []int {
	b.Helper()
	var ws []int
	for _, f := range strings.Split(*benchWorkers, ",") {
		w, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || w < 1 {
			b.Fatalf("bad -workers entry %q", f)
		}
		ws = append(ws, w)
	}
	return ws
}

// BenchmarkTableICIFARNet measures one training step (forward + loss +
// backward) of the exact Table-I CIFAR-10 network at minibatch size 1.
func BenchmarkTableICIFARNet(b *testing.B) {
	net := model.NewCIFARNet(rand.New(rand.NewSource(1)), model.PaperCIFARConfig())
	x := tensor.New(1, 3, 32, 32)
	x.FillRandn(rand.New(rand.NewSource(2)), 0, 1)
	b.ReportMetric(float64(net.NumParams()), "params")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.Step(x, []int{0})
	}
}

// BenchmarkTableIINLCFNet measures one training step of the exact
// Table-II NLC-F network at minibatch size 1 (the paper's M for NLC-F).
func BenchmarkTableIINLCFNet(b *testing.B) {
	net := model.NewNLCFNet(rand.New(rand.NewSource(1)), model.PaperNLCFConfig())
	x := tensor.New(1, 3, 100)
	x.FillRandn(rand.New(rand.NewSource(2)), 0, 1)
	b.ReportMetric(float64(net.NumParams()), "params")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.Step(x, []int{0})
	}
}

// BenchmarkTheorem1Gap evaluates the Theorem 1 analysis (optimal-c cubic
// plus guarantee gap) across the driver's (p, α) grid.
func BenchmarkTheorem1Gap(b *testing.B) {
	var rows []experiments.Theorem1Row
	for i := 0; i < b.N; i++ {
		rows = experiments.Theorem1(experiments.Opt{})
	}
	if len(rows) > 0 {
		b.ReportMetric(rows[1].Gap, "gap@p32,a16")
	}
}

// BenchmarkFig1EpochBreakdown regenerates Figure 1 (Downpour epoch-time
// breakdown) at p ∈ {1, 8} and reports the CIFAR-10 p=8 communication
// share, the figure's headline number (≈30%).
func BenchmarkFig1EpochBreakdown(b *testing.B) {
	var rows []experiments.Fig1Row
	for i := 0; i < b.N; i++ {
		rows = experiments.Fig1(experiments.Opt{Ps: []int{1, 8}})
	}
	for _, r := range rows {
		if r.Workload == "CIFAR-10" && r.P == 8 {
			b.ReportMetric(r.CommPct, "comm%@cifar,p8")
		}
		if r.Workload == "NLC-F" && r.P == 8 {
			b.ReportMetric(r.CommPct, "comm%@nlcf,p8")
		}
	}
}

// BenchmarkFig2DownpourLR01 regenerates a reduced Figure 2 (Downpour at
// the practical rate) and reports the p=16 accuracy deficit versus p=1.
func BenchmarkFig2DownpourLR01(b *testing.B) {
	var r *experiments.ConvergenceResult
	for i := 0; i < b.N; i++ {
		r = experiments.Fig2(experiments.Opt{Epochs: 6, Ps: []int{1, 16}})
	}
	b.ReportMetric(r.Runs[0].Curve.AUC()-r.Runs[1].Curve.AUC(), "auc-gap-p1-p16")
}

// BenchmarkFig3DownpourLR0005 regenerates a reduced Figure 3 (the
// theory-prescribed small rate) and reports how far the small-rate run
// lands below the practical-rate ceiling.
func BenchmarkFig3DownpourLR0005(b *testing.B) {
	var r *experiments.ConvergenceResult
	for i := 0; i < b.N; i++ {
		r = experiments.Fig3(experiments.Opt{Epochs: 6, Ps: []int{1, 16}})
	}
	b.ReportMetric(r.Runs[1].FinalTest-r.Runs[0].FinalTest, "p16-minus-p1")
}

// BenchmarkFig4EpochTimeCIFAR regenerates Figure 4 and reports the
// T=1 / T=50 epoch-time ratio at p=8 (paper: ≈1.3).
func BenchmarkFig4EpochTimeCIFAR(b *testing.B) {
	var r *experiments.EpochTimeResult
	for i := 0; i < b.N; i++ {
		r = experiments.Fig4(experiments.Opt{Ps: []int{1, 8}})
	}
	b.ReportMetric(r.EpochSecsAt(1, 8)/r.EpochSecsAt(50, 8), "T1/T50@p8")
	b.ReportMetric(r.SpeedupAt(50, 8), "speedup@T50,p8")
}

// BenchmarkFig5EpochTimeNLCF regenerates Figure 5 and reports the same
// ratio for NLC-F (paper: ≈9.7).
func BenchmarkFig5EpochTimeNLCF(b *testing.B) {
	var r *experiments.EpochTimeResult
	for i := 0; i < b.N; i++ {
		r = experiments.Fig5(experiments.Opt{Ps: []int{1, 8}})
	}
	b.ReportMetric(r.EpochSecsAt(1, 8)/r.EpochSecsAt(50, 8), "T1/T50@p8")
	b.ReportMetric(r.SpeedupAt(50, 8), "speedup@T50,p8")
}

// BenchmarkFig6ThreeWayEpochTime regenerates Figure 6 and reports the
// NLC-F T=1 training-time reduction of SASGD over Downpour (paper: "up
// to 50%").
func BenchmarkFig6ThreeWayEpochTime(b *testing.B) {
	var rows []experiments.Fig6Row
	for i := 0; i < b.N; i++ {
		rows = experiments.Fig6(experiments.Opt{})
	}
	var down, sasgd float64
	for _, r := range rows {
		if r.Workload == "NLC-F" && r.T == 1 {
			switch r.Algo {
			case core.AlgoDownpour:
				down = r.EpochSecs
			case core.AlgoSASGD:
				sasgd = r.EpochSecs
			}
		}
	}
	if down > 0 {
		b.ReportMetric(100*(1-sasgd/down), "time-reduction%")
	}
}

// BenchmarkFig7SASGDTImpactCIFAR regenerates a reduced Figure 7 and
// reports the T=1 vs T=50 accuracy gap at p=16 (paper: ≈3.2% after the
// full budget).
func BenchmarkFig7SASGDTImpactCIFAR(b *testing.B) {
	var panels []experiments.TImpactResult
	for i := 0; i < b.N; i++ {
		panels = experiments.Fig7(experiments.Opt{Epochs: 8, Ps: []int{16}, Ts: []int{1, 50}})
	}
	p := panels[0]
	b.ReportMetric(100*(p.FinalTestAt(1)-p.FinalTestAt(50)), "acc-gap-pct@p16")
}

// BenchmarkFig8SASGDTImpactNLCF regenerates a reduced Figure 8 (paper:
// the degradation with T is much weaker on NLC-F).
func BenchmarkFig8SASGDTImpactNLCF(b *testing.B) {
	var panels []experiments.TImpactResult
	for i := 0; i < b.N; i++ {
		panels = experiments.Fig8(experiments.Opt{Epochs: 10, Ps: []int{16}, Ts: []int{1, 50}})
	}
	p := panels[0]
	b.ReportMetric(100*(p.FinalTestAt(1)-p.FinalTestAt(50)), "acc-gap-pct@p16")
}

// BenchmarkFig9ThreeWayCIFAR regenerates a reduced Figure 9 and reports
// SASGD's final-test margin over Downpour and EAMSGD at p=8.
func BenchmarkFig9ThreeWayCIFAR(b *testing.B) {
	var panels []experiments.ThreeWayResult
	for i := 0; i < b.N; i++ {
		panels = experiments.Fig9(experiments.Opt{Epochs: 8, Ps: []int{8}})
	}
	runs := panels[0].Runs
	b.ReportMetric(100*(runs[core.AlgoSASGD].FinalTest-runs[core.AlgoDownpour].FinalTest), "sasgd-minus-downpour-pct")
	b.ReportMetric(100*(runs[core.AlgoSASGD].FinalTest-runs[core.AlgoEAMSGD].FinalTest), "sasgd-minus-eamsgd-pct")
}

// BenchmarkFig10ThreeWayNLCF regenerates a reduced Figure 10 with the
// same margins on the NLC-F workload at p=16.
func BenchmarkFig10ThreeWayNLCF(b *testing.B) {
	var panels []experiments.ThreeWayResult
	for i := 0; i < b.N; i++ {
		panels = experiments.Fig10(experiments.Opt{Epochs: 12, Ps: []int{16}})
	}
	runs := panels[0].Runs
	b.ReportMetric(100*(runs[core.AlgoSASGD].FinalTest-runs[core.AlgoDownpour].FinalTest), "sasgd-minus-downpour-pct")
	b.ReportMetric(100*runs[core.AlgoSASGD].FinalTest, "sasgd-test-pct")
}

// --- Ablation benchmarks (DESIGN.md §5) ---

func ablationProblem() *core.Problem {
	w := experiments.ImageWorkload()
	return w.Problem
}

// BenchmarkAblationGammaP compares SASGD's model-averaging default
// γp = γ/p against γp = γ (applying the full aggregated gradient),
// reporting the final test accuracy of each.
func BenchmarkAblationGammaP(b *testing.B) {
	prob := ablationProblem()
	for _, cfg := range []struct {
		name   string
		gammaP float64
	}{{"gammaOverP", 0}, {"gamma", 0.1}} {
		b.Run(cfg.name, func(b *testing.B) {
			var res *core.Result
			for i := 0; i < b.N; i++ {
				res = core.Train(core.Config{
					Algo: core.AlgoSASGD, Learners: 8, Interval: 5, Gamma: 0.1, GammaP: cfg.gammaP,
					Batch: 16, Epochs: 6, Seed: 1, EvalEvery: 6,
				}, prob)
			}
			b.ReportMetric(100*res.FinalTest, "test-pct")
		})
	}
}

// BenchmarkAblationServerShards compares Downpour's simulated epoch time
// and accuracy with a single-shard versus an 8-shard parameter server.
func BenchmarkAblationServerShards(b *testing.B) {
	w := experiments.ImageWorkload()
	for _, shards := range []int{1, 8} {
		b.Run(map[int]string{1: "single", 8: "sharded"}[shards], func(b *testing.B) {
			var res *core.Result
			for i := 0; i < b.N; i++ {
				res = core.Train(core.Config{
					Algo: core.AlgoDownpour, Learners: 8, Interval: 5, Gamma: 0.1,
					Batch: 16, Epochs: 2, Seed: 1, EvalEvery: 2, Shards: shards,
					Sim: w.SimConfig(8), FlopsPerSample: w.PaperCost.TrainFlopsPerSample,
				}, w.Problem)
			}
			b.ReportMetric(res.EpochTime(), "sim-epoch-s")
		})
	}
}

// BenchmarkKernelMatMul measures the core GEMM kernel the networks are
// built on, swept across matrix sizes and worker-pool widths.
func BenchmarkKernelMatMul(b *testing.B) {
	for _, n := range []int{128, 256, 512} {
		rng := rand.New(rand.NewSource(1))
		a, c := tensor.New(n, n), tensor.New(n, n)
		a.FillRandn(rng, 0, 1)
		bb := tensor.New(n, n)
		bb.FillRandn(rng, 0, 1)
		for _, w := range workerCounts(b) {
			b.Run(fmt.Sprintf("n%d/w%d", n, w), func(b *testing.B) {
				defer parallel.SetWorkers(parallel.SetWorkers(w))
				b.SetBytes(int64(2 * n * n * 8)) // touched bytes per op, coarse
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					tensor.MatMul(c, a, bb)
				}
			})
		}
	}
}

// BenchmarkKernelConvForward measures the Table-I first conv layer
// (3→64, 5×5 on 32×32) via im2col, at minibatch 1 (the paper's CIFAR M
// per learner) and a batched minibatch, across worker-pool widths.
func BenchmarkKernelConvForward(b *testing.B) {
	for _, batch := range []int{1, 16} {
		rng := rand.New(rand.NewSource(1))
		conv := nn.NewConv2D(rng, 3, 64, 5, 5)
		x := tensor.New(batch, 3, 32, 32)
		x.FillRandn(rng, 0, 1)
		for _, w := range workerCounts(b) {
			b.Run(fmt.Sprintf("b%d/w%d", batch, w), func(b *testing.B) {
				defer parallel.SetWorkers(parallel.SetWorkers(w))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					conv.Forward(x, true)
				}
			})
		}
	}
}

// BenchmarkAblationCompression compares SASGD's dense aggregation against
// top-k sparsified aggregation with error feedback at two densities,
// reporting simulated epoch time (the communication savings at paper
// scale) and the accuracy cost.
func BenchmarkAblationCompression(b *testing.B) {
	w := experiments.ImageWorkload()
	for _, cfg := range []struct {
		name, codec string
		topk        float64
	}{{"dense", "", 0}, {"top10pct", core.CodecTopK, 0.10}, {"top1pct", core.CodecTopK, 0.01}} {
		b.Run(cfg.name, func(b *testing.B) {
			var acc *core.Result
			for i := 0; i < b.N; i++ {
				timing := core.Train(core.Config{
					Algo: core.AlgoSASGD, Learners: 8, Interval: 1, Gamma: w.Gamma,
					Batch: 64, Epochs: 2, Seed: 1, EvalEvery: 2, Compress: cfg.codec, CompressK: cfg.topk,
					Sim: w.SimConfig(8), FlopsPerSample: w.PaperCost.TrainFlopsPerSample,
				}, w.Problem)
				b.ReportMetric(timing.EpochTime(), "sim-epoch-s")
				acc = core.Train(core.Config{
					Algo: core.AlgoSASGD, Learners: 8, Interval: 5, Gamma: w.Gamma,
					Batch: w.Batch, Epochs: 6, Seed: 1, EvalEvery: 6, Compress: cfg.codec, CompressK: cfg.topk,
				}, w.Problem)
			}
			b.ReportMetric(100*acc.FinalTest, "test-pct")
		})
	}
}
