package experiments

import (
	"sasgd/internal/core"
	"sasgd/internal/report"
)

// timingEpochs is the number of epochs a timing measurement runs: the
// simulated clock is deterministic up to scheduling jitter, so a short
// run suffices and the figure reports simulated seconds per epoch.
const timingEpochs = 2

// Fig1Row is one bar of Figure 1: the breakdown of a Downpour learner's
// epoch time into computation and communication (percent).
type Fig1Row struct {
	Workload   string
	P          int
	ComputePct float64
	CommPct    float64
	EpochSecs  float64
}

// Fig1 reproduces Figure 1: Downpour's epoch-time breakdown for 1, 2, 4
// and 8 learners on both workloads. The paper's observations: for NLC-F,
// communication dominates (>60%) at every p; for CIFAR-10 it is ≈20%
// with 1 learner rising to ≈30% with 8.
func Fig1(opt Opt) []Fig1Row {
	var rows []Fig1Row
	tab := report.Table{
		Title:  "Figure 1: Downpour epoch-time breakdown (computation vs communication)",
		Header: []string{"workload", "p", "compute%", "comm%", "epoch(s)"},
	}
	for _, w := range []*Workload{TextWorkload(), ImageWorkload()} {
		for _, p := range opt.ps([]int{1, 2, 4, 8}) {
			cfg := w.simCfg(core.AlgoDownpour, p, 1, timingEpochs, opt)
			cfg.EvalEvery = timingEpochs
			res := core.Train(cfg, w.Problem)
			total := res.SimCompute + res.SimComm
			row := Fig1Row{Workload: w.Name, P: p, EpochSecs: res.EpochTime()}
			if total > 0 {
				row.ComputePct = 100 * res.SimCompute / total
				row.CommPct = 100 * res.SimComm / total
			}
			rows = append(rows, row)
			tab.AddRow(w.Name, itoa(p), ftoa3(row.ComputePct), ftoa3(row.CommPct), ftoa3(row.EpochSecs))
		}
	}
	fprintf(opt.out(), "%s\n", tab.String())
	return rows
}

// EpochTimeRow is one point of Figures 4/5: SASGD's simulated epoch time
// at a given (T, p).
type EpochTimeRow struct {
	T         int
	P         int
	EpochSecs float64
}

// EpochTimeResult carries a Figure 4/5 reproduction: SASGD epoch times
// for T = 1 and T = 50 across learner counts, plus the sequential-SGD
// reference time (the figures' horizontal line).
type EpochTimeResult struct {
	Workload string
	SeqSecs  float64
	Rows     []EpochTimeRow
}

// Fig4 reproduces Figure 4: the impact of T on SASGD epoch time for the
// CIFAR-10 workload. Paper shape: T = 50 is ≈1.3× faster than T = 1 at
// p = 8; the p = 8 speedup over sequential is ≈4.45.
func Fig4(opt Opt) *EpochTimeResult {
	return epochTimeFigure("Figure 4", ImageWorkload(), opt)
}

// Fig5 reproduces Figure 5: the same sweep for NLC-F. Paper shape:
// T = 50 is ≈9.7× faster than T = 1 at p = 8; the p = 8 speedup over
// sequential is ≈5.35.
func Fig5(opt Opt) *EpochTimeResult {
	return epochTimeFigure("Figure 5", TextWorkload(), opt)
}

func epochTimeFigure(figure string, w *Workload, opt Opt) *EpochTimeResult {
	res := &EpochTimeResult{Workload: w.Name}

	seqCfg := w.simCfg(core.AlgoSGD, 1, 1, timingEpochs, opt)
	seqCfg.EvalEvery = timingEpochs
	res.SeqSecs = core.Train(seqCfg, w.Problem).EpochTime()

	tab := report.Table{
		Title:  figure + ": impact of T on SASGD epoch time, " + w.Name + " (sequential line at " + ftoa3(res.SeqSecs) + "s)",
		Header: []string{"T", "p", "epoch(s)", "speedup-vs-seq"},
	}
	for _, t := range opt.ts([]int{1, 50}) {
		for _, p := range opt.ps([]int{1, 2, 4, 8}) {
			cfg := w.simCfg(core.AlgoSASGD, p, t, timingEpochs, opt)
			cfg.EvalEvery = timingEpochs
			run := core.Train(cfg, w.Problem)
			row := EpochTimeRow{T: t, P: p, EpochSecs: run.EpochTime()}
			res.Rows = append(res.Rows, row)
			sp := 0.0
			if row.EpochSecs > 0 {
				sp = res.SeqSecs / row.EpochSecs
			}
			tab.AddRow(itoa(t), itoa(p), ftoa3(row.EpochSecs), ftoa3(sp))
		}
	}
	fprintf(opt.out(), "%s\n", tab.String())
	return res
}

// Fig6Row is one bar of Figure 6: an algorithm's simulated epoch time at
// p = 8 for a given T and workload.
type Fig6Row struct {
	Workload  string
	Algo      core.Algorithm
	T         int
	EpochSecs float64
}

// Fig6 reproduces Figure 6: epoch time of Downpour, EAMSGD and SASGD
// with 8 learners at T = 1 and T = 50 on both workloads. Paper shape:
// at T = 1 SASGD is much faster than both server-based baselines thanks
// to its lower communication complexity; at T = 50 communication is
// amortized and all three are similar.
func Fig6(opt Opt) []Fig6Row {
	const p = 8
	var rows []Fig6Row
	tab := report.Table{
		Title:  "Figure 6: epoch time at p=8 for Downpour, EAMSGD and SASGD",
		Header: []string{"workload", "T", "algo", "epoch(s)"},
	}
	for _, w := range []*Workload{ImageWorkload(), TextWorkload()} {
		for _, t := range opt.ts([]int{1, 50}) {
			for _, algo := range []core.Algorithm{core.AlgoDownpour, core.AlgoEAMSGD, core.AlgoSASGD} {
				cfg := w.simCfg(algo, p, t, timingEpochs, opt)
				cfg.EvalEvery = timingEpochs
				run := core.Train(cfg, w.Problem)
				row := Fig6Row{Workload: w.Name, Algo: algo, T: t, EpochSecs: run.EpochTime()}
				rows = append(rows, row)
				tab.AddRow(w.Name, itoa(t), string(algo), ftoa3(row.EpochSecs))
			}
		}
	}
	fprintf(opt.out(), "%s\n", tab.String())
	return rows
}
