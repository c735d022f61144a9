package experiments

import (
	"sasgd/internal/core"
	"sasgd/internal/report"
)

// AveragingRow is one line of the model-averaging comparison.
type AveragingRow struct {
	Name      string
	T         int
	FinalTest float64
	EpochSecs float64 // simulated epoch time for the same configuration
}

// AveragingVariants reproduces the paper's Section III argument for why
// SASGD parameterizes the aggregation interval instead of adopting
// either existing model-averaging heuristic:
//
//   - averaging once at the end of learning (Zinkevich et al.) "results
//     in very poor training and test accuracies";
//   - averaging after every minibatch (Li et al.) "incurs high
//     communication overhead".
//
// Both are expressible as SASGD corner cases (T = all batches with
// γp = γ/p, and T = 1), so the comparison runs the real algorithm at
// three interval settings on the image workload and reports both final
// accuracy and the simulated epoch time.
func AveragingVariants(opt Opt) []AveragingRow {
	w := ImageWorkload()
	const p = 8
	epochs := opt.epochs(12)
	batchesPerLearner := (w.Problem.Train.Len()/p + w.Batch - 1) / w.Batch

	cases := []struct {
		name string
		t    int
	}{
		{"average-at-end (Zinkevich)", epochs * batchesPerLearner},
		{"average-every-minibatch (Li)", 1},
		{"SASGD T=50", 50},
	}
	var rows []AveragingRow
	tab := report.Table{
		Title:  "Model-averaging variants vs SASGD (p=8, image workload)",
		Header: []string{"variant", "T", "test acc", "sim epoch(s)"},
	}
	for _, c := range cases {
		accCfg := w.trainCfg(core.AlgoSASGD, p, c.t, epochs, opt)
		accCfg.EvalEvery = epochs
		acc := core.Train(accCfg, w.Problem)

		timingCfg := w.simCfg(core.AlgoSASGD, p, c.t, timingEpochs, opt)
		timingCfg.EvalEvery = timingEpochs
		// The end-averaging variant's interval must still cover the
		// timing run's batch count so it aggregates (at most) once.
		if c.t > 1 && c.t != 50 {
			timingCfg.Interval = timingEpochs * (w.Problem.Train.Len()/p + timingCfg.Batch - 1) / timingCfg.Batch
		}
		timing := core.Train(timingCfg, w.Problem)

		row := AveragingRow{Name: c.name, T: c.t, FinalTest: acc.FinalTest, EpochSecs: timing.EpochTime()}
		rows = append(rows, row)
		tab.AddRow(c.name, itoa(c.t), report.Pct(row.FinalTest), ftoa3(row.EpochSecs))
	}
	fprintf(opt.out(), "%s\n", tab.String())
	return rows
}
