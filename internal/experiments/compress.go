package experiments

import (
	"sasgd/internal/core"
	"sasgd/internal/report"
)

// CompressRow is one point on the compression frontier: a codec setting
// and its measured wire volume, simulated epoch time, and accuracy.
type CompressRow struct {
	Codec     string  // "dense", "topk", "qint8"
	K         float64 // configured top-k fraction (0 = not applicable)
	Adapt     bool    // adaptive-sparsity controller on
	FinalK    float64 // final working fraction (equal to K unless Adapt)
	EpochSecs float64 // simulated seconds per epoch
	FinalTest float64 // last recorded test accuracy
	Words     int64   // float64-equivalent words on the wire
	Reduction float64 // dense words ÷ this row's words
}

// CompressResult is the gradient-compression frontier: SASGD p=8 T=1 on
// the simulated paper platform, dense vs error-feedback top-k at several
// sparsity levels (fixed and adaptive) vs int8 quantization. Every codec
// runs one collective per parameterized layer at the boundary.
type CompressResult struct {
	Workload string
	P, T     int
	Rows     []CompressRow
}

// CompressionFrontier measures what gradient compression buys on the
// communication-heavy end of the SASGD trade-off (T = 1: every local
// step aggregates, so the wire dominates). Each row is one run on the
// simulated paper platform; the dense row anchors the reduction column.
// Top-k at 5% must land at least 5× below dense on
// the wire — the root re-sparsifies the merged aggregate back to k (the
// dropped mass goes to its residual), so the broadcast never widens
// past 2k words per bucket no matter how disjoint the learners'
// supports are.
func CompressionFrontier(opt Opt) *CompressResult {
	w := ImageWorkload()
	const p, t = 8, 1
	epochs := opt.epochs(timingEpochs)
	res := &CompressResult{Workload: w.Name, P: p, T: t}

	settings := []struct {
		codec string
		k     float64
		adapt bool
	}{
		{"dense", 0, false},
		{core.CodecTopK, 0.01, false},
		{core.CodecTopK, 0.05, false},
		{core.CodecTopK, 0.10, false},
		{core.CodecTopK, 0.05, true},
		{core.CodecQInt8, 0, false},
	}
	for _, sc := range settings {
		cfg := w.simCfg(core.AlgoSASGD, p, t, epochs, opt)
		cfg.EvalEvery = epochs
		if sc.codec != "dense" {
			cfg.Compress = sc.codec
			cfg.CompressK = sc.k
			cfg.CompressAdapt = sc.adapt
		}
		run := core.Train(cfg, w.Problem)
		row := CompressRow{
			Codec:     sc.codec,
			K:         sc.k,
			Adapt:     sc.adapt,
			FinalK:    run.CompressK,
			EpochSecs: run.EpochTime(),
			FinalTest: run.FinalTest,
			Words:     run.WordsMoved,
		}
		if len(res.Rows) > 0 && row.Words > 0 {
			row.Reduction = float64(res.Rows[0].Words) / float64(row.Words)
		}
		res.Rows = append(res.Rows, row)
	}

	tab := report.Table{
		Title:  "Compression frontier: SASGD p=8 T=1, CIFAR-10 (simulated platform)",
		Header: []string{"codec", "k", "epoch(s)", "test", "words", "vs dense"},
	}
	for _, r := range res.Rows {
		k := "-"
		if r.K > 0 {
			k = ftoa3(r.K)
			if r.Adapt {
				k += "→" + ftoa3(r.FinalK)
			}
		}
		red := "1.0×"
		if r.Reduction > 0 {
			red = ftoa1(r.Reduction) + "×"
		}
		tab.AddRow(r.Codec, k, ftoa3(r.EpochSecs), report.Pct(r.FinalTest), itoa64(r.Words), red)
	}
	fprintf(opt.out(), "%s\n", tab.String())
	return res
}
