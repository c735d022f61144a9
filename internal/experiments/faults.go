package experiments

import (
	"fmt"
	"os"
	"path/filepath"

	"sasgd/internal/comm"
	"sasgd/internal/core"
	"sasgd/internal/obs"
	"sasgd/internal/report"
)

// DegradedRow is one fault scenario's measured outcome.
type DegradedRow struct {
	Scenario  string
	Spec      string  // comm.ParseFaultPlan grammar ("" = fault-free)
	EpochSecs float64 // simulated seconds per epoch trained
	FinalTest float64 // last recorded test accuracy
	Learners  int     // learners that finished the run
	Restarts  int     // resumes from a boundary checkpoint after a crash
}

// DegradedResult is the graceful-degradation table: SASGD p=8 on the
// simulated paper platform, fault-free vs one straggler slowed 4× vs
// one mid-run crash and its restart.
type DegradedResult struct {
	Workload  string
	P, T      int
	Rows      []DegradedRow
	TracePath string // restart-run Chrome trace ("" = not exported)
}

// DegradedRuns measures how SASGD degrades under injected faults on the
// simulated paper platform: the fault-free baseline, a run where one
// learner computes 4× slower, and a run where one learner fail-stops
// mid-training. A crash ends its run with the learner's error; the 7
// survivors restart from the boundary checkpoint it left (γp rescaled
// by 8/7), and the row reports the restart. The straggler stretches
// every epoch (bulk-synchronous barriers wait for the slowest rank);
// the restart runs *faster* per epoch on 7 learners than the straggler
// run did on 8 — the paper's bulk-synchronous design degrades with the
// slowest survivor, not with the membership size. With Opt.TracePath
// set, the restart's timeline is exported as a Chrome trace.
func DegradedRuns(opt Opt) *DegradedResult {
	w := ImageWorkload()
	const p, t = 8, 8
	const crashRank, crashAt = 5, 2
	epochs := opt.epochs(timingEpochs)
	res := &DegradedResult{Workload: w.Name, P: p, T: t}

	scenarios := []struct {
		name string
		spec string
	}{
		{"fault-free", ""},
		{"straggler 4x", "slow=3:4"},
		{"crash @2", fmt.Sprintf("crash=%d@%d", crashRank, crashAt)},
	}
	for _, sc := range scenarios {
		cfg := w.simCfg(core.AlgoSASGD, p, t, epochs, opt)
		cfg.EvalEvery = epochs
		var err error
		cfg.Faults, err = comm.ParseFaultPlan(sc.spec)
		if err == nil && cfg.Faults.CrashBoundary(crashRank) >= 0 {
			// The crash leaves the checkpoints its restart resumes from.
			var dir string
			if dir, err = os.MkdirTemp("", "sasgd-faults-"); err == nil {
				defer os.RemoveAll(dir)
				cfg.CheckpointPath = filepath.Join(dir, "ck-%d.ckpt")
			}
		}
		if err != nil {
			panic(err)
		}
		row := DegradedRow{Scenario: sc.name, Spec: sc.spec, Learners: p}
		run, err := core.Run(cfg, w.Problem)
		if err == nil { // no crash, or a budget too short to reach it
			row.EpochSecs, row.FinalTest = run.EpochTime(), run.FinalTest
			res.Rows = append(res.Rows, row)
			continue
		}
		// The crash: the survivors resume from the checkpoint of the
		// boundary before it.
		var survivors []int
		for r := 0; r < p; r++ {
			if r != crashRank {
				survivors = append(survivors, r)
			}
		}
		rcfg := w.simCfg(core.AlgoSASGD, len(survivors), t, epochs, opt)
		rcfg.EvalEvery = epochs
		rcfg.ResumeFrom = fmt.Sprintf(cfg.CheckpointPath, crashAt)
		rcfg.ResumeRanks = survivors
		var tracer *obs.Tracer
		if opt.TracePath != "" {
			tracer = obs.NewTracer(0)
			rcfg.Tracer = tracer
		}
		run = core.Train(rcfg, w.Problem)
		row.Learners, row.Restarts = len(survivors), 1
		row.EpochSecs, row.FinalTest = run.SimTime/epochsAfter(cfg, w.Problem, crashAt), run.FinalTest
		res.Rows = append(res.Rows, row)
		if tracer != nil {
			if err := tracer.WriteTraceFile(opt.TracePath); err != nil {
				fprintf(opt.out(), "trace export failed: %v\n", err)
			} else {
				res.TracePath = opt.TracePath
				fprintf(opt.out(), "restart trace written to %s (load in ui.perfetto.dev)\n", opt.TracePath)
			}
		}
	}

	tab := report.Table{
		Title:  "Graceful degradation: SASGD p=8 T=8, CIFAR-10 (simulated platform)",
		Header: []string{"scenario", "epoch(s)", "test", "learners", "restarts"},
	}
	for _, r := range res.Rows {
		tab.AddRow(r.Scenario, ftoa3(r.EpochSecs), report.Pct(r.FinalTest), itoa(r.Learners), itoa(r.Restarts))
	}
	fprintf(opt.out(), "%s\n", tab.String())
	return res
}

// epochsAfter is how many epochs of cfg's run are left after its
// checkpoint at boundary b, at cfg's static period: every learner takes
// ⌈largest shard / batch⌉ steps an epoch.
func epochsAfter(cfg core.Config, prob *core.Problem, b int) float64 {
	maxLen := 0
	for _, s := range prob.Train.Partition(cfg.Learners) {
		maxLen = max(maxLen, s.Len())
	}
	bpe := (maxLen + cfg.Batch - 1) / cfg.Batch
	return float64(cfg.Epochs*bpe-b*cfg.Interval) / float64(bpe)
}
