package experiments

import (
	"sasgd/internal/comm"
	"sasgd/internal/core"
	"sasgd/internal/obs"
	"sasgd/internal/report"
)

// DegradedRow is one fault scenario's measured outcome.
type DegradedRow struct {
	Scenario  string
	Spec      string  // comm.ParseFaultPlan grammar ("" = fault-free)
	EpochSecs float64 // simulated seconds per epoch
	FinalTest float64 // last recorded test accuracy
	LiveP     int     // learners still live at the end
	Faults    comm.FaultStats
}

// DegradedResult is the graceful-degradation table: SASGD p=8 on the
// simulated paper platform, fault-free vs one straggler slowed 4× vs
// one mid-run crash.
type DegradedResult struct {
	Workload  string
	P, T      int
	Rows      []DegradedRow
	TracePath string // degraded-run Chrome trace ("" = not exported)
}

// DegradedRuns measures how SASGD degrades under injected faults on the
// simulated paper platform: the fault-free baseline, a run where one
// learner computes 4× slower, and a run where one learner fail-stops
// mid-training and the survivors evict it, re-form, and finish with γp
// rescaled. The straggler stretches every epoch
// (bulk-synchronous barriers wait for the slowest rank); the crash
// costs one detection timeout and then runs *faster* per epoch on 7
// learners than the straggler run did on 8 — the paper's
// bulk-synchronous design degrades with the slowest survivor, not with
// the membership size. With Opt.TracePath set, the crash run's timeline
// (including crash/evict/re-form spans) is exported as a Chrome trace.
func DegradedRuns(opt Opt) *DegradedResult {
	w := ImageWorkload()
	const p, t = 8, 8
	epochs := opt.epochs(timingEpochs)
	res := &DegradedResult{Workload: w.Name, P: p, T: t}

	scenarios := []struct {
		name string
		spec string
	}{
		{"fault-free", ""},
		{"straggler 4x", "slow=3:4,evict=5s"},
		{"crash @2", "crash=5@2,evict=500ms"},
	}
	for _, sc := range scenarios {
		cfg := w.simCfg(core.AlgoSASGD, p, t, epochs, opt)
		cfg.EvalEvery = epochs
		if sc.spec != "" {
			plan, err := comm.ParseFaultPlan(sc.spec)
			if err != nil {
				panic(err)
			}
			cfg.Faults = plan
		}
		var tracer *obs.Tracer
		if opt.TracePath != "" && sc.name == "crash @2" {
			tracer = obs.NewTracer(0)
			cfg.Tracer = tracer
		}
		run := core.Train(cfg, w.Problem)
		res.Rows = append(res.Rows, DegradedRow{
			Scenario:  sc.name,
			Spec:      sc.spec,
			EpochSecs: run.EpochTime(),
			FinalTest: run.FinalTest,
			LiveP:     run.LiveP,
			Faults:    run.Comm.Faults,
		})
		if tracer != nil {
			if err := tracer.WriteTraceFile(opt.TracePath); err != nil {
				fprintf(opt.out(), "trace export failed: %v\n", err)
			} else {
				res.TracePath = opt.TracePath
				fprintf(opt.out(), "degraded-run trace written to %s (load in ui.perfetto.dev)\n", opt.TracePath)
			}
		}
	}

	tab := report.Table{
		Title:  "Graceful degradation: SASGD p=8 T=8, CIFAR-10 (simulated platform)",
		Header: []string{"scenario", "epoch(s)", "test", "live", "evictions"},
	}
	for _, r := range res.Rows {
		tab.AddRow(r.Scenario, ftoa3(r.EpochSecs), report.Pct(r.FinalTest),
			itoa(r.LiveP), itoa64(r.Faults.Evictions))
	}
	fprintf(opt.out(), "%s\n", tab.String())
	return res
}
