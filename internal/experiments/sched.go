package experiments

import (
	"sasgd/internal/core"
	"sasgd/internal/metrics"
	"sasgd/internal/netsim"
	"sasgd/internal/obs"
)

// SchedRow is one point on the communication-scheduling frontier: a
// (T-schedule, topology, application) policy and its measured traffic,
// cross-island traffic, simulated epoch time, and accuracy.
type SchedRow struct {
	Policy       string  // e.g. "flat-eager", "hier-delayed"
	TSched       string  // static / adaptive
	Hier         bool    // two-level island aggregation
	Delayed      bool    // delayed global application
	FinalT       int     // period in effect at the end of the run
	EpochSecs    float64 // simulated seconds per epoch
	FinalTest    float64 // last recorded test accuracy
	Words        int64   // float64-equivalent words on the wire
	CrossWords   int64   // words that crossed an island boundary
	CrossPerStep float64 // CrossWords / local steps per learner
	// CrossReduction is the flat-eager baseline's cross-island words
	// divided by this row's (1.0 for the baseline itself).
	CrossReduction float64
}

// SchedResult is the communication-scheduling frontier plus the
// delayed-application timing leg. Part one sweeps the composable
// policies on an uplink-constrained fabric (the shared uplink out of
// each two-rank island runs at a quarter of the peer-link rate, the
// regime the hierarchy is built for). Part two reruns the
// communication-bound T=1 column with delayed application on the
// standard fabric and measures, from the recorded timeline, how much of
// the allreduce wall-clock the one-round delay hid behind compute.
type SchedResult struct {
	Workload                  string
	P, TInner, Groups, TOuter int
	Rows                      []SchedRow

	// The T=1 delayed-application leg (standard fabric, ptree).
	SerialSecs  float64 // serial-aggregation baseline epoch time
	OverlapSecs float64 // backward-overlapped baseline epoch time
	DelayedSecs float64 // delayed-application epoch time
	// HiddenSimFraction is the fraction of the serial schedule's
	// communication seconds that the delayed schedule kept off the
	// simulated critical path: 1 − delayed.SimComm/serial.SimComm. The
	// simulator charges a learner communication time only when an
	// aggregate's arrival Syncs its clock forward — i.e. only when the
	// learner actually waited — so this is the simulated analogue of the
	// traced hidden fraction, and the meaningful one on hosts without
	// enough cores to run the learners in real parallel.
	HiddenSimFraction float64
	// OverlapHiddenSimFraction is the same quantity for the PR-4
	// backward-overlap baseline, the apples-to-apples bar the delayed
	// schedule has to clear.
	OverlapHiddenSimFraction float64
	// HiddenTraceFraction is obs.Tracer.HiddenFraction() on the delayed
	// run: wall-clock allreduce time inside the same rank's compute
	// spans. On a single-core host the learners' compute serializes, so
	// peer skew stretches every allreduce span far past any one rank's
	// compute window and this undercounts badly; it is reported for
	// completeness next to the simulated fraction.
	HiddenTraceFraction float64
}

// CommScheduleFrontier measures what the scheduling layer buys when the
// inter-island uplink — not the peer link — is the scarce resource.
// Every row runs the same local-step schedule (T_inner = 4 between
// intra-island aggregations); the policies differ only in when and how
// far gradients travel. Hierarchical rows aggregate inside each
// simulated island every boundary and cross the uplink once every
// TOuter boundaries, so their cross-island words per step must come in
// at least TOuter/2× under the flat baseline's (the outer exchange
// moves leader aggregates both ways, hence the factor-of-two slack).
func CommScheduleFrontier(opt Opt) *SchedResult {
	w := ImageWorkload()
	const p, tInner, groups, tOuter = 8, 4, 4, 4
	epochs := opt.epochs(timingEpochs)
	res := &SchedResult{Workload: w.Name, P: p, TInner: tInner, Groups: groups, TOuter: tOuter}

	// An uplink-constrained fabric: word sizes rescaled to paper scale as
	// usual, but island-crossing transfers get a quarter of the link rate.
	uplinkSim := func() *netsim.Sim {
		cfg := netsim.DefaultConfig()
		cfg.WordFactor = float64(w.PaperCost.Params) / float64(w.SmallParams)
		cfg.UplinkBandwidth = cfg.PeerBandwidth / 4
		return netsim.New(p, cfg)
	}

	policies := []struct {
		policy        string
		tsched        string
		hier, delayed bool
	}{
		{"flat-eager", core.TSchedStatic, false, false},
		{"flat-eager", core.TSchedAdaptive, false, false},
		{"flat-delayed", core.TSchedStatic, false, true},
		{"hier-eager", core.TSchedStatic, true, false},
		{"hier-delayed", core.TSchedStatic, true, true},
		{"hier-delayed", core.TSchedAdaptive, true, true},
	}
	// Local steps per learner, for the per-step traffic column (every row
	// runs the identical step schedule).
	shards := w.Problem.Train.Partition(p)
	batch := w.Batch
	if w.TimingBatch > 0 {
		batch = w.TimingBatch
	}
	steps := float64(epochs * ((shards[0].Len() + batch - 1) / batch))

	for _, pc := range policies {
		cfg := w.simCfg(core.AlgoSASGD, p, tInner, epochs, opt)
		cfg.EvalEvery = epochs
		cfg.Sim = uplinkSim()
		cfg.TSched = pc.tsched
		cfg.DelayedApply = pc.delayed
		if pc.hier {
			cfg.HierGroups = groups
			cfg.TOuter = tOuter
		}
		run := core.Train(cfg, w.Problem)
		row := SchedRow{
			Policy:       pc.policy,
			TSched:       pc.tsched,
			Hier:         pc.hier,
			Delayed:      pc.delayed,
			FinalT:       run.FinalT,
			EpochSecs:    run.EpochTime(),
			FinalTest:    run.FinalTest,
			Words:        run.WordsMoved,
			CrossWords:   run.Comm.CrossWords,
			CrossPerStep: float64(run.Comm.CrossWords) / steps,
		}
		if len(res.Rows) > 0 && row.CrossWords > 0 {
			row.CrossReduction = float64(res.Rows[0].CrossWords) / float64(row.CrossWords)
		} else if len(res.Rows) == 0 {
			row.CrossReduction = 1
		}
		res.Rows = append(res.Rows, row)
	}

	tab := metrics.Table{
		Title:  "Comm-schedule frontier: SASGD p=8 T_inner=4, CIFAR-10 (uplink = peer/4, islands of 2)",
		Header: []string{"policy", "tsched", "T_end", "epoch(s)", "test", "words", "cross/step", "vs flat"},
	}
	for _, r := range res.Rows {
		red := "-"
		if r.CrossReduction > 0 {
			red = ftoa1(r.CrossReduction) + "×"
		}
		tab.AddRow(r.Policy, r.TSched, itoa(r.FinalT), ftoa3(r.EpochSecs),
			metrics.Pct(r.FinalTest), itoa64(r.Words), ftoa1(r.CrossPerStep), red)
	}
	fprintf(opt.out(), "%s\n", tab.String())

	// Part two: the communication-bound column. Delayed application
	// launches each boundary's allreduce behind the NEXT round's compute,
	// so the whole step — forward, backward, local updates — is available
	// to hide it, not just the backward tail.
	leg := func(mut func(*core.Config)) *core.Result {
		cfg := w.simCfg(core.AlgoSASGD, p, 1, timingEpochs, opt)
		cfg.EvalEvery = timingEpochs
		cfg.Allreduce = core.AllreducePTree
		mut(&cfg)
		return core.Train(cfg, w.Problem)
	}
	serial := leg(func(c *core.Config) {})
	res.SerialSecs = serial.EpochTime()
	overlap := leg(func(c *core.Config) { c.OverlapComm = true })
	res.OverlapSecs = overlap.EpochTime()
	if serial.SimComm > 0 {
		res.OverlapHiddenSimFraction = 1 - overlap.SimComm/serial.SimComm
	}

	tracer := obs.NewTracer(0)
	run := leg(func(c *core.Config) {
		c.TSched = core.TSchedStatic
		c.DelayedApply = true
		c.Tracer = tracer
	})
	res.DelayedSecs = run.EpochTime()
	if serial.SimComm > 0 {
		res.HiddenSimFraction = 1 - run.SimComm/serial.SimComm
	}
	hidden, total := tracer.HiddenFraction()
	if total > 0 {
		res.HiddenTraceFraction = float64(hidden) / float64(total)
	}

	tab = metrics.Table{
		Title:  "Delayed application: SASGD T=1 p=8 (ptree), CIFAR-10",
		Header: []string{"schedule", "epoch(s)", "surfaced comm(s)", "hidden(sim)%", "hidden(trace)%"},
	}
	tab.AddRow("serial", ftoa3(res.SerialSecs), ftoa3(serial.SimComm), "-", "-")
	tab.AddRow("overlap", ftoa3(res.OverlapSecs), ftoa3(overlap.SimComm),
		ftoa3(100*res.OverlapHiddenSimFraction), "-")
	tab.AddRow("delayed", ftoa3(res.DelayedSecs), ftoa3(run.SimComm),
		ftoa3(100*res.HiddenSimFraction), ftoa3(100*res.HiddenTraceFraction))
	fprintf(opt.out(), "%s\n", tab.String())
	return res
}
