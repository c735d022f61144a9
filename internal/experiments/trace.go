package experiments

import (
	"time"

	"sasgd/internal/core"
	"sasgd/internal/obs"
	"sasgd/internal/report"
)

// TracedOverlap is the observability companion to Figure 4's T=1
// column: the communication-bound CIFAR-10 configuration (T=1, p=8,
// tree allreduce) run with serial aggregation and again with
// backward-overlapped bucketed aggregation, the overlapped run traced.
// It reports the simulated epoch times of both runs — the 0.738 s →
// 0.639 s delta recorded in EXPERIMENTS.md — next to the *measured*
// fraction of wall-clock allreduce time the overlapped schedule hid
// behind compute, then the overlapped run's end-of-run report. With
// Opt.TracePath set, the Chrome trace is exported there; with
// Opt.DebugAddr set, the live endpoint serves the traced run.
type TracedOverlapResult struct {
	Workload    string
	T, P        int
	SerialSecs  float64 // simulated epoch time, serial aggregation
	OverlapSecs float64 // simulated epoch time, overlapped aggregation

	// Timeline measurements from the overlapped run's trace.
	AllreduceTotal  time.Duration // wall-clock comm-worker allreduce time
	AllreduceHidden time.Duration // portion inside the same rank's compute spans
	HiddenFraction  float64       // AllreduceHidden / AllreduceTotal

	// HiddenSimFraction is the cost-model view of the same quantity,
	// 1 − overlap.SimComm/serial.SimComm. It usually disagrees with the
	// wall-trace HiddenFraction, and the wall number should be trusted
	// less: on a host where p learners and p comm workers share cores,
	// compute spans are inflated by core starvation and hide more
	// allreduce time than a dedicated-core deployment would. The cost
	// model is immune to host load.
	HiddenSimFraction float64
	SerialSimComm     float64 // serial run's simulated communication seconds
	OverlapSimComm    float64 // overlapped run's simulated communication seconds

	TracePath string // where the trace was written ("" = not exported)
}

// TracedOverlap runs the traced Figure-4-style comparison. See
// TracedOverlapResult.
func TracedOverlap(opt Opt) *TracedOverlapResult {
	w := ImageWorkload()
	const p, t = 8, 1
	res := &TracedOverlapResult{Workload: w.Name, T: t, P: p}

	serial := w.simCfg(core.AlgoSASGD, p, t, timingEpochs, opt)
	serial.EvalEvery = timingEpochs
	serialRun := core.Train(serial, w.Problem)
	res.SerialSecs = serialRun.EpochTime()
	res.SerialSimComm = serialRun.SimComm

	tracer := obs.NewTracer(0)
	var reg *obs.Registry
	if opt.Metrics {
		reg = obs.NewRegistry()
		tracer.SetMetrics(reg)
	}
	if opt.DebugAddr != "" {
		if addr, err := tracer.ServeDebug(opt.DebugAddr); err == nil {
			fprintf(opt.out(), "debug endpoint: http://%s/debug/obs\n", addr)
		} else {
			fprintf(opt.out(), "debug endpoint unavailable: %v\n", err)
		}
	}
	// Fresh config (and, crucially, a fresh fabric simulation — simCfg's
	// clocks are single-use) for the overlapped run.
	overlap := w.simCfg(core.AlgoSASGD, p, t, timingEpochs, opt)
	overlap.EvalEvery = timingEpochs
	overlap.OverlapComm = true
	overlap.Tracer = tracer
	overlap.Metrics = reg
	run := core.Train(overlap, w.Problem)
	res.OverlapSecs = run.EpochTime()

	hidden, total := tracer.HiddenFraction()
	res.AllreduceHidden, res.AllreduceTotal = hidden, total
	if total > 0 {
		res.HiddenFraction = float64(hidden) / float64(total)
	}
	res.OverlapSimComm = run.SimComm
	if res.SerialSimComm > 0 {
		res.HiddenSimFraction = 1 - res.OverlapSimComm/res.SerialSimComm
	}

	tab := report.Table{
		Title:  "Traced overlap: SASGD T=1 p=8 (tree), CIFAR-10",
		Header: []string{"schedule", "epoch(s)", "allreduce", "hidden", "hidden%", "sim-hidden%"},
	}
	tab.AddRow("serial", ftoa3(res.SerialSecs), "-", "-", "-", "-")
	tab.AddRow("overlap", ftoa3(res.OverlapSecs), total.Round(time.Microsecond).String(),
		hidden.Round(time.Microsecond).String(), ftoa3(100*res.HiddenFraction),
		ftoa3(100*res.HiddenSimFraction))
	fprintf(opt.out(), "%s\n", tab.String())
	fprintf(opt.out(), "sim comm: serial %ss, overlap %ss (wall hidden%% overstates on a core-starved host; see TracedOverlapResult.HiddenSimFraction)\n",
		ftoa3(res.SerialSimComm), ftoa3(res.OverlapSimComm))
	core.WriteReport(opt.out(), overlap, run)

	if opt.TracePath != "" {
		if err := tracer.WriteTraceFile(opt.TracePath); err != nil {
			fprintf(opt.out(), "trace export failed: %v\n", err)
		} else {
			res.TracePath = opt.TracePath
			fprintf(opt.out(), "trace written to %s (load in ui.perfetto.dev)\n", opt.TracePath)
		}
	}
	return res
}
