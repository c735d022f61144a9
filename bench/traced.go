package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// The traced pass. The per-layer figures come from core.Train itself,
// run with the library's span recorder attached: forward, backward,
// local_step, agg_wait (the blocking boundary collective), agg_apply
// and bcast on each learner's track, and on the compressed workload
// allreduce and compress per bucket on each comm worker's track. Every
// traced leg is paired with an untraced leg of the same configuration:
// the two must end in the same parameters, the difference in wall time
// is the cost of the spans, and core.trace_cover_frac says whether the
// learners' spans add up to the whole run they were recorded in. Standalone probes at
// the workload's own shapes cover what the loop's spans do not split.

// tracedPairs is how many (untraced, traced) leg pairs the pass
// alternates; medians over them keep one slow leg on a shared box from
// deciding the cover.
const tracedPairs = 3

// learnerPhases are the spans a learner goroutine records one after
// another; none encloses another, so their totals are self times.
var learnerPhases = []string{"bcast", "forward", "backward", "local_step", "agg_wait", "agg_apply"}

// runTraced is the traced pass: alternating untraced and traced
// core.Train legs, the standalone probes, and on the compute-bound
// workload the baseline legs.
func runTraced(w *workload, seed int64, seconds float64, outDir string) (outcome, error) {
	out := outcome{metrics: map[string]float64{}, info: map[string]any{}}
	for _, d := range perLayer {
		out.metrics[d.name] = 0 // a layer that is not on the workload's path reports 0
	}
	mt := out.metrics
	p := w.learners

	prob, mesh, stepSeconds, err := setUp(w, seed)
	if err != nil {
		return out, err
	}
	defer closeMesh(mesh)

	// A leg is whole epochs over the head of the training set, sized to
	// an eighth of the budget and to hold at least one boundary where the
	// whole run has one. Evaluation is off.
	steps, total := int(seconds/8/stepSeconds), w.stepsPerEpoch()*w.epochs
	if total >= w.interval {
		steps = max(steps, w.interval)
	}
	steps = max(1, min(steps, total))
	legEpochs := (steps + w.stepsPerEpoch() - 1) / w.stepsPerEpoch()
	bpe := steps / legEpochs
	steps = legEpochs * bpe
	boundaries := steps / w.interval
	legProb := prob.head(bpe*w.batch*p, 1)
	o := w.opts(seed, mesh)
	o.epochs, o.evalEvery = legEpochs, legEpochs+1
	out.info["leg_steps"], out.info["leg_pairs"] = steps, tracedPairs
	out.attempted = int64(tracedPairs * 2 * steps * p)
	net := prob.newNet(seed) // for shapes and segment sizes only
	want := expectedTraffic(w, net, int64(boundaries))

	var cover, overhead, stepMs []float64 // one per pair
	phases := map[string]phaseStat{}      // summed over the traced legs
	var last *tracer
	var lastParams []float64
	var ms0, ms1 runtime.MemStats
	var mallocs, pauseNs uint64
	var words, boundaryWords, boundaryMsgs, wireBytes, wireFrames int64
	dropped := 0
	for i := 0; i < tracedPairs; i++ {
		o.tracer = nil
		runtime.ReadMemStats(&ms0)
		ref, err := train(legProb, o)
		runtime.ReadMemStats(&ms1)
		if !out.check(fmt.Sprintf("leg%d.untraced_ran", i), err == nil, "%v", err) {
			out.failed += int64(2 * steps * p)
			continue
		}
		mallocs, pauseNs = mallocs+ms1.Mallocs-ms0.Mallocs, pauseNs+ms1.PauseTotalNs-ms0.PauseTotalNs

		// Per step a learner records three spans, per boundary two more and
		// its comm worker three per bucket.
		o.tracer = newTracer(steps*3 + boundaries*(2+3*len(net.ParamSegments())) + 16)
		var bytes0, frames0 int64
		if mesh != nil {
			bytes0, frames0 = meshTraffic(mesh)
		}
		res, err := train(legProb, o)
		if !out.check(fmt.Sprintf("leg%d.traced_ran", i), err == nil, "%v", err) {
			out.failed += int64(steps * p)
			continue
		}
		ok := out.check(fmt.Sprintf("leg%d.tracing_keeps_params", i), fnv64(res.params) == fnv64(ref.params),
			"traced run ends in parameters %s, untraced in %s", fnv64(res.params), fnv64(ref.params))
		ok = out.check(fmt.Sprintf("leg%d.traffic", i), trafficEqual(res.traffic, want),
			"collective traffic %v, closed form %v", res.traffic, want) && ok
		if !ok {
			out.failed += int64(steps * p)
		}
		if mesh != nil {
			bytes, frames := meshTraffic(mesh)
			wireBytes, wireFrames = wireBytes+bytes-bytes0, wireFrames+frames-frames0
		}
		for name, t := range res.traffic {
			words += t[0]
			if name != "bcast" {
				boundaryWords, boundaryMsgs = boundaryWords+t[0], boundaryMsgs+t[1]
			}
		}

		stats, d := phaseStats(o.tracer)
		dropped += d
		spans := 0.0
		for _, name := range learnerPhases {
			spans += stats[name].totalMs
		}
		// Against the traced leg's own wall: the untraced leg ran at another
		// moment on a box whose speed drifts, and core.trace_overhead_frac
		// already carries the difference between the two.
		cover = append(cover, spans/float64(p)/(res.wall.Seconds()*1e3))
		overhead = append(overhead, res.wall.Seconds()/ref.wall.Seconds()-1)
		stepMs = append(stepMs, res.wall.Seconds()*1e3/float64(steps))
		for name, s := range stats {
			t := phases[name]
			t.count, t.totalMs, t.p50Ms = t.count+s.count, t.totalMs+s.totalMs, t.p50Ms+s.p50Ms/tracedPairs
			t.p95Ms, t.p99Ms = max(t.p95Ms, s.p95Ms), max(t.p99Ms, s.p99Ms)
			phases[name] = t
		}
		last, lastParams = o.tracer, res.params
	}
	if len(cover) < tracedPairs {
		return out, nil // a leg failed; the checks above say which
	}

	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return out, err
	}
	tracePath := filepath.Join(outDir, w.name+".trace.json")
	if err := writeTraceFile(last, tracePath); err != nil {
		return out, fmt.Errorf("write trace: %w", err)
	}
	out.info["trace_file"] = tracePath
	out.check("trace.complete", dropped == 0, "%d spans overwritten in a ring", dropped)
	out.check("trace.cover", median(cover) >= 0.90 && median(cover) <= 1.10,
		"learner spans cover %.3f of the traced run, want [0.90, 1.10]", median(cover))

	per := func(name string) float64 { // mean duration in ms of one span
		if phases[name].count == 0 {
			return 0
		}
		return phases[name].totalMs / float64(phases[name].count)
	}
	learnerMs := 0.0
	for _, name := range learnerPhases {
		learnerMs += phases[name].totalMs
	}
	mt["core.trace_cover_frac"] = median(cover)
	mt["core.trace_overhead_frac"] = median(overhead)
	mt["core.step_ms"] = median(stepMs)
	mt["core.allocs_per_step"] = float64(mallocs) / float64(tracedPairs*steps*p)
	mt["core.gc_pause_ms"] = float64(pauseNs) / 1e6 / tracedPairs
	mt["nn.forward_ms"] = per("forward")
	mt["nn.backward_ms"] = per("backward")
	mt["core.local_step_us"] = per("local_step") * 1e3
	mt["comm.bcast_ms"] = per("bcast")
	mt["comm.allreduce_share"] = phases["agg_wait"].totalMs / learnerMs
	if boundaries > 0 {
		nb := float64(tracedPairs * boundaries)
		wait := phases["agg_wait"]
		mt["core.agg_apply_us"] = per("agg_apply") * 1e3
		mt["comm.allreduce_ms"] = per("agg_wait")
		mt["core.boundary_ms_p50"] = wait.p50Ms
		// The highest of the recorder's percentiles with ten samples beyond it.
		switch perTrack := wait.count / (tracedPairs * p); {
		case perTrack >= 1000:
			mt["core.boundary_ms_tail"], mt["core.boundary_tail_pct"] = wait.p99Ms, 99
		case perTrack >= 200:
			mt["core.boundary_ms_tail"], mt["core.boundary_tail_pct"] = wait.p95Ms, 95
		}
		mt["comm.words_per_boundary"] = float64(boundaryWords) / nb
		mt["comm.msgs_per_boundary"] = float64(boundaryMsgs) / nb
		mt["comm.tcp_bytes_per_boundary"] = float64(wireBytes) / nb
		mt["comm.tcp_frames_per_boundary"] = float64(wireFrames) / nb
		if w.compress != "" {
			// Selection, residual fold and encoding, all buckets of one boundary.
			mt["comm.codec_ms"] = phases["compress"].totalMs / (nb * float64(p))
			mt["comm.codec_ratio"] = float64(2*net.NumParams()) / mt["comm.words_per_boundary"]
		}
	}
	if wireBytes > 0 {
		mt["wire.overhead_frac"] = float64(wireBytes)/float64(8*words) - 1
	}

	// Evaluation as the end-to-end pass pays it, once per evalEvery epochs.
	evalSeconds := probeEval(prob, lastParams)
	trainSeconds := mt["core.step_ms"] / 1e3 * float64(w.stepsPerEpoch()*w.evalEvery)
	mt["core.eval_share"] = evalSeconds / (evalSeconds + trainSeconds)

	unit := time.Duration(seconds / 40 * float64(time.Second)) // one probe's budget
	if err := probeMetrics(mt, w, prob, net, mesh, unit); err != nil {
		return out, err
	}
	if w.cifar {
		baselineMetrics(&out, w, prob, seed)
	}
	return out, nil
}

// probeMetrics runs the standalone probes at the workload's shapes.
// TCP probes run only on the TCP workloads; elsewhere that layer is off
// the path.
func probeMetrics(mt map[string]float64, w *workload, prob *problem, net *network, mesh *tcpMesh, unit time.Duration) error {
	p, m := w.learners, prob.params

	prev := setKernelWorkers(1) // as in training at p = GOMAXPROCS
	mt["data.batch_us"] = probeBatch(prob, w, unit/2)
	mt["tensor.gemm_gflops"], mt["tensor.gemv_gbps"] = probeGemm(gemmShapes(net, w.batch), unit)
	mt["tensor.axpy_gbps"] = probeAxpy(m, unit/2)
	setKernelWorkers(prev)

	// boundary binds the workload's boundary collective to a group.
	boundary := func(g *group) (prepare, call func(rank int)) {
		if w.compress != "" {
			return codecCalls(g, w, net)
		}
		return nil, denseCall(g, p, m)
	}

	cg := newChanGroup(p)
	defer cg.Close()
	chanMs := median(timeCollective(cg, p, unit, nil, denseCall(cg, p, m)))
	mt["comm.chan_words_per_s"] = float64(m) / (chanMs / 1e3)

	own, wordsPerSec, latency := cg, mt["comm.chan_words_per_s"], 0.0
	if mesh != nil {
		own = newMeshGroup(mesh)
		tcpMs := median(timeCollective(own, p, unit, nil, denseCall(own, p, m)))
		mt["comm.tcp_words_per_s"] = float64(m) / (tcpMs / 1e3)
		rtt := probeRTT(own, unit/2)
		mt["comm.tcp_rtt_us_p50"] = median(rtt)
		mt["comm.tcp_rtt_us_tail"], mt["comm.tcp_rtt_tail_pct"] = tail(rtt)
		var err error
		if mt["comm.tcp_mesh_ms"], err = probeMesh(p, 5); err != nil {
			return err
		}
		if mt["wire.encode_gbps"], mt["wire.decode_gbps"], err = probeWire(m, unit/2); err != nil {
			return err
		}
		wordsPerSec, latency = mt["comm.tcp_words_per_s"], mt["comm.tcp_rtt_us_p50"]/2e6
	}

	// The boundary's collective on the workload's own transport, entered
	// behind a barrier: what it costs when nobody is late. The rest of
	// the training loop's agg_wait span is waiting for the slower learner.
	prepare, call := boundary(own)
	mt["comm.allreduce_busy_ms"] = median(timeCollective(own, p, unit, prepare, call))
	if mt["comm.allreduce_ms"] > 0 {
		mt["comm.allreduce_wait_ms"] = mt["comm.allreduce_ms"] - mt["comm.allreduce_busy_ms"]
	}

	// Model vs measurement: netsim, configured from the rates measured
	// above, predicts one aggregation interval (p = 2 tree: the link
	// carries 2m words per m-word allreduce).
	predicted := simInterval(p, w.interval, prob.trainFlops*float64(w.batch),
		mt["tensor.gemm_gflops"]*1e9, 16*wordsPerSec, latency,
		func(g *group) func(rank int) {
			prepare, call := boundary(g)
			return func(rank int) {
				if prepare != nil {
					prepare(rank)
				}
				call(rank)
			}
		})
	mt["netsim.epoch_residual_frac"] = predicted/(mt["core.step_ms"]/1e3*float64(w.interval)) - 1
	return nil
}

// baselineMetrics runs one epoch each of the paper's comparison
// algorithms on the same problem, evaluation off: sequential SGD on one
// kernel worker, Downpour and EAMSGD at the workload's p. Downpour and
// EAMSGD are asynchronous, so these are informational.
func baselineMetrics(out *outcome, w *workload, prob *problem, seed int64) {
	for _, b := range []struct {
		algo, metric      string
		learners, workers int
	}{
		{"sgd", "core.sgd_p1_samples_per_s", 1, 1},
		{"downpour", "core.downpour_samples_per_s", w.learners, 0},
		{"eamsgd", "core.eamsgd_samples_per_s", w.learners, 0},
	} {
		o := w.opts(seed, nil)
		o.algo, o.learners, o.workers, o.epochs, o.evalEvery = b.algo, b.learners, b.workers, 1, 2
		res, err := train(prob, o)
		if out.check("baseline."+b.algo, err == nil, "%v", err) {
			out.metrics[b.metric] = float64(res.samples) / res.wall.Seconds()
		}
	}
}
