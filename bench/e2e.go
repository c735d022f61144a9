package main

import (
	"fmt"
	"math"
	"runtime"
	"time"
)

// check is one output check's verdict, printed in the info line.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// outcome is what a pass hands to main for printing.
type outcome struct {
	attempted, failed int64
	metrics           map[string]float64
	checks            []check
	info              map[string]any
}

func (o *outcome) check(name string, ok bool, format string, args ...any) bool {
	c := check{Name: name, OK: ok}
	if !ok {
		c.Detail = fmt.Sprintf(format, args...)
	}
	o.checks = append(o.checks, c)
	return ok
}

func (o *outcome) correct() bool {
	for _, c := range o.checks {
		if !c.OK {
			return false
		}
	}
	return o.failed == 0
}

// budget scales a pass: how often set-up is repeated for its median,
// and the cap on measured repetitions.
type budget struct {
	setups, maxReps int
}

// setUp is everything before the first measured step: generate the
// data, build the model factory, build the transport mesh, and run the
// fixed warm-up — one epoch of the workload's own configuration over
// the first warmN samples, evaluation off, through the same mesh, so
// pools, scratch buffers and sockets are warm. It also returns the
// warm-up's wall time per step, a (high) first estimate of the step
// time.
func setUp(w *workload, seed int64) (prob *problem, mesh *tcpMesh, warmStepSeconds float64, err error) {
	prob = buildProblem(w, seed)
	if w.tcp {
		if mesh, err = newTCPLoopback(w.learners); err != nil {
			return nil, nil, 0, fmt.Errorf("tcp loopback mesh: %w", err)
		}
	}
	o := w.opts(seed, mesh)
	o.epochs, o.evalEvery = 1, 2
	warm, err := train(prob.head(w.warmN, 1), o)
	if err != nil {
		closeMesh(mesh)
		return nil, nil, 0, fmt.Errorf("warm-up: %w", err)
	}
	warmSteps := (w.warmN/w.learners + w.batch - 1) / w.batch
	return prob, mesh, warm.wall.Seconds() / float64(warmSteps), nil
}

func closeMesh(m *tcpMesh) {
	if m != nil {
		m.Close() // idempotent; the error reports an already-closed mesh
	}
}

// expectedTraffic is the closed form of a run's collective traffic at
// p = 2: the initial broadcast is one m-word message; a dense boundary
// is one m-word message up the tree and one down; a top-k boundary is,
// per parameterised layer, k index/value pairs up and k pairs down
// (the root re-sparsifies the merged aggregate to k entries).
func expectedTraffic(w *workload, net *network, boundaries int64) map[string][2]int64 {
	m := int64(net.NumParams())
	want := map[string][2]int64{"bcast": {m, 1}}
	if boundaries == 0 {
		return want
	}
	if w.compress == "" {
		want["tree"] = [2]int64{boundaries * 2 * m, boundaries * 2}
		return want
	}
	var words, msgs int64
	for _, s := range net.ParamSegments() {
		words += 4 * int64(sparsityK(w.compressK, s.Len))
		msgs += 2
	}
	want["sparse"] = [2]int64{boundaries * words, boundaries * msgs}
	return want
}

func trafficEqual(got, want map[string][2]int64) bool {
	if len(got) != len(want) {
		return false
	}
	for k, v := range want {
		if got[k] != v {
			return false
		}
	}
	return true
}

// runEndToEnd is the untraced pass: repeated set-up, then measured
// repetitions of the full fixed-budget training run until the time
// budget is spent. Every repetition's output is checked.
func runEndToEnd(w *workload, seed int64, seconds float64, b budget) (outcome, error) {
	out := outcome{metrics: map[string]float64{}, info: map[string]any{}}

	var setups []float64
	var prob *problem
	var mesh *tcpMesh
	for i := 0; i < b.setups; i++ {
		closeMesh(mesh)
		runtime.GC() // every set-up and repetition starts from the live heap only
		t := time.Now()
		var err error
		if prob, mesh, _, err = setUp(w, seed); err != nil {
			return out, err
		}
		setups = append(setups, time.Since(t).Seconds())
	}
	defer closeMesh(mesh)

	stepsPerRep := int64(w.epochs * w.stepsPerEpoch() * w.learners)
	boundaries := int64(w.epochs*w.stepsPerEpoch()) / int64(w.interval)
	want := expectedTraffic(w, prob.newNet(seed), boundaries)

	var intervals, toTarget, finals []float64 // per evaluation interval; per repetition
	var samplesPerInterval float64
	var hash string
	var testCurve []float64 // first repetition's test accuracies, for calibrating target and floor
	reps := 0
	start := time.Now()
	for {
		runtime.GC()
		res, err := train(prob, w.opts(seed, mesh))
		reps++
		out.attempted += stepsPerRep
		ok := out.check(fmt.Sprintf("rep%d.ran", reps), err == nil, "%v", err)
		if ok {
			ok = checkRep(&out, w, reps, res, want, &hash)
		}
		if testCurve == nil {
			for _, pt := range res.curve {
				testCurve = append(testCurve, pt.test)
			}
		}
		if !ok {
			out.failed += stepsPerRep
		} else {
			prev := 0.0
			for _, pt := range res.curve {
				intervals = append(intervals, pt.wall-prev)
				prev = pt.wall
			}
			samplesPerInterval = float64(res.samples) / float64(len(res.curve))
			toTarget = append(toTarget, timeToTarget(res.curve, w.target))
			finals = append(finals, res.finalTest)
		}
		// Two repetitions at least, so that the slow workloads measure the
		// same work when the box is slow; then as many as the budget holds.
		elapsed := time.Since(start).Seconds()
		if reps >= b.maxReps || (reps >= 2 && elapsed+elapsed/float64(reps) > 1.05*seconds) {
			break
		}
	}

	rss, err := peakRSSMiB()
	if err != nil {
		return out, err
	}
	if len(intervals) > 0 {
		out.metrics["samples_per_s"] = samplesPerInterval / median(intervals)
		out.metrics["time_to_target_s"] = median(toTarget)
		out.metrics["final_test_acc"] = median(finals)
	} else {
		// Every repetition failed: the run is already incorrect, and the
		// contract wants every metric present and non-zero.
		worst := time.Since(start).Seconds()
		out.metrics["samples_per_s"] = 1 / worst
		out.metrics["time_to_target_s"] = worst
		out.metrics["final_test_acc"] = math.SmallestNonzeroFloat64
	}
	out.metrics["peak_rss_mb"] = rss
	out.metrics["setup_s"] = median(setups)
	out.info["reps"] = reps
	out.info["params"] = prob.params
	out.info["params_fnv64"] = hash
	out.info["test_curve"] = testCurve
	out.info["interval_s"] = intervals
	out.info["to_target_s"] = toTarget
	out.info["setups_s"] = setups
	return out, nil
}

// timeToTarget returns the wall time of the first evaluation at or
// above target, or -1.
func timeToTarget(curve []curvePoint, target float64) float64 {
	for _, pt := range curve {
		if pt.test >= target {
			return pt.wall
		}
	}
	return -1
}

// checkRep applies the output checks to one repetition. hash carries
// the first repetition's parameter hash to the later ones.
func checkRep(out *outcome, w *workload, rep int, res trainResult, want map[string][2]int64, hash *string) bool {
	name := func(s string) string { return fmt.Sprintf("rep%d.%s", rep, s) }
	ok := true
	finite := allFinite(res.params) && len(res.params) > 0
	for _, pt := range res.curve {
		finite = finite && !math.IsNaN(pt.loss) && !math.IsInf(pt.loss, 0)
	}
	ok = out.check(name("finite"), finite, "non-finite loss or parameters") && ok
	ok = out.check(name("curve"), len(res.curve) == w.epochs/w.evalEvery,
		"%d evaluations, want %d", len(res.curve), w.epochs/w.evalEvery) && ok
	ok = out.check(name("floor"), res.finalTest >= w.floor,
		"final test accuracy %.4f below floor %.2f", res.finalTest, w.floor) && ok
	ok = out.check(name("target"), timeToTarget(res.curve, w.target) >= 0,
		"test accuracy never reached %.2f", w.target) && ok
	ok = out.check(name("traffic"), trafficEqual(res.traffic, want),
		"collective traffic %v, closed form %v", res.traffic, want) && ok
	h := fnv64(res.params)
	if *hash == "" {
		*hash = h
	}
	ok = out.check(name("deterministic"), h == *hash,
		"final parameters hash %s, first repetition %s", h, *hash) && ok
	return ok
}
