package core

import (
	"sasgd/internal/comm"
	"sasgd/internal/nn"
	"sasgd/internal/obs"
	"sasgd/internal/tensor"
)

// Backward-overlapped aggregation (Config.OverlapComm). A serial
// boundary pays the full O(m log p) allreduce after the T-th backward
// pass has completely finished; but backprop finalizes layer gradients
// in reverse order, so the tail of the flat gradient buffer is final
// while the early convolutions are still running. On the boundary batch
// the learner loop runs nn.StepEach with the hook below, which
// accumulates each finalized bucket into gs and hands it to the
// engine's comm worker immediately; the boundary then waits on the
// handles instead of running the exchange. Values are bitwise identical
// to the serial boundary for the tree family and every codec: bucket
// boundaries are fixed layer boundaries, per-bucket accumulation is the
// same elementwise gs += g (gs = 0 + g when the boundary batch is also
// the interval's first, nothing where gs is g: localStep's rule), and
// the bucketed tree replays the monolithic tree's per-element summation
// order (pinned in comm and again at core level in overlap_test.go).
// Under the fabric simulation each bucket's op starts its clock at its
// layers' backward-completion time — start + dt·fraction from
// model.BackwardDoneFractions — which is what makes the overlap show up
// in simulated epoch time. A drift consumer keeps gs apart from g even
// at T = 1: its local step reads g while the launched buckets are being
// summed in place.

// onLayerDone is the nn.StepEach hook for the boundary batch: when
// layer's completion finalizes a bucket (its earliest layer — backward
// visits layers in reverse, so buckets launch in descending index order,
// identically on every rank), fold the bucket's gradient segment into gs
// (where gs is g it is there already) and launch it, stamped with the
// layer's backward-completion time. The accumulate+submit is recorded as
// a bucket_begin span, which nests inside the backward span on the
// exported timeline.
func (e *engine) onLayerDone(layer int) {
	bi := e.bucketAt[layer]
	if bi < 0 {
		return
	}
	bs := e.tk.Begin()
	if s := e.segs[bi]; !e.gsIsG {
		tensor.Accumulate(e.gs[s.Off:s.Off+s.Len], e.grads[s.Off:s.Off+s.Len], e.fresh)
	}
	ready := 0.0
	if e.fracs != nil {
		ready = e.start + e.dt*e.fracs[layer]
	}
	e.begin(bi, e.gs, ready)
	e.tk.EndArg(obs.PhaseBucketBegin, int32(bi), bs)
}

// planBuckets groups the network's per-layer segments into at most n
// contiguous, word-balanced buckets (n ≤ 0 or n ≥ len(psegs) selects one
// bucket per parameterized layer). It returns the comm segments plus each
// bucket's earliest layer — the last of its layers to finalize during
// backward, which gates the bucket's launch. The plan is a pure function
// of the model and n, so every rank computes identical buckets.
func planBuckets(psegs []nn.ParamSegment, n int) (segs []comm.Segment, minLayer []int) {
	if n <= 0 || n > len(psegs) {
		n = len(psegs)
	}
	total := 0
	for _, s := range psegs {
		total += s.Len
	}
	si := 0
	for b := 0; b < n; b++ {
		first := psegs[si]
		off, words := first.Off, first.Len
		si++
		// Grow the bucket toward the cumulative word target, keeping at
		// least one segment for each remaining bucket.
		target := (total*(b+1) + n - 1) / n
		for si < len(psegs) && len(psegs)-si > n-b-1 && off+words < target {
			words += psegs[si].Len
			si++
		}
		segs = append(segs, comm.Segment{Off: off, Len: words})
		minLayer = append(minLayer, first.Layer)
	}
	return segs, minLayer
}
