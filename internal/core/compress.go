package core

// Core-side wiring of the gradient-compression engine (comm.Compressor):
// the adaptive-sparsity controller. The codec itself is boundary-engine
// state (boundary.go).
//
// Compressed aggregation never takes a serial whole-vector fallback:
// the gradient is split with the same planBuckets plan the overlap hook
// uses and one codec collective runs per bucket through the bucketed
// worker, in descending bucket order — from inside backward when
// OverlapComm applies, all at once at the boundary otherwise. Per-bucket
// codec collectives are independent and deterministic (the top-k tree
// merges in fixed order, the qint8 integer sums are exact), so the two
// schedules are bitwise identical — pinned in compress_test.go.

// Adaptive sparsity (the Deng et al. adaptive-sparse direction): hold
// the globally captured gradient-mass fraction sent²/(sent²+resid²)
// inside [adaptLowCapture, adaptHighCapture]. Below the band the
// selection is missing too much mass — grow k; above it the selection
// is paying for mass the residual would have carried fine — shrink k.
// The working fraction is clamped to [k0/adaptSpan, k0·adaptSpan]
// (and ≤ 1) around the configured k0, so one noisy interval can never
// collapse the wire or blow it open.
const (
	adaptLowCapture  = 0.50
	adaptHighCapture = 0.90
	adaptGrow        = 4.0 / 3
	adaptShrink      = 3.0 / 4
	adaptSpan        = 8.0
)

// nextRatio is one controller step. Pure and deterministic: every
// learner feeds it the identical allreduced stats and the identical
// current ratio, so the working fraction stays in lockstep across the
// group without any extra coordination.
func nextRatio(ratio, k0, sent2, resid2 float64) float64 {
	total := sent2 + resid2
	if total <= 0 {
		return ratio
	}
	switch frac := sent2 / total; {
	case frac < adaptLowCapture:
		ratio *= adaptGrow
	case frac > adaptHighCapture:
		ratio *= adaptShrink
	}
	lo, hi := k0/adaptSpan, k0*adaptSpan
	if hi > 1 {
		hi = 1
	}
	if ratio < lo {
		ratio = lo
	} else if ratio > hi {
		ratio = hi
	}
	return ratio
}
