package comm

import (
	"fmt"
	"math"

	"sasgd/internal/obs"
)

// Gradient-compression engine. SASGD's aggregation interval makes
// communication sparse in *time*; the codecs here make each aggregation
// sparse (or narrow) in *space* as well. A Compressor owns one
// learner's codec state — selection scratch, encode buffers, capture
// statistics — and runs one bucket's complete compressed allreduce:
// fold the error-feedback residual, encode, run the codec's collective,
// and leave the global aggregate in the bucket or apply it. The collective is
// the group's one tree walk (dense.go's up and down) carrying the
// codec's reduction — top-k's pair merge below, qint8's max and integer
// sum in quant.go — so a codec says what a frame holds, never when or
// where it moves. A caller runs one collective per bucket — core, one
// per parameterized layer, inline or inside a Runner's in-flight
// launch — on the run's group, so compression composes with delayed
// application.
//
// Error-feedback contract (Alistarh et al., "The Convergence of
// Sparsified Gradient Methods"; the param_state["memory"] pattern of
// SparsifiedSGD): on entry seg holds the interval's accumulated
// gradient for the bucket and res the residual memory — everything
// selection dropped in earlier intervals. The codec folds res into seg,
// transmits a compressed view of the folded value, and stores the
// untransmitted remainder back into res, so for every coordinate
//
//	transmitted + res_after == seg + res_before   (exactly)
//
// and no gradient mass is ever dropped permanently — coordinates too
// small to ship accumulate across intervals until they win selection.
// The conservation is pinned bitwise in compress_test.go.

// Compressor is one learner's instance of a gradient-compression codec.
// Instances carry reusable scratch and must not be shared across ranks;
// within a rank, calls must be serialized (a rank's exchange runs on
// its learner or its Runner, never both at once).
type Compressor interface {
	// Name returns the codec's config name ("topk", "qint8").
	Name() string

	// Allreduce runs one bucket's compressed aggregation across the
	// group. seg is the bucket's slice of the accumulated gradient, res
	// the matching slice of the learner's error-feedback residual (see
	// the package comment for the contract); on return seg holds the
	// dense global compressed aggregate — identical on every rank — and
	// res the untransmitted remainder. ratio is the sparsity knob in
	// (0, 1] for codecs that have one (top-k fraction; ignored by
	// qint8). ready is the collective's entry stamp on a simulated group
	// (the learner's clock at the launch): it runs against its own clock
	// from there, the rank's synced to its end. tk
	// records the codec's encode work as a compress span with arg as
	// the span argument (the bucket index); nil-safe.
	//
	// Every rank of the group must call Allreduce with the same bucket
	// sequence, codec and ratio — the same discipline every collective
	// in this package requires.
	Allreduce(g *Group, rank int, seg, res []float64, ratio, ready float64, tk *obs.Track, arg int32)

	// AllreduceApply is Allreduce then x += alpha·aggregate (x as long as
	// seg), bitwise, from the codec's own form of it; seg is spent.
	AllreduceApply(g *Group, rank int, seg, res, x []float64, alpha, ratio, ready float64, tk *obs.Track, arg int32)

	// NeedResid2 says whether anything reads resid² (a new codec: yes);
	// without a reader a codec may skip it and report 0.
	NeedResid2(need bool)

	// TakeCapture returns and resets the squared norms of the
	// transmitted and untransmitted gradient parts accumulated over the
	// Allreduce calls since the last take — the adaptive-sparsity
	// controller's input signal.
	TakeCapture() (sent2, resid2 float64)

	// Totals returns the same two squared norms accumulated over the
	// codec's whole lifetime, never reset. TakeCapture consumes the
	// per-interval capture (the adaptive controller resets it every
	// boundary), so run-level telemetry — the captured-mass share on the
	// metrics fleet frame — reads this instead.
	Totals() (sent2, resid2 float64)
}

// NewCompressor returns a fresh per-learner codec instance for the
// given config name, or nil for "" / "none" (dense aggregation).
func NewCompressor(name string) Compressor {
	switch name {
	case "", "none":
		return nil
	case "topk":
		return &topkCompressor{}
	case "qint8":
		return &qint8Compressor{}
	}
	panic(fmt.Sprintf("comm: unknown compression codec %q (want topk or qint8)", name))
}

// SparsityK converts a top-k fraction into an entry count for an
// n-coordinate bucket: ⌈ratio·n⌉ clamped to [1, n]. Rounding up means
// "ship at least this fraction" — in particular ratio → 1 keeps every
// entry of every bucket, so near-lossless settings really are lossless.
// Every rank and every path (engine, wire-volume pins, the benchmark's
// closed-form traffic check) must use the same rounding, so it lives
// here.
func SparsityK(ratio float64, n int) int {
	k := int(math.Ceil(ratio * float64(n)))
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	return k
}

// ---------------------------------------------------------------------
// Top-k selection core: exact radix selection on magnitude bit patterns.

// magBits is the selection order: v's IEEE-754 bits with the sign
// cleared. For every float64 that is not a NaN — ±0, subnormals and
// ±Inf included — unsigned order of these patterns is magnitude order,
// and equal magnitudes have equal patterns, so selection never compares
// floats. A NaN's pattern lies above +Inf's: a NaN is the largest
// magnitude there is, always selected and shipped, and a diverged
// gradient reaches every rank in the same boundary instead of hiding in
// one learner's residual.
func magBits(v float64) uint64 { return math.Float64bits(v) &^ (1 << 63) }

// selector finds the exact cut of "the k largest magnitudes, ties toward
// lower indices" — the entries a full (magnitude descending, index
// ascending) sort would keep — without sorting, comparing floats or
// allocating once its scratch has grown. It works on candidates: every
// value at or above a floor that at least k values reach, so that the
// cut over the candidates is the cut over all values. The leaf's
// selection (fold) and the root's re-selection over merged pairs, whose
// every value is a candidate, both run on it:
//
//  1. fold draws the floor from a strided sample and collects the
//     candidates (about 1.5k on gradient data) in ascending index order,
//     in the pass that folds the residual;
//  2. kthLargest radix-selects the exact threshold pattern t and the tie
//     quota among the candidates' patterns;
//  3. the caller splits the candidates in ascending index order with
//     take. A value below the floor is below t: never taken, no tie.
type selector struct {
	idx  []int32  // the candidates' indices, ascending
	pat  []uint64 // their magnitude patterns; kthLargest consumes them
	t    uint64   // threshold pattern of the current cut
	ties int      // entries equal to t still to be taken
}

// sampleStride spaces the floor's sample. It is prime, so it aliases
// none of the row widths a bucket is made of (100, 311, 320 on NLC-F).
const sampleStride = 29

// fold folds seg into res (res[i] = seg[i] + res[i]) and fixes the cut
// for the k largest folded magnitudes, 1 ≤ k ≤ len(seg). The floor is
// the sample's r-th largest, r half as large again as the sample's
// expected share of the top k, plus 8. When fewer than k values reach it
// every value is a candidate: the same cut at the full price.
func (s *selector) fold(seg, res []float64, k int) {
	res = res[:len(seg)]
	var lo uint64
	if r := k/sampleStride*3/2 + 8; r < len(seg)/sampleStride {
		s.pat = s.pat[:0]
		for i := 0; i < len(seg); i += sampleStride {
			s.pat = append(s.pat, magBits(seg[i]+res[i]))
		}
		lo, _ = kthLargest(s.pat, r)
	}
	if cap(s.idx) < len(seg) {
		s.idx = make([]int32, len(seg))
	}
	idx, n := s.idx[:len(seg)], 0
	for i, v := range seg {
		v += res[i]
		res[i] = v
		idx[n] = int32(i) // kept only if v reaches the floor: no branch
		if magBits(v) >= lo {
			n++
		}
	}
	if n < k {
		for i := range idx {
			idx[i] = int32(i)
		}
		n = len(idx)
	}
	s.idx, s.pat = idx[:n], s.pat[:0]
	for _, i := range s.idx {
		s.pat = append(s.pat, magBits(res[i]))
	}
	s.t, s.ties = kthLargest(s.pat, k)
}

// take reports whether v is inside the cut. It must be asked about every
// candidate exactly once, in ascending index order: that order is what
// sends threshold ties to the lower indices.
func (s *selector) take(v float64) bool {
	m := magBits(v)
	if m > s.t {
		return true
	}
	if m == s.t && s.ties > 0 {
		s.ties--
		return true
	}
	return false
}

// kthLargest returns the rank-th largest of the patterns in c (1 = the
// largest) and its rank among its equals, 1 ≤ rank ≤ len(c). It settles
// the pattern a digit at a time — the 11-bit exponent, then the mantissa
// a byte at a time — keeping only the patterns that share its digits so
// far, in place: c is overwritten.
func kthLargest(c []uint64, rank int) (t uint64, within int) {
	var hist [1 << 11]uint32 // counts are 32-bit: a bucket has fewer than 2³² words
	for _, dg := range [...]struct{ shift, width uint }{{52, 11}, {44, 8}, {36, 8}, {28, 8}, {20, 8}, {12, 8}, {4, 8}, {0, 4}} {
		mask := uint64(1)<<dg.width - 1
		h := hist[:mask+1]
		clear(h)
		for _, m := range c {
			h[m>>(dg.shift&63)&mask]++
		}
		var d int
		d, rank = kthFromTop(h, rank)
		w := 0
		for _, m := range c {
			c[w] = m // kept only if its digit is d: no branch
			if m>>(dg.shift&63)&mask == uint64(d) {
				w++
			}
		}
		c = c[:w]
	}
	return c[0], rank
}

// kthFromTop walks a histogram from its highest bin down and returns the
// bin holding the rank-th largest counted element, and that element's
// rank among the bin's own (1 = the bin's largest). rank must not exceed
// the total count.
func kthFromTop(h []uint32, rank int) (bin, within int) {
	bin = len(h) - 1
	for c := int(h[bin]); c < rank; c = int(h[bin]) {
		rank -= c
		bin--
	}
	return bin, rank
}

// ---------------------------------------------------------------------
// topk codec: error-feedback top-k sparsification over a pair-encoded
// sparse binomial tree.

// topkCompressor is the error-feedback top-k codec. Wire format: flat
// (index, value) float64 pairs in ascending index order — 2k words for
// k entries, charged under the "sparse" traffic label. Messages grow
// toward the root only where supports differ; the root re-sparsifies the
// merged aggregate back to k entries before broadcast (folding the
// dropped remainder into its own residual, so conservation holds
// globally), which caps the broadcast at 2k words regardless of support
// overlap.
type topkCompressor struct {
	sel  selector
	encA []float64 // the pair list the tree walk carries
	encB []float64 // pair-list ping/pong merge scratch

	noResid2            bool // nothing reads resid²: skip its pass
	sent2, resid2       float64
	totSent2, totResid2 float64
}

func (c *topkCompressor) Name() string { return "topk" }

func (c *topkCompressor) NeedResid2(need bool) { c.noResid2 = !need }

func (c *topkCompressor) TakeCapture() (sent2, resid2 float64) {
	sent2, resid2 = c.sent2, c.resid2
	c.sent2, c.resid2 = 0, 0
	return sent2, resid2
}

func (c *topkCompressor) Totals() (sent2, resid2 float64) {
	return c.totSent2, c.totResid2
}

func (c *topkCompressor) Allreduce(g *Group, rank int, seg, res []float64, ratio, ready float64, tk *obs.Track, arg int32) {
	c.AllreduceApply(g, rank, seg, res, nil, 0, ratio, ready, tk, arg)
}

func (c *topkCompressor) AllreduceApply(g *Group, rank int, seg, res, x []float64, alpha, ratio, ready float64, tk *obs.Track, arg int32) {
	g.checkRank(rank)
	if len(seg) != len(res) || x != nil && len(x) != len(seg) {
		panic(fmt.Sprintf("comm: topk bucket has %d gradient words but %d residual and %d target words", len(seg), len(res), len(x)))
	}
	if len(seg) == 0 {
		return
	}
	defer g.closeOp(rank, g.beginOp(rank, ready))
	g.setAlgo(rank, algoSparse)
	cs := tk.Begin()
	// Fold and cut. Every coordinate unsent in earlier intervals competes
	// for selection again with its full accumulated value; the folded
	// value is written into res, where whatever is not selected has to
	// end up anyway.
	k := SparsityK(ratio, len(seg))
	c.sel.fold(seg, res, k)
	// Split the candidates in ascending index order: a selected entry is
	// encoded and its residual zeroed, every other keeps its folded value —
	// selected + residual == folded gradient, bitwise. The order keeps the
	// pair list sorted; resid²'s walk adds +0 where an entry was selected.
	enc := c.encA[:0]
	var s2, r2 float64
	for _, i := range c.sel.idx {
		if v := res[i]; c.sel.take(v) {
			enc = append(enc, float64(i), v)
			s2 += v * v
			res[i] = 0
		}
	}
	if !c.noResid2 {
		for _, v := range res {
			r2 += v * v
		}
	}
	c.sent2 += s2
	c.resid2 += r2
	c.totSent2 += s2
	c.totResid2 += r2
	tk.EndArg(obs.PhaseCompress, arg, cs)
	c.encA = enc
	s := &g.tree[rank]
	g.up(s, c)
	if s.parent < 0 && len(c.encA) > 2*k {
		// The union of the learners' supports outgrew k: keep the k
		// largest-magnitude aggregate entries and fold the dropped
		// remainder into the root's own residual, where it re-enters
		// selection next interval through rank 0's contribution. This
		// caps every broadcast message at 2k words and keeps global
		// conservation exact.
		c.encA = c.resparsify(c.encA, k, res)
	}
	g.down(s, c)
	// Apply the pairs — x + alpha·(+0) is x, so they alone move x as the
	// dense axpy would — or scatter them into a cleared seg.
	if x == nil {
		clear(seg)
	}
	for i := 0; i < len(c.encA); i += 2 {
		if j, v := int(c.encA[i]), c.encA[i+1]; x != nil {
			x[j] += alpha * v
		} else {
			seg[j] = v
		}
	}
}

// The pair lists' reduction: encA is the rank's encoded pair list, then
// the merged partial up the tree, then the aggregate down it. Merged
// values are coordinate-wise sums in schedule order, so they are
// bitwise deterministic; every payload is a pooled copy, and the merge
// ping-pongs between encA and encB, so steady state allocates nothing.

// fold merges child k's pair list into the accumulated one.
func (c *topkCompressor) fold(_ *Group, _ *sched, _ int, in Frame) {
	c.encA, c.encB = mergePairs(c.encB[:0], c.encA, in.Data), c.encA
}

// frame sends a pooled copy of the pair list up or down.
func (c *topkCompressor) frame(g *Group, _ *sched, _ int) Frame { return g.pooled(c.encA) }

// adopt takes the parent's aggregate as the pair list.
func (c *topkCompressor) adopt(_ *Group, _ *sched, in Frame) {
	c.encA = append(c.encA[:0], in.Data...)
}

func (c *topkCompressor) top() int { return -1 } // the codecs send the total down every edge

// mergePairs appends the coordinate-wise sum of two ascending pair
// lists to dst. The left operand is always the accumulated value and
// the right the incoming child's — the fixed association every rank's
// tree walk shares, which keeps merged values bitwise deterministic.
func mergePairs(dst, a, b []float64) []float64 {
	if len(a)%2 != 0 || len(b)%2 != 0 {
		panic(fmt.Sprintf("comm: sparse pair message has odd length %d/%d", len(a), len(b)))
	}
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			dst = append(dst, a[i], a[i+1])
			i += 2
		case a[i] > b[j]:
			dst = append(dst, b[j], b[j+1])
			j += 2
		default:
			dst = append(dst, a[i], a[i+1]+b[j+1])
			i += 2
			j += 2
		}
	}
	dst = append(dst, a[i:]...)
	dst = append(dst, b[j:]...)
	return dst
}

// resparsify keeps the k largest-magnitude pairs of acc (ties toward
// lower coordinates, the leaf's rule) in place and folds every dropped
// pair's value into res at its coordinate. Only the root calls this,
// once per bucket; every merged value is a candidate.
func (c *topkCompressor) resparsify(acc []float64, k int, res []float64) []float64 {
	pat := c.sel.pat[:0]
	for i := 1; i < len(acc); i += 2 {
		pat = append(pat, magBits(acc[i]))
	}
	c.sel.pat = pat
	c.sel.t, c.sel.ties = kthLargest(pat, k)
	w := 0
	for i := 0; i < len(acc); i += 2 {
		if c.sel.take(acc[i+1]) {
			acc[w], acc[w+1] = acc[i], acc[i+1]
			w += 2
		} else {
			res[int(acc[i])] += acc[i+1]
		}
	}
	return acc[:w]
}
