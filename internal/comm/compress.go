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
// and leave the dense global aggregate in the bucket. The engine plugs
// into BucketedAllreduce (BeginCompressed), so compression composes
// with backward-overlapped aggregation instead of forcing a serial
// fallback; on a membership plane the worker is restarted on the
// survivor group, so compressed runs survive chaos scenarios.
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
// within a rank, calls must be serialized (the bucketed comm worker's
// are).
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
	// qint8). ready stamps the collective's first sends on a simulated
	// fabric (the layer's backward-completion time on the overlap path).
	// tk records the codec's encode work as a compress span with arg as
	// the span argument (the bucket index); nil-safe.
	//
	// Every rank of the group must call Allreduce with the same bucket
	// sequence, codec and ratio — the same discipline every collective
	// in this package requires.
	Allreduce(g *Group, rank int, seg, res []float64, ratio, ready float64, tk *obs.Track, arg int32)

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
// allocating once its scratch has grown. The leaf's selection over a
// bucket and the root's re-selection over merged pairs both run on it,
// each in three passes over its own data:
//
//  1. the caller counts every value's key (s.count) in a pass it makes
//     anyway;
//  2. s.cut walks the histogram from the top to the bin holding the k-th
//     largest, collects that one bin's members (a percent or two of the
//     values on gradient data) and radix-selects the exact threshold
//     pattern and the tie quota among them;
//  3. the caller splits in ascending index order with s.take.
//
// A key is the top 16 bits of a magnitude pattern: the exponent and five
// mantissa bits. One table serves every bucket size — clearing and
// walking its 256 KiB costs a few tens of microseconds per selection,
// which a 448-word bucket can afford. Counts are 32-bit: a bucket has
// fewer than 2³² words.
type selector struct {
	hist [1 << keyBits]uint32 // all zero between selections
	cand []uint64             // the boundary bin's magnitude patterns

	t    uint64 // threshold pattern of the current cut
	ties int    // entries equal to t still to be taken
}

const (
	keyBits  = 16
	keyShift = 63 - keyBits // magnitude pattern → key
)

// count adds v to the histogram. (The conversion tells the compiler that
// a key indexes the table.)
func (s *selector) count(v float64) { s.hist[uint16(magBits(v)>>keyShift)]++ }

// cut fixes the threshold for the k largest magnitudes of vals, every
// one of which has been counted, and leaves the histogram clear.
// 1 ≤ k ≤ len(vals).
func (s *selector) cut(vals []float64, k int) {
	bin, rank := kthFromTop(s.hist[:], k)
	clear(s.hist[:])
	c := s.cand[:0]
	for _, v := range vals {
		if m := magBits(v); m>>keyShift == uint64(bin) {
			c = append(c, m)
		}
	}
	s.cand = c
	// The bin's members agree on the key; settle the 47 bits below it a
	// byte at a time (the first byte's top bit is the key's last, equal in
	// all of them), keeping only the members that share the rank-th
	// largest one's digits so far. After the last byte they all equal it,
	// and rank is how many of them belong to the top k.
	for shift := 40; shift >= 0; shift -= 8 {
		var h [256]uint32
		for _, m := range c {
			h[byte(m>>shift)]++
		}
		var d int
		d, rank = kthFromTop(h[:], rank)
		w := 0
		for _, m := range c {
			if byte(m>>shift) == byte(d) {
				c[w] = m
				w++
			}
		}
		c = c[:w]
	}
	s.t, s.ties = c[0], rank
}

// take reports whether v is inside the cut. It must be asked about every
// value exactly once, in ascending index order: that order is what sends
// threshold ties to the lower indices.
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
	encA []float64
	encB []float64 // pair-list ping/pong merge scratch
	vals []float64 // the root's merged values, without their coordinates

	sent2, resid2       float64
	totSent2, totResid2 float64
}

func (c *topkCompressor) Name() string { return "topk" }

func (c *topkCompressor) TakeCapture() (sent2, resid2 float64) {
	sent2, resid2 = c.sent2, c.resid2
	c.sent2, c.resid2 = 0, 0
	return sent2, resid2
}

func (c *topkCompressor) Totals() (sent2, resid2 float64) {
	return c.totSent2, c.totResid2
}

func (c *topkCompressor) Allreduce(g *Group, rank int, seg, res []float64, ratio, ready float64, tk *obs.Track, arg int32) {
	g.checkRank(rank)
	if len(seg) != len(res) {
		panic(fmt.Sprintf("comm: topk bucket has %d gradient words but %d residual words", len(seg), len(res)))
	}
	if len(seg) == 0 {
		return
	}
	g.setAlgo(rank, algoSparse)
	cs := tk.Begin()
	// Pass 1, fold and count. Every coordinate unsent in earlier
	// intervals competes for selection again with its full accumulated
	// value; the folded value is written into res, where whatever is not
	// selected has to end up anyway.
	for i, v := range seg {
		v += res[i]
		res[i] = v
		c.sel.count(v)
	}
	// Pass 2, the exact cut.
	k := SparsityK(ratio, len(seg))
	c.sel.cut(res, k)
	// Pass 3, split in ascending index order: a selected coordinate is
	// encoded and its residual zeroed, an unselected one keeps its full
	// folded value — selected + residual == folded gradient, bitwise.
	// The order also keeps the pair list sorted and the two squared norms
	// summed the way a walk over the selection and a walk over the
	// residual would sum them.
	if cap(c.encA) < 2*k {
		c.encA = make([]float64, 2*k)
	}
	enc := c.encA[:2*k]
	var s2, r2 float64
	w := 0
	for i, v := range res {
		if c.sel.take(v) {
			enc[w], enc[w+1] = float64(i), v
			w += 2
			s2 += v * v
			res[i] = 0
		} else {
			r2 += v * v
		}
	}
	c.sent2 += s2
	c.resid2 += r2
	c.totSent2 += s2
	c.totResid2 += r2
	tk.EndArg(obs.PhaseCompress, arg, cs)
	sum := c.allreducePairs(g, rank, enc, k, res, ready)
	// Scatter the compressed global aggregate densely into seg; the
	// unselected coordinates of the aggregate are exactly zero.
	clear(seg)
	for i := 0; i < len(sum); i += 2 {
		seg[int(sum[i])] = sum[i+1]
	}
}

// allreducePairs reduces the rank's encoded pair list to rank 0 up the
// group's tree (coordinate-wise sums, merged in schedule order, so
// values are bitwise deterministic), re-sparsifies the merged aggregate
// at the root, and broadcasts the result down the same tree. All
// payloads are pooled copies; acc ping-pongs between the codec's two
// scratch buffers, so steady state allocates nothing.
func (c *topkCompressor) allreducePairs(g *Group, rank int, acc []float64, k int, res []float64, ready float64) []float64 {
	s := &g.tree[rank]
	cur, spare := acc, c.encB
	for _, child := range s.children {
		in := g.recvMsg(rank, child)
		if in.Arrive > ready {
			ready = in.Arrive
		}
		merged := mergePairs(spare[:0], cur, in.Data)
		g.releaseMsg(in)
		spare = cur
		cur = merged
	}
	if s.parent >= 0 {
		pb := g.acquire(len(cur))
		copy(pb.data, cur)
		g.sendMsgAt(rank, s.parent, Frame{Data: pb.data, pb: pb}, ready)
		in := g.recvMsg(rank, s.parent)
		ready = in.Arrive
		cur = append(cur[:0], in.Data...)
		g.releaseMsg(in)
	} else if len(cur) > 2*k {
		// The union of the learners' supports outgrew k: keep the k
		// largest-magnitude aggregate entries and fold the dropped
		// remainder into the root's own residual, where it re-enters
		// selection next interval through rank 0's contribution. This
		// caps every broadcast message at 2k words and keeps global
		// conservation exact.
		cur = c.resparsify(cur, k, res)
	}
	for i := len(s.children) - 1; i >= 0; i-- {
		pb := g.acquire(len(cur))
		copy(pb.data, cur)
		g.sendMsgAt(rank, s.children[i], Frame{Data: pb.data, pb: pb}, ready)
	}
	c.encA, c.encB = cur, spare
	return cur
}

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
// once per bucket.
func (c *topkCompressor) resparsify(acc []float64, k int, res []float64) []float64 {
	vals := c.vals[:0]
	for i := 1; i < len(acc); i += 2 {
		vals = append(vals, acc[i])
		c.sel.count(acc[i])
	}
	c.vals = vals
	c.sel.cut(vals, k)
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
