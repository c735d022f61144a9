package comm

import (
	"fmt"
	"math"

	"sasgd/internal/obs"
)

// qint8: int8 quantization with a shared per-bucket scale.
//
// Each bucket's aggregation runs in two phases, each one walk of the
// group's tree (dense.go's up and down) with a reduction of its own.
// Phase 1 allreduces the bucket's absolute maximum (one word per
// message) so every rank derives the identical scale s = gmax/127.
// Phase 2 quantizes q_i = round(v_i/s) (math.Round — half away from
// zero, deterministic), sums the INTEGER vectors over the same tree,
// and every rank decodes the aggregate as (Σ q)·s. Because the wire
// carries integers, partial sums are exact and order-independent: the
// qint8 aggregate is bitwise identical for any reduction order and any
// bucket launch schedule.
//
// Wire format: integers are packed into float64 words bit-for-bit
// (math.Float64bits; payloads are only ever copied in transit, never
// operated on, so arbitrary bit patterns survive). The lane width is
// the narrowest that holds the sender's subtree sum, |Σ q| ≤ 127·span:
// a leaf's values fit int8 — 8 lanes per word, ⌈n/8⌉ words, the 4×
// reduction (8× against the index+value sparse format) — partial sums
// of up to 258 leaves fit int16 (4 lanes per word), and wider ones
// int32 (2 lanes). The receiver knows the sender's subtree size from
// the schedule, and the broadcast's is the whole group, so messages
// carry no header; the scale needs no transmission either, both sides
// having run phase 1.
//
// Error feedback: the residual keeps r_i = v_i − q_i·s. For q_i = 0 the
// subtraction is trivially exact; for |q_i| ≥ 1 rounding puts v_i/s in
// [q_i − ½, q_i + ½], so v_i lies within [a/2, 2a] of a = q_i·s and
// Sterbenz's lemma makes v_i − a exact — the transmitted value plus the
// residual reconstructs v_i bitwise (pinned in compress_test.go), so
// qint8 composes with error feedback as losslessly as top-k does.

// qint8Compressor is the shared-scale int8 quantization codec. Traffic
// is charged under the "quant" label.
type qint8Compressor struct {
	q   []int32 // own quantized contribution, then the integer aggregate
	max maxOf   // phase 1's reduction

	sent2, resid2       float64
	totSent2, totResid2 float64
}

func (c *qint8Compressor) Name() string { return "qint8" }

func (c *qint8Compressor) TakeCapture() (sent2, resid2 float64) {
	sent2, resid2 = c.sent2, c.resid2
	c.sent2, c.resid2 = 0, 0
	return sent2, resid2
}

func (c *qint8Compressor) Totals() (sent2, resid2 float64) {
	return c.totSent2, c.totResid2
}

func (c *qint8Compressor) NeedResid2(bool) {} // resid² rides the residual's own pass

func (c *qint8Compressor) Allreduce(g *Group, rank int, seg, res []float64, ratio, ready float64, tk *obs.Track, arg int32) {
	c.AllreduceApply(g, rank, seg, res, nil, 0, ratio, ready, tk, arg)
}

func (c *qint8Compressor) AllreduceApply(g *Group, rank int, seg, res, x []float64, alpha, ratio, ready float64, tk *obs.Track, arg int32) {
	g.checkRank(rank)
	if len(seg) != len(res) || x != nil && len(x) != len(seg) {
		panic(fmt.Sprintf("comm: qint8 bucket has %d gradient words but %d residual and %d target words", len(seg), len(res), len(x)))
	}
	if len(seg) == 0 {
		return
	}
	defer g.closeOp(rank, g.beginOp(rank, ready))
	g.setAlgo(rank, algoQuant)
	// Fold the residual, then agree on the scale of the folded values.
	local := 0.0
	for i := range seg {
		seg[i] += res[i]
		if a := math.Abs(seg[i]); a > local {
			local = a
		}
	}
	s := &g.tree[rank]
	c.max.v = local
	g.up(s, &c.max)
	g.down(s, &c.max)
	gmax := c.max.v
	if gmax == 0 || math.IsInf(gmax, 0) || math.IsNaN(gmax) {
		// Every rank's bucket is all-zero (or some rank's is non-finite,
		// where quantization is meaningless): the aggregate is zero and
		// the folded values stay in the residual. gmax is identical on
		// every rank, so the branch is collective-consistent.
		copy(res, seg)
		clear(seg)
		return
	}
	cs := tk.Begin()
	scale := gmax / 127
	if cap(c.q) < len(seg) {
		c.q = make([]int32, len(seg))
	}
	c.q = c.q[:len(seg)]
	for i, v := range seg {
		qv := int32(math.Round(v / scale))
		if qv > 127 {
			qv = 127
		} else if qv < -127 {
			qv = -127
		}
		c.q[i] = qv
		sent := float64(qv) * scale
		r := v - sent
		res[i] = r
		c.sent2 += sent * sent
		c.resid2 += r * r
		c.totSent2 += sent * sent
		c.totResid2 += r * r
	}
	tk.EndArg(obs.PhaseCompress, arg, cs)
	g.up(s, c)
	g.down(s, c)
	for i, q := range c.q {
		if v := float64(q) * scale; x != nil {
			x[i] += alpha * v
		} else {
			seg[i] = v
		}
	}
}

// maxOf is phase 1's reduction: the maximum of one word per member.
type maxOf struct{ v float64 }

func (m *maxOf) fold(_ *Group, _ *sched, _ int, in Frame) {
	if in.Data[0] > m.v {
		m.v = in.Data[0]
	}
}

func (m *maxOf) frame(g *Group, _ *sched, _ int) Frame { return g.pooled([]float64{m.v}) }

func (m *maxOf) adopt(_ *Group, _ *sched, in Frame) { m.v = in.Data[0] }

func (m *maxOf) top() int           { return -1 }
func (c *qint8Compressor) top() int { return -1 }

// Phase 2's reduction is the codec itself: c.q is the rank's integer
// vector, then its subtree's sum up the tree, then the total down it.
// Integer addition is exact and associative, so the result is
// independent of every scheduling choice.

// fold adds child k's packed partial sum into c.q, at the lane width of
// the child's subtree.
func (c *qint8Compressor) fold(g *Group, s *sched, k int, in Frame) {
	n, sub := len(c.q), g.tree[s.children[k]].span
	if len(in.Data) != quantWords(n, sub) {
		panic(fmt.Sprintf("comm: quantized message has %d words, want %d for %d lanes from a %d-leaf subtree",
			len(in.Data), quantWords(n, sub), n, sub))
	}
	unpackInts(in.Data, laneBits(sub), c.q)
}

// frame packs c.q: the subtree's partial sum for the parent, the total
// (a whole group's span) for a child.
func (c *qint8Compressor) frame(g *Group, s *sched, k int) Frame {
	span := g.p
	if k < 0 {
		span = s.span
	}
	pb := g.acquire(quantWords(len(c.q), span))
	packInts(c.q, laneBits(span), pb.data)
	return Frame{Data: pb.data, pb: pb}
}

// adopt overwrites c.q with the parent's packed total.
func (c *qint8Compressor) adopt(g *Group, _ *sched, in Frame) {
	clear(c.q)
	unpackInts(in.Data, laneBits(g.p), c.q)
}

// laneBits returns the lane width in bits of a packed message from a
// sender whose subtree spans the given number of leaves: int8 for a
// single leaf, int16 while 127·span fits it (span ≤ 258), int32 beyond.
func laneBits(span int) int {
	switch {
	case span == 1:
		return 8
	case 127*span <= math.MaxInt16:
		return 16
	}
	return 32
}

// quantWords returns the packed message length in float64 words for n
// lanes from a sender whose subtree spans the given number of leaves.
func quantWords(n, span int) int {
	lanes := 64 / laneBits(span)
	return (n + lanes - 1) / lanes
}

// packInts packs q into out at the given lane width, lane l of word w
// holding q[w·lanes+l]. out must be exactly ⌈len(q)/lanes⌉ long.
func packInts(q []int32, bits int, out []float64) {
	lanes, mask := 64/bits, uint64(1)<<bits-1
	for w := range out {
		var u uint64
		base := w * lanes
		for l := 0; l < lanes && base+l < len(q); l++ {
			u |= uint64(q[base+l]) & mask << (bits * l)
		}
		out[w] = math.Float64frombits(u)
	}
}

// unpackInts adds a packed message's lanes, sign-extended, into q.
func unpackInts(in []float64, bits int, q []int32) {
	lanes := 64 / bits
	for w, f := range in {
		u := math.Float64bits(f)
		base := w * lanes
		for l := 0; l < lanes && base+l < len(q); l++ {
			q[base+l] += int32(int64(u<<(64-bits*(l+1))) >> (64 - bits))
		}
	}
}
