package comm

import (
	"fmt"
	"math"

	"sasgd/internal/obs"
)

// qint8: int8 quantization with a shared per-bucket scale.
//
// Each bucket's aggregation runs in two phases. Phase 1 allreduces the
// bucket's absolute maximum over a binomial tree (one word per message)
// so every rank derives the identical scale s = gmax/127. Phase 2
// quantizes q_i = round(v_i/s) (math.Round — half away from zero,
// deterministic), reduces the INTEGER vectors over the same tree, and
// every rank decodes the aggregate as (Σ q)·s. Because the wire carries
// integers, partial sums are exact and order-independent: the qint8
// aggregate is bitwise identical for any reduction order, which is what
// makes the overlapped and serial compressed schedules trivially
// equivalent.
//
// Wire format: integers are packed into float64 words bit-for-bit
// (math.Float64bits; payloads are only ever copied in transit, never
// operated on, so arbitrary bit patterns survive). A leaf's values fit
// int8 — 8 lanes per word, ⌈n/8⌉ words, the 4× reduction (8× against
// the index+value sparse format) — while interior partial sums of up to
// maxQuantGroup leaves fit int16 — 4 lanes per word. The receiver knows
// the sender's subtree size from the schedule, so messages carry no
// header; the scale needs no transmission either, both sides having run
// phase 1.
//
// Error feedback: the residual keeps r_i = v_i − q_i·s. For q_i = 0 the
// subtraction is trivially exact; for |q_i| ≥ 1 rounding puts v_i/s in
// [q_i − ½, q_i + ½], so v_i lies within [a/2, 2a] of a = q_i·s and
// Sterbenz's lemma makes v_i − a exact — the transmitted value plus the
// residual reconstructs v_i bitwise (pinned in compress_test.go), so
// qint8 composes with error feedback as losslessly as top-k does.

// maxQuantGroup bounds the group size of the qint8 codec: interior
// partial sums reach |Σ q| ≤ 127·p, which must fit int16 (32767), so
// p ≤ 258; capped at the round 256.
const maxQuantGroup = 256

// qint8Compressor is the shared-scale int8 quantization codec. Traffic
// is charged under the "quant" label.
type qint8Compressor struct {
	q []int32 // own quantized contribution, then the integer aggregate

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

func (c *qint8Compressor) Allreduce(g *Group, rank int, seg, res []float64, ratio, ready float64, tk *obs.Track, arg int32) {
	g.checkRank(rank)
	if g.p > maxQuantGroup {
		panic(fmt.Sprintf("comm: qint8 supports at most %d learners (int16 partial sums), got %d", maxQuantGroup, g.p))
	}
	if len(seg) != len(res) {
		panic(fmt.Sprintf("comm: qint8 bucket has %d gradient words but %d residual words", len(seg), len(res)))
	}
	if len(seg) == 0 {
		return
	}
	g.setAlgo(rank, algoQuant)
	// Fold the residual, then agree on the scale of the folded values.
	local := 0.0
	for i := range seg {
		seg[i] += res[i]
		if a := math.Abs(seg[i]); a > local {
			local = a
		}
	}
	gmax, ready := g.allreduceMaxTree(rank, local, ready)
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
	c.intTreeAllreduce(g, rank, ready)
	for i := range seg {
		seg[i] = float64(c.q[i]) * scale
	}
}

// allreduceMaxTree shares max(local) across the group over its tree in
// one-word messages, returning the global maximum and the causal ready
// time after the exchange (arrival-joined, so phase 2's sends are
// stamped after the scale agreement they depend on).
func (g *Group) allreduceMaxTree(rank int, local, ready float64) (float64, float64) {
	s := &g.tree[rank]
	acc := local
	for _, child := range s.children {
		in := g.recvMsg(rank, child)
		if in.Arrive > ready {
			ready = in.Arrive
		}
		if in.Data[0] > acc {
			acc = in.Data[0]
		}
		g.releaseMsg(in)
	}
	if s.parent >= 0 {
		pb := g.acquire(1)
		pb.data[0] = acc
		g.sendMsgAt(rank, s.parent, Frame{Data: pb.data, pb: pb}, ready)
		in := g.recvMsg(rank, s.parent)
		ready = in.Arrive
		acc = in.Data[0]
		g.releaseMsg(in)
	}
	for i := len(s.children) - 1; i >= 0; i-- {
		pb := g.acquire(1)
		pb.data[0] = acc
		g.sendMsgAt(rank, s.children[i], Frame{Data: pb.data, pb: pb}, ready)
	}
	return acc, ready
}

// quantWords returns the packed message length in float64 words for n
// lanes from a sender whose reduce subtree spans the given number of
// leaves: int8 lanes (8 per word) for a single leaf, int16 lanes (4 per
// word) for any partial or full sum.
func quantWords(n, subtree int) int {
	if subtree == 1 {
		return (n + 7) / 8
	}
	return (n + 3) / 4
}

// intTreeAllreduce sums c.q across the group: reduce of the packed
// integer vectors up the group's tree and broadcast of the packed total
// back down. Integer addition is exact and associative, so the result is
// independent of every scheduling choice.
func (c *qint8Compressor) intTreeAllreduce(g *Group, rank int, ready float64) {
	s := &g.tree[rank]
	n := len(c.q)
	for _, child := range s.children {
		in := g.recvMsg(rank, child)
		sub := g.tree[child].span
		if len(in.Data) != quantWords(n, sub) {
			panic(fmt.Sprintf("comm: quantized message has %d words, want %d for %d lanes from a %d-leaf subtree",
				len(in.Data), quantWords(n, sub), n, sub))
		}
		if in.Arrive > ready {
			ready = in.Arrive
		}
		unpackAddInts(in.Data, sub, c.q)
		g.releaseMsg(in)
	}
	if s.parent >= 0 {
		pb := g.acquire(quantWords(n, s.span))
		packInts(c.q, s.span, pb.data)
		g.sendMsgAt(rank, s.parent, Frame{Data: pb.data, pb: pb}, ready)
		in := g.recvMsg(rank, s.parent)
		ready = in.Arrive
		unpackSetInts(in.Data, g.p, c.q)
		g.releaseMsg(in)
	}
	for i := len(s.children) - 1; i >= 0; i-- {
		pb := g.acquire(quantWords(n, g.p))
		packInts(c.q, g.p, pb.data)
		g.sendMsgAt(rank, s.children[i], Frame{Data: pb.data, pb: pb}, ready)
	}
}

// packInts packs q into out at the subtree's lane width. out must be
// exactly quantWords(len(q), subtree) long.
func packInts(q []int32, subtree int, out []float64) {
	if subtree == 1 {
		for w := range out {
			var u uint64
			base := w * 8
			for l := 0; l < 8 && base+l < len(q); l++ {
				u |= uint64(uint8(int8(q[base+l]))) << (8 * l)
			}
			out[w] = math.Float64frombits(u)
		}
		return
	}
	for w := range out {
		var u uint64
		base := w * 4
		for l := 0; l < 4 && base+l < len(q); l++ {
			u |= uint64(uint16(int16(q[base+l]))) << (16 * l)
		}
		out[w] = math.Float64frombits(u)
	}
}

// unpackAddInts adds a packed message's lanes into q.
func unpackAddInts(in []float64, subtree int, q []int32) {
	if subtree == 1 {
		for w, f := range in {
			u := math.Float64bits(f)
			base := w * 8
			for l := 0; l < 8 && base+l < len(q); l++ {
				q[base+l] += int32(int8(uint8(u >> (8 * l))))
			}
		}
		return
	}
	for w, f := range in {
		u := math.Float64bits(f)
		base := w * 4
		for l := 0; l < 4 && base+l < len(q); l++ {
			q[base+l] += int32(int16(uint16(u >> (16 * l))))
		}
	}
}

// unpackSetInts overwrites q with a packed message's lanes (broadcast
// receive).
func unpackSetInts(in []float64, subtree int, q []int32) {
	if subtree == 1 {
		for w, f := range in {
			u := math.Float64bits(f)
			base := w * 8
			for l := 0; l < 8 && base+l < len(q); l++ {
				q[base+l] = int32(int8(uint8(u >> (8 * l))))
			}
		}
		return
	}
	for w, f := range in {
		u := math.Float64bits(f)
		base := w * 4
		for l := 0; l < 4 && base+l < len(q); l++ {
			q[base+l] = int32(int16(uint16(u >> (16 * l))))
		}
	}
}
