package comm

import (
	"fmt"

	"sasgd/internal/parallel"
)

// The tree walk and the dense engine. up and down are the only code in
// the package that moves a frame along a binomial schedule (tree.go):
// the up half folds every child's partial and hands the result to the
// parent, the down half brings the root's total back. What is folded
// and sent is a reduction's business — the dense sum here, top-k's
// pair merge (compress.go), qint8's max and packed-integer sum
// (quant.go) — so the receive order and the pooled-frame discipline
// are written once. The dense sum over the whole buffer is the paper's
// O(m log p) tree: "tree", the broadcast, the wire barrier and both
// levels of the hierarchy are this one engine with a different
// schedule, buffer and traffic label. The only concurrency with compute
// the package offers is a Runner's in-flight exchange (runner.go), not
// splitting a buffer inside one collective.
//
// Every collective is executed by the members' cooperating goroutines
// over the group's transport. Each learner calls the method with its own
// rank; all learners must call the same collectives in the same order
// (bulk-synchronous discipline), which is exactly how Algorithm 1 in the
// paper uses them.
//
// Ownership: a partial travels up by reference — the child's own
// buffer, which the child does not touch again until down hands it
// back. A parent that receives it so (the channel fabric) keeps it in
// its dense state's held row and, on the way down, writes the sum into
// it and sends it back by reference; the child then copies nothing. At
// the root the last fold is that write-back. Only where the child's
// memory is not in hand — a partial that arrived in a pooled buffer —
// does down send a pooled copy. On a p = 2 channel group the collective
// copies nothing at all.
// On a wire (Group.exchange) the root and its last child swap partials,
// the root sending first, and each folds the total into its own memory
// with the root's partial as dst: the root's last fold's order and bits.
//
// The apply epilogue x += a·Σ (AllreduceTreeApply) runs in the pass
// that writes the member's final sum, dropping sum stores nothing reads,
// so a parent may write a child's x — through the child's sched, while
// a by-reference partial shows the child parked in down.
//
// Allocation discipline: every pooled copy is drawn from the group's
// buffer pool and released by the walk that receives it (pool.go), and
// the dense state, reduction loop included, is kept in the member's
// sched, so the dense collectives allocate nothing in steady state.
// Folds run through internal/parallel above reduceGrain, with
// per-element order unchanged from the serial loop, so results are
// bitwise independent of the worker budget.

// AllreduceTree sums buf elementwise across all learners using a binomial
// tree (reduce to rank 0, then broadcast), leaving the global sum in
// every learner's buf. The data volume per learner is O(m log p), the
// figure the paper contrasts with the parameter server's O(mp).
//
// On an all-local group the root's last fold runs on parallel.Workers()
// × p shards — its own kernel workers and those of the p−1 learners
// that, by then, have all sent up and are parked in down waiting for the
// sum. Inside a Runner's launch those learners compute on instead, and
// the lent shards only queue behind their kernels: the shard count
// moves the wall clock, never a value.
func (g *Group) AllreduceTree(rank int, buf []float64) {
	g.checkRank(rank)
	g.setAlgo(rank, algoTree)
	g.allreduce(&g.tree[rank], buf, g.allLocal)
}

// BroadcastTree distributes rank 0's buf to every learner using a
// binomial tree: the engine's broadcast half over the whole buffer. On
// return every learner's buf holds root's data.
func (g *Group) BroadcastTree(rank int, buf []float64) {
	g.checkRank(rank)
	g.setAlgo(rank, algoBcast)
	s := &g.tree[rank]
	g.down(s, s.sum(buf, false))
}

// AllreduceTreeApply is AllreduceTree followed by x += a·Σ, bitwise,
// with each member's apply run where the walk writes its sum: one pass
// over the model instead of two; buf is spent. Whoever writes a
// member's final sum applies its epilogue and marks it; one left unmarked
// (a simulated wire's root, after down has sent) applies its own.
func (g *Group) AllreduceTreeApply(rank int, buf, x []float64, a float64) {
	g.checkRank(rank)
	if len(x) != len(buf) {
		panic(fmt.Sprintf("comm: tree apply has %d sum words but %d target words", len(buf), len(x)))
	}
	g.setAlgo(rank, algoTree)
	s := &g.tree[rank]
	d := &s.dense
	d.x, d.a = x, a
	g.allreduce(s, buf, g.allLocal)
	if !d.applied {
		d.deliver(s, nil, buf)
	}
	d.x, d.applied = nil, false
}

// allreduce sums buf across the members of s's tree and leaves the sum
// in every member's buf. The caller has set the rank's traffic label, so
// the accounting names the collective the user asked for rather than
// the engine it runs on. lend says the root's last fold may use the
// parked members' workers (AllreduceTree).
func (g *Group) allreduce(s *sched, buf []float64, lend bool) {
	if s.solitary() || len(buf) == 0 {
		return
	}
	d := s.sum(buf, lend && !g.exchange) // none parked: both ends of an exchange fold
	if g.exchange {
		d.peer = s.partner
	}
	g.up(s, d)
	g.down(s, d)
}

// reduction is the payload of one walk over a member's sched: what up
// folds and sends, and what down adopts and sends. k indexes
// s.children. The walk releases every frame it receives once fold or
// adopt has returned, so a reduction copies out of a pooled payload; a
// frame that arrived by reference (pb nil, the sender's own memory) is
// left alone and may be kept.
type reduction interface {
	// fold folds child k's partial into this member's.
	fold(g *Group, s *sched, k int, in Frame)
	// frame returns the frame to send: this subtree's partial to the
	// parent for k < 0, the total to child k otherwise.
	frame(g *Group, s *sched, k int) Frame
	// adopt takes the parent's total as this member's.
	adopt(g *Group, s *sched, in Frame)
	// top is this walk's top-edge exchange partner, or −1.
	top() int
}

// up runs the reduce half: fold each child's partial in schedule order
// (the summation order every pin rests on), then send the subtree's
// partial to the parent; an exchange's root sends its own to top first.
func (g *Group) up(s *sched, r reduction) {
	top := r.top()
	for k, child := range s.children {
		if child == top {
			g.sendMsg(s.rank, child, r.frame(g, s, -1))
		}
		in := g.recvMsg(s.rank, child)
		r.fold(g, s, k, in)
		g.releaseMsg(in)
	}
	if s.parent >= 0 {
		g.sendMsg(s.rank, s.parent, r.frame(g, s, -1))
	}
}

// down runs the broadcast half: adopt the parent's total, then send it
// to each child in reverse schedule order; the top edge's exchange folds
// the root's partial (k = −1) and sends nothing back.
func (g *Group) down(s *sched, r reduction) {
	top := r.top()
	if s.parent >= 0 {
		in := g.recvMsg(s.rank, s.parent)
		if s.parent == top {
			r.fold(g, s, -1, in)
		} else {
			r.adopt(g, s, in)
		}
		g.releaseMsg(in)
	}
	for k := len(s.children) - 1; k >= 0; k-- {
		if s.children[k] != top {
			g.sendMsg(s.rank, s.children[k], r.frame(g, s, k))
		}
	}
}

// dense is the dense sum as a reduction, one per sched: buf is the
// member's buffer, held the children's partials kept by reference from
// up to down, lend whether the root's last fold may use the parked
// members' workers, peer the top edge's exchange partner (−1: none).
// dst, src and back are the fold in flight (Range); x += a·Σ the
// member's epilogue (nil x: none), xc += ac·Σ the last fold's child's.
type dense struct {
	buf              []float64
	held             [][]float64
	dst, src, x, xc  []float64
	a, ac            float64
	peer             int
	lend, back       bool
	applied          bool
	keepDst, keepSrc bool
	ep               epilogue
}

// sum points s's dense state at buf and returns it.
func (s *sched) sum(buf []float64, lend bool) *dense {
	s.dense.buf, s.dense.lend, s.dense.peer = buf, lend, -1
	return &s.dense
}

func (d *dense) top() int { return d.peer }

// epilogue is out = in (none at a nil out), then x += a·in — tensor's
// axpy, element by element — shard by shard, as a parallel.Body.
type epilogue struct {
	out, in, x []float64
	a          float64
}

func (e *epilogue) Range(_, lo, hi int) {
	in, x, a := e.in[lo:hi], e.x[lo:hi], e.a
	x = x[:len(in)]
	if e.out != nil {
		copy(e.out[lo:hi], in)
	}
	for i, v := range in {
		x[i] += a * v
	}
}

// deliver writes the total src into dst, member c's buffer: a copy, or
// under an epilogue c's apply in one pass, storing nothing at a leaf.
func (d *dense) deliver(c *sched, dst, src []float64) {
	if d.x == nil {
		copy(dst, src)
		return
	}
	if len(c.children) == 0 {
		dst = nil
	}
	d.ep = epilogue{out: dst, in: src, x: c.dense.x, a: c.dense.a}
	parallel.ForWorkers(len(src), reduceGrain, parallel.Workers(), &d.ep)
	c.dense.applied = true
}

// reduceGrain is the minimum number of elements per shard for the
// parallel reduction loops, matching the elementwise-kernel grain in
// internal/tensor: below it, dispatch overhead would dominate the ~1
// flop/element add.
const reduceGrain = 1 << 15

// Range is the member's reduction loop, buf += src, as a
// parallel.Body. With back set it also stores each sum into src: the
// root's last fold, whose sums are final, writing them into the child's
// own memory in the same pass — under an epilogue, applying both and
// storing only what a later frame reads (at p = 2, nothing). Without an
// epilogue keepDst still says whether dst is read again: at the child
// end of the top edge's exchange dst is the pooled copy of the root's
// partial, and only the child's own buffer (src) takes the total. Either
// way an element is one addition, in the serial loop's order, and shards
// are disjoint index ranges, so the result is bitwise identical at
// every shard count. The state lives in the member's sched, so handing
// it to the worker pool allocates nothing.
func (d *dense) Range(_, lo, hi int) {
	dst, src := d.dst[lo:hi], d.src[lo:hi]
	src = src[:len(dst)] // one length for both: no bounds checks in the loops
	switch {
	case !d.back:
		for i := range dst {
			dst[i] += src[i]
		}
		return
	case d.x == nil:
		keepDst := d.keepDst
		for i := range dst {
			v := dst[i] + src[i]
			if keepDst {
				dst[i] = v
			}
			src[i] = v
		}
		return
	}
	xr := d.x[lo:hi][:len(dst)]
	a, keepDst, keepSrc := d.a, d.keepDst, d.keepSrc
	if d.xc == nil { // one x: an end of the top edge's exchange
		for i := range dst {
			v := dst[i] + src[i]
			if keepDst {
				dst[i] = v
			}
			if keepSrc {
				src[i] = v
			}
			xr[i] += a * v
		}
		return
	}
	xc, ac := d.xc[lo:hi][:len(dst)], d.ac
	if !keepDst && !keepSrc {
		for i := range dst {
			v := dst[i] + src[i]
			xr[i] += a * v
			xc[i] += ac * v
		}
		return
	}
	for i := range dst {
		v := dst[i] + src[i]
		if keepDst {
			dst[i] = v
		}
		if keepSrc {
			src[i] = v
		}
		xr[i] += a * v
		xc[i] += ac * v
	}
}

// fold folds child k's partial into buf. A partial that arrives by
// reference (the channel fabric's hand-off) is the child's own buffer;
// it goes into held[k] for frame to write the sum into, and at the root
// the last fold writes it there already. A partial in a pooled buffer
// is only folded: that is every frame a wire transport delivers, so
// there the child's memory is not in hand.
func (d *dense) fold(g *Group, s *sched, k int, in Frame) {
	if len(in.Data) != len(d.buf) {
		panic(fmt.Sprintf("comm: tree reduce length mismatch %d vs %d", len(in.Data), len(d.buf)))
	}
	keep := in.pb == nil
	workers := parallel.Workers()
	if d.lend && s.writesBack(k) {
		workers *= g.p
	}
	d.dst, d.src, d.back, d.keepDst = d.buf, in.Data, keep && s.writesBack(k), true
	if d.back && d.x != nil {
		c := &g.tree[s.children[k]] // s is a schedule of g.tree
		d.xc, d.ac = c.dense.x, c.dense.a
		d.keepDst, d.keepSrc = len(s.children) > 1, len(c.children) > 0
		d.applied, c.dense.applied = true, true
	}
	if d.peer >= 0 && (k < 0 || s.children[k] == d.peer) { // the root's partial is dst at both ends
		if k < 0 {
			d.dst, d.src = in.Data, d.buf
		}
		d.back, d.xc, d.applied = k < 0 || d.x != nil, nil, d.x != nil
		d.keepDst, d.keepSrc = k >= 0 && len(s.children) > 1, k < 0 && len(s.children) > 0
	}
	parallel.ForWorkers(len(d.buf), reduceGrain, workers, d)
	if keep {
		d.held[k] = in.Data
	}
}

// frame hands buf to the parent by reference: the parent reads it while
// folding and may write the sum into it, and this member touches it
// again only once down has received it back. A child whose buffer up
// kept gets it back by reference holding the sum (the root's last
// child's already does: the fold wrote it); every other child gets a
// pooled copy.
func (d *dense) frame(g *Group, s *sched, k int) Frame {
	if k < 0 {
		return Frame{Data: d.buf}
	}
	if theirs := d.held[k]; theirs != nil {
		d.held[k] = nil
		if !s.writesBack(k) {
			d.deliver(&g.tree[s.children[k]], theirs, d.buf)
		}
		return Frame{Data: theirs}
	}
	return g.pooled(d.buf)
}

// adopt copies a pooled total into buf. A total that comes back by
// reference must be buf itself, which then holds the sum already: a
// member that receives its own memory copies nothing.
func (d *dense) adopt(_ *Group, s *sched, in Frame) {
	if len(in.Data) != len(d.buf) {
		panic(fmt.Sprintf("comm: tree broadcast length mismatch %d vs %d", len(in.Data), len(d.buf)))
	}
	if in.pb != nil {
		d.deliver(s, d.buf, in.Data)
	} else if &in.Data[0] != &d.buf[0] {
		panic("comm: tree broadcast by reference of memory that is not the receiver's buffer")
	}
}
