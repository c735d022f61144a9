package comm

import (
	"fmt"

	"sasgd/internal/parallel"
)

// The dense engine: one reduce/broadcast of the whole buffer over a
// binomial schedule (tree.go) — the up half folds every child's partial
// and hands the sum to the parent, the down half brings the root's
// total back — which is the paper's O(m log p) tree. "tree", the
// broadcast, the wire barrier, the bucketed worker's per-bucket
// collective and both levels of the hierarchy are this one engine with
// a different schedule, buffer and traffic label. The overlap the
// package offers comes from bucketing (bucketed.go), not from splitting
// a buffer inside one collective.
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
// its sched's held row and, on the way down, writes the sum into it and
// sends it back by reference; the child then copies nothing. At the root
// the last fold is that write-back. Only where the child's memory is not
// in hand — a partial that arrived in a pooled buffer — does down send a
// pooled copy. On a p = 2 channel group the collective copies nothing at
// all.
//
// Allocation discipline: every pooled copy is drawn from the group's
// buffer pool and released by its receiver (pool.go), and the reduction
// loop is a parallel.Body kept in the member's sched, so the dense
// collectives allocate nothing in steady state. Folds run through
// internal/parallel above reduceGrain, with per-element order unchanged
// from the serial loop, so results are bitwise independent of the
// worker budget.

// AllreduceTree sums buf elementwise across all learners using a binomial
// tree (reduce to rank 0, then broadcast), leaving the global sum in
// every learner's buf. The data volume per learner is O(m log p), the
// figure the paper contrasts with the parameter server's O(mp).
//
// On an all-local group the root's last fold runs on parallel.Workers()
// × p shards — its own kernel workers and those of the p−1 learners
// that, by then, have all sent up and are parked in down waiting for the
// sum. Only this learner-driven entry lends: the bucketed worker runs
// the engine while its learner may still be in backward.
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
	g.down(&g.tree[rank], buf, nil)
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
	g.up(s, buf, s.held, lend)
	g.down(s, buf, s.held)
}

// reduceGrain is the minimum number of elements per shard for the
// parallel reduction loops, matching the elementwise-kernel grain in
// internal/tensor: below it, dispatch overhead would dominate the ~1
// flop/element add.
const reduceGrain = 1 << 15

// fold is a member's reduction loop, dst += src, as a parallel.Body.
// With back set it also stores each sum into src: the root's last fold,
// whose sums are final, writing them into the child's own memory in the
// same pass. Either way an element is one addition, in the serial loop's
// order, and shards are disjoint index ranges, so the result is bitwise
// identical at every shard count. It lives in the member's sched, so
// handing it to the worker pool allocates nothing.
type fold struct {
	dst, src []float64
	back     bool
}

func (f *fold) Range(_, lo, hi int) {
	dst, src := f.dst[lo:hi], f.src[lo:hi]
	src = src[:len(dst)] // one length for both: no bounds checks in the loops
	if !f.back {
		for i := range dst {
			dst[i] += src[i]
		}
		return
	}
	for i := range dst {
		v := dst[i] + src[i]
		dst[i] = v
		src[i] = v
	}
}

// run folds src into dst on at most workers shards.
func (f *fold) run(dst, src []float64, back bool, workers int) {
	f.dst, f.src, f.back = dst, src, back
	parallel.ForWorkers(len(dst), reduceGrain, workers, f)
}

// up runs the reduce half: fold each child's partial into buf in
// schedule order (the summation order every pin rests on), then hand buf
// to the parent by reference.
//
// A partial that arrives by reference (Frame.pb nil: the channel
// fabric's hand-off) is the child's own buffer; it goes into held[k]
// for down to write the sum into, and at the root the last fold writes
// it there already. A partial in a pooled buffer is folded and released:
// that is every frame a wire transport delivers, so there the child's
// memory is not in hand. held nil keeps nothing (the wire barrier's up, which no
// down of its own follows). With lend the root's last fold runs on the
// parked members' workers too (AllreduceTree).
func (g *Group) up(s *sched, buf []float64, held [][]float64, lend bool) {
	for k, child := range s.children {
		in := g.recvMsg(s.rank, child)
		if len(in.Data) != len(buf) {
			panic(fmt.Sprintf("comm: tree reduce length mismatch %d vs %d", len(in.Data), len(buf)))
		}
		keep := held != nil && in.pb == nil
		workers := parallel.Workers()
		if lend && s.writesBack(k) {
			workers *= g.p
		}
		s.fold.run(buf, in.Data, keep && s.writesBack(k), workers)
		if keep {
			held[k] = in.Data
		} else {
			g.releaseMsg(in)
		}
	}
	if s.parent >= 0 {
		// The parent reads buf while folding it and may write the sum
		// into it; this member touches buf again only once down has
		// received it back.
		g.sendMsg(s.rank, s.parent, Frame{Data: buf})
	}
}

// down runs the broadcast of the root's buf. A child whose buffer up
// kept in held gets it back by reference holding the sum (the root's
// last child's already does: the fold wrote it); every other child gets
// a pooled copy it releases. A member that receives its own memory
// copies nothing.
func (g *Group) down(s *sched, buf []float64, held [][]float64) {
	if s.parent >= 0 {
		in := g.recvMsg(s.rank, s.parent)
		if len(in.Data) != len(buf) {
			panic(fmt.Sprintf("comm: tree broadcast length mismatch %d vs %d", len(in.Data), len(buf)))
		}
		if in.pb != nil {
			copy(buf, in.Data)
			g.releaseMsg(in)
		} else if &in.Data[0] != &buf[0] {
			panic("comm: tree broadcast by reference of memory that is not the receiver's buffer")
		}
	}
	for k := len(s.children) - 1; k >= 0; k-- {
		if held != nil && held[k] != nil {
			theirs := held[k]
			held[k] = nil
			if !s.writesBack(k) {
				copy(theirs, buf)
			}
			g.sendMsg(s.rank, s.children[k], Frame{Data: theirs})
			continue
		}
		pb := g.acquire(len(buf))
		copy(pb.data, buf)
		g.sendMsg(s.rank, s.children[k], Frame{Data: pb.data, pb: pb})
	}
}
