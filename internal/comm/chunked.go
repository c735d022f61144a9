package comm

import (
	"fmt"

	"sasgd/internal/parallel"
)

// The dense engine: a chunked, pipelined reduce/broadcast over a binomial
// schedule (tree.go). The monolithic tree ships the whole m-word buffer
// through every tree level in one message, so each level's transfer
// strictly follows the previous one and the reduce and broadcast phases
// cannot overlap: 2·m·log p words of serialized wire time at the root.
// Splitting the buffer into fixed-size chunks and streaming them through
// the tree (Sergeev & Del Balso's Horovod does the same over NCCL rings)
// lets chunk c+1 climb the reduce tree while chunk c descends in
// broadcast, collapsing the critical path to roughly
// 2·(m + chunks·latency) — the hardware's pipe rate rather than the
// algorithm's depth. One chunk per buffer is the monolithic tree, so
// "tree", "ptree", the broadcast, the wire barrier and both levels of
// the hierarchy are this one engine with a different schedule, chunk
// size and traffic label.
//
// Every collective is executed by the members' cooperating goroutines
// over the group's transport. Each learner calls the method with its own
// rank; all learners must call the same collectives in the same order
// (bulk-synchronous discipline), which is exactly how Algorithm 1 in the
// paper uses them.
//
// Allocation discipline: every wire copy is drawn from the group's
// buffer pool and released by its receiver (pool.go), so the dense
// collectives allocate nothing in steady state; reduction loops run
// through internal/parallel above reduceGrain, with per-element order
// unchanged from the serial loop, so results are bitwise independent of
// the worker budget.

// DefaultChunkWords is the chunk size (float64 words) the pipelined
// collectives use when a caller passes a non-positive chunk: 8192 words =
// 64 KiB, large enough that per-chunk latency is amortized, small enough
// that paper-scale models (≈0.5–2M params) split into dozens of pipeline
// stages.
const DefaultChunkWords = 8192

// AllreduceTree sums buf elementwise across all learners using a binomial
// tree (reduce to rank 0, then broadcast), leaving the global sum in
// every learner's buf. The data volume per learner is O(m log p), the
// figure the paper contrasts with the parameter server's O(mp). It is
// the single-chunk case of the chunked pipelined tree, so the message
// sequence and summation order are exactly the textbook algorithm's.
func (g *Group) AllreduceTree(rank int, buf []float64) {
	g.checkRank(rank)
	g.setAlgo(rank, algoTree)
	g.allreduce(&g.tree[rank], nil, buf, len(buf), g.Clock(rank).Now())
}

// AllreduceTreeChunked sums buf elementwise across all learners with a
// chunked, pipelined binomial tree, leaving the global sum in every
// learner's buf. buf is split into ⌈m/chunkWords⌉ chunks; each chunk is
// reduced to rank 0 and broadcast back exactly as AllreduceTree would
// reduce the whole buffer, so the per-element summation order — and
// therefore the result, bit for bit — is identical to the monolithic
// tree at every chunk size.
//
// Pipelining: each learner runs its reduce stream up to PipelineDepth
// chunks ahead of its broadcast stream, so while chunk c's broadcast
// descends the tree, chunks c+1 … c+PipelineDepth's partial sums are
// already climbing it. Sends are asynchronous up to the mailbox capacity
// (sized from PipelineDepth — see mailboxCap for the deadlock-freedom
// argument); reduce hand-offs are zero-copy subslices of buf (the parent
// consumes chunk c before it forwards broadcast chunk c, so the child
// cannot observe its segment being read while overwriting it), and
// broadcast copies come from the group's pool, so the steady-state
// allocation count is zero.
//
// chunkWords ≤ 0 selects DefaultChunkWords.
func (g *Group) AllreduceTreeChunked(rank int, buf []float64, chunkWords int) {
	// The learner's simulated time when the collective starts is the
	// moment every chunk's local contribution exists.
	g.AllreduceTreeChunkedFrom(rank, buf, chunkWords, g.Clock(rank).Now())
}

// AllreduceTreeChunkedFrom is AllreduceTreeChunked with an explicit data
// entry time: the simulated instant buf's contents became ready at this
// learner. The bucketed, backward-overlapped aggregation passes the
// *layer's* backward-completion time here — which can be well before the
// learner's scalar clock (already advanced to the end of the minibatch) —
// so a late layer's bucket departs on the simulated fabric while the
// early layers are still backpropagating. Values are unaffected; entry
// only stamps the wire schedule (ignored entirely without a simulation).
func (g *Group) AllreduceTreeChunkedFrom(rank int, buf []float64, chunkWords int, entry float64) {
	g.checkRank(rank)
	g.setAlgo(rank, algoPTree)
	g.allreduce(&g.tree[rank], nil, buf, chunkWords, entry)
}

// BroadcastTree distributes rank 0's buf to every learner using a
// binomial tree: the engine's broadcast half over the whole buffer. On
// return every learner's buf holds root's data.
func (g *Group) BroadcastTree(rank int, buf []float64) {
	g.checkRank(rank)
	g.setAlgo(rank, algoBcast)
	g.down(&g.tree[rank], buf, g.Clock(rank).Now())
}

// allreduce sums buf across the members of s's tree, chunk by chunk, and
// leaves the sum in every member's buf. The caller has set the rank's
// traffic label, so the accounting names the collective the user asked
// for rather than the engine it runs on. With fan non-nil — a tree this
// member roots — each chunk is also sent down fan as soon as this
// member holds its sum, so that fan-out overlaps the exchange of the
// chunks behind it (the hierarchy's leaders, hier.go).
func (g *Group) allreduce(s, fan *sched, buf []float64, chunkWords int, entry float64) {
	if s.solitary() || len(buf) == 0 {
		return
	}
	if chunkWords <= 0 {
		chunkWords = DefaultChunkWords
	}
	nchunks := (len(buf) + chunkWords - 1) / chunkWords
	// Each chunk's sends are stamped with the chunk's own causal ready
	// time — entry joined with the arrivals of that chunk's inputs —
	// rather than the learner's scalar clock, which the interleaved loop
	// keeps Synced to *later* chunks' arrivals and would otherwise
	// serialize the two streams (see sendMsgAt). ready ring-buffers the
	// reduce-ready times of the at most PipelineDepth chunks in flight
	// between the two streams.
	var ready [PipelineDepth + 1]float64
	reduced := 0
	for c := 0; c < nchunks; c++ {
		for reduced < nchunks && reduced < c+PipelineDepth {
			ready[reduced%(PipelineDepth+1)] = g.up(s, chunkSeg(buf, reduced, chunkWords), entry)
			reduced++
		}
		seg := chunkSeg(buf, c, chunkWords)
		r := g.down(s, seg, ready[c%(PipelineDepth+1)])
		if fan != nil {
			g.down(fan, seg, r)
		}
	}
}

// reduceGrain is the minimum number of elements per shard for the
// parallel reduction loops, matching the elementwise-kernel grain in
// internal/tensor: below it, dispatch overhead would dominate the ~1
// flop/element add.
const reduceGrain = 1 << 15

// addInto accumulates src into dst elementwise. Shards write disjoint
// ranges and each element keeps its serial accumulation order, so the
// result is bitwise identical at every worker count. The serial case is
// branched in the caller (parallel.Shards) so the closure only
// materializes — and only then allocates — when the loop actually
// shards, keeping single-worker steady state at zero allocs/op.
func addInto(dst, src []float64) {
	if parallel.Shards(len(dst), reduceGrain) <= 1 {
		for i := range dst {
			dst[i] += src[i]
		}
		return
	}
	parallel.For(len(dst), reduceGrain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			dst[i] += src[i]
		}
	})
}

// chunkSeg returns chunk c of buf at the given chunk size (the final
// chunk may be short).
func chunkSeg(buf []float64, c, chunkWords int) []float64 {
	lo := c * chunkWords
	hi := lo + chunkWords
	if hi > len(buf) {
		hi = len(buf)
	}
	return buf[lo:hi]
}

// up runs one segment of the reduce: fold each child's partial into seg
// in schedule order (the summation order every pin rests on), then hand
// seg to the parent. It returns the segment's causal ready time — entry
// joined with the arrivals of every partial folded in — which stamps the
// upward send and, at the root, gates the segment's broadcast.
func (g *Group) up(s *sched, seg []float64, entry float64) float64 {
	ready := entry
	for _, child := range s.children {
		in := g.recvMsg(s.rank, child)
		if len(in.Data) != len(seg) {
			panic(fmt.Sprintf("comm: tree reduce length mismatch %d vs %d", len(in.Data), len(seg)))
		}
		if in.Arrive > ready {
			ready = in.Arrive
		}
		addInto(seg, in.Data)
		g.releaseMsg(in)
	}
	if s.parent >= 0 {
		// Zero-copy hand-off: the parent reads seg while reducing it and
		// does so before it forwards the segment's broadcast, which is
		// what gates this member's next write to seg.
		g.sendMsgAt(s.rank, s.parent, Frame{Data: seg}, ready)
	}
	return ready
}

// down runs one segment of the broadcast of the root's seg, with pooled
// transfer copies (the receiver owns the payload and returns it to the
// pool once consumed). ready is the segment's causal time at this
// member — the root passes the time its seg became final, everyone else
// joins in the parent's arrival before forwarding — and is returned, so
// a fused fan-out can continue from it.
func (g *Group) down(s *sched, seg []float64, ready float64) float64 {
	if s.parent >= 0 {
		in := g.recvMsg(s.rank, s.parent)
		if len(in.Data) != len(seg) {
			panic(fmt.Sprintf("comm: tree broadcast length mismatch %d vs %d", len(in.Data), len(seg)))
		}
		if in.Arrive > ready {
			ready = in.Arrive
		}
		copy(seg, in.Data)
		g.releaseMsg(in)
	}
	for i := len(s.children) - 1; i >= 0; i-- {
		pb := g.acquire(len(seg))
		copy(pb.data, seg)
		g.sendMsgAt(s.rank, s.children[i], Frame{Data: pb.data, pb: pb}, ready)
	}
	return ready
}
