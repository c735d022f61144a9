package comm

import "fmt"

// Two-level hierarchical collectives. Real training fabrics are not
// flat: leaves hang off first-level switches (NVLink islands, PCIe
// switch pairs, racks) whose uplinks toward the spine are shared and
// narrower. A Hier partitions a Group's ranks into islands matching
// that topology and runs two sub-collectives on the SAME group — an
// intra-island allreduce over each island's members, and an
// inter-island exchange in which island leaders tree-allreduce and then
// fan the result back out inside their islands. The SASGD scheduler
// runs the cheap intra collective at every communication boundary and
// the cross-island exchange only every T_outer boundaries, so the
// narrow uplinks carry 1/T_outer of the traffic a flat schedule would
// push through them.
//
// Running on the owning Group (subset schedules, not sub-Groups) keeps
// every property of the fabric intact: pooled zero-alloc transfer
// buffers, per-directed-link serialization in the time simulation,
// traffic accounting, and — critically — the fault-injection link
// daemons, which are keyed by the group's rank space.
//
// Determinism: both sub-collectives are the chunked, pipelined binomial
// tree of chunked.go driven by *relative* member indices, so an island
// that happens to contain every rank replays the flat tree's message
// schedule and summation order exactly — hier with one island is
// bitwise-identical to the flat ptree/tree path, which the degenerate
// pin tests rely on. (RHD's pairwise exchange cannot run on arbitrary
// subset sizes, so hierarchical runs lower rhd to the tree order — the
// same documented fallback RHD itself takes for non-power-of-two
// groups.)
type Hier struct {
	g        *Group
	islands  [][]int // island id → member ranks, ascending
	islandOf []int   // rank → island id
	member   []int   // rank → index within its island's member list
	leaders  []int   // island id → leader rank (lowest member)
}

// BlockIslands maps ranks 0..p-1 onto contiguous islands of ⌈p/groups⌉
// ranks each (the last island may be short). With groups = p/IslandSize
// this reproduces netsim's Sim.IslandOf exactly, aligning the
// hierarchy with the simulated switch fabric.
func BlockIslands(p, groups int) []int {
	if groups < 1 {
		groups = 1
	}
	if groups > p {
		groups = p
	}
	q := (p + groups - 1) / groups
	islandOf := make([]int, p)
	for r := range islandOf {
		islandOf[r] = r / q
	}
	return islandOf
}

// NewHier partitions the group into `groups` contiguous islands (see
// BlockIslands) and returns the hierarchical collective schedule.
func NewHier(g *Group, groups int) *Hier {
	return NewHierOf(g, BlockIslands(g.Size(), groups))
}

// NewHierOf builds the hierarchy from an explicit rank→island map —
// core's boundary engine uses this to partition a view (the initial
// one, or a survivor group after an eviction) by the members' original
// physical islands. Island ids are
// normalized by first appearance, so gaps left by emptied islands are
// fine; each island's leader is its lowest rank. The map is also
// installed as the group's island view for cross-island traffic
// accounting (SetIslands).
func NewHierOf(g *Group, islandOf []int) *Hier {
	p := g.Size()
	if len(islandOf) != p {
		panic(fmt.Sprintf("comm: NewHierOf: map covers %d ranks, group has %d", len(islandOf), p))
	}
	h := &Hier{g: g, islandOf: make([]int, p), member: make([]int, p)}
	remap := make(map[int]int, 8)
	for r, raw := range islandOf {
		id, ok := remap[raw]
		if !ok {
			id = len(h.islands)
			remap[raw] = id
			h.islands = append(h.islands, nil)
			h.leaders = append(h.leaders, r)
		}
		h.islandOf[r] = id
		h.member[r] = len(h.islands[id])
		h.islands[id] = append(h.islands[id], r)
	}
	g.SetIslands(h.islandOf)
	return h
}

// Islands returns the number of (non-empty) islands.
func (h *Hier) Islands() int { return len(h.islands) }

// IslandOf returns rank's island id.
func (h *Hier) IslandOf(rank int) int { return h.islandOf[rank] }

// IslandSize returns the member count of rank's island.
func (h *Hier) IslandSize(rank int) int { return len(h.islands[h.islandOf[rank]]) }

// IsLeader reports whether rank is its island's leader.
func (h *Hier) IsLeader(rank int) bool { return h.leaders[h.islandOf[rank]] == rank }

// AllreduceIntra sums buf elementwise across the members of rank's
// island only, leaving the island sum in each member's buf. The wire
// schedule is the chunked pipelined binomial tree over the island's
// member list; traffic is charged to "hintra". entry is the simulated
// instant buf became ready (see AllreduceTreeChunkedFrom); chunkWords
// ≤ 0 selects DefaultChunk.
func (h *Hier) AllreduceIntra(rank int, buf []float64, chunkWords int, entry float64) {
	isl := h.islands[h.islandOf[rank]]
	if len(isl) == 1 || len(buf) == 0 {
		return
	}
	h.g.setAlgo(rank, algoHIntra)
	h.allreduceSub(isl, h.member[rank], buf, chunkWords, entry, nil)
}

// AllreduceInter exchanges island aggregates across islands: the island
// leaders run a chunked tree allreduce of buf among themselves, and
// each chunk is fanned out inside every island as soon as its leader
// holds the global value, pipelining the downlink behind the leader
// exchange. Every rank participates (non-leaders supply no data — the
// leaders' bufs are the contributions — and receive the global result
// into buf). All traffic of the phase, leader hops and island fan-out
// alike, is charged to "hinter"; the topology-exact split lives in
// Stats.CrossWords. No-op with fewer than two islands.
func (h *Hier) AllreduceInter(rank int, buf []float64, chunkWords int, entry float64) {
	if len(h.islands) < 2 || len(buf) == 0 {
		return
	}
	if chunkWords <= 0 {
		chunkWords = DefaultChunk()
	}
	h.g.setAlgo(rank, algoHInter)
	id := h.islandOf[rank]
	isl := h.islands[id]
	if h.leaders[id] == rank {
		down := isl
		if len(isl) == 1 {
			down = nil
		}
		h.allreduceSub(h.leaders, id, buf, chunkWords, entry, down)
		return
	}
	nchunks := (len(buf) + chunkWords - 1) / chunkWords
	for c := 0; c < nchunks; c++ {
		h.broadcastChunkSub(isl, h.member[rank], buf, c, chunkWords, 0)
	}
}

// allreduceSub is allreduceTreeChunkedFrom over an explicit member
// list, driven by this rank's relative index ri. When down is non-nil
// (the inter phase's leaders), each chunk is additionally broadcast
// over the down list — rooted at this rank, which must be down[0] —
// with the chunk's causal ready time, so the island fan-out of chunk c
// overlaps the leader exchange of chunk c+1.
func (h *Hier) allreduceSub(members []int, ri int, buf []float64, chunkWords int, entry float64, down []int) {
	if len(members) == 1 && down == nil {
		return
	}
	if chunkWords <= 0 {
		chunkWords = DefaultChunk()
	}
	nchunks := (len(buf) + chunkWords - 1) / chunkWords
	var ready [PipelineDepth + 1]float64
	reduced := 0
	for c := 0; c < nchunks; c++ {
		for reduced < nchunks && reduced < c+PipelineDepth {
			ready[reduced%(PipelineDepth+1)] = h.reduceChunkSub(members, ri, buf, reduced, chunkWords, entry)
			reduced++
		}
		r := h.broadcastChunkSub(members, ri, buf, c, chunkWords, ready[c%(PipelineDepth+1)])
		if down != nil {
			h.broadcastChunkSub(down, 0, buf, c, chunkWords, r)
		}
	}
}

// reduceChunkSub is reduceChunk with relative member indexing: the
// binomial schedule runs over positions in the member list, peers are
// looked up through it, and the summation order per element is exactly
// the flat tree's at the same member count.
func (h *Hier) reduceChunkSub(members []int, ri int, buf []float64, c, chunkWords int, entry float64) float64 {
	g := h.g
	seg := chunkSeg(buf, c, chunkWords)
	ready := entry
	q := len(members)
	for step := 1; step < q; step <<= 1 {
		if ri%(2*step) != 0 {
			g.sendMsgAt(members[ri], members[ri-step], Frame{Data: seg}, ready)
			return ready
		}
		if peer := ri + step; peer < q {
			in := g.recvMsg(members[ri], members[peer])
			if len(in.Data) != len(seg) {
				panic(fmt.Sprintf("comm: hier reduce length mismatch %d vs %d", len(in.Data), len(seg)))
			}
			if in.Arrive > ready {
				ready = in.Arrive
			}
			addInto(seg, in.Data)
			g.releaseMsg(in)
		}
	}
	return ready
}

// broadcastChunkSub is broadcastChunk with relative member indexing,
// rooted at members[0]. It returns this rank's causal time for the
// chunk — the input ready at the root, the parent's arrival elsewhere —
// which the fused inter-phase fan-out uses to seed the island
// broadcast.
func (h *Hier) broadcastChunkSub(members []int, ri int, buf []float64, c, chunkWords int, ready float64) float64 {
	g := h.g
	seg := chunkSeg(buf, c, chunkWords)
	q := len(members)
	top := 1
	for top < q {
		top <<= 1
	}
	for step := top >> 1; step >= 1; step >>= 1 {
		switch {
		case ri%(2*step) == 0:
			if peer := ri + step; peer < q {
				pb := g.acquire(len(seg))
				copy(pb.data, seg)
				g.sendMsgAt(members[ri], members[peer], Frame{Data: pb.data, pb: pb}, ready)
			}
		case ri%(2*step) == step:
			in := g.recvMsg(members[ri], members[ri-step])
			if len(in.Data) != len(seg) {
				panic(fmt.Sprintf("comm: hier broadcast length mismatch %d vs %d", len(in.Data), len(seg)))
			}
			ready = in.Arrive
			copy(seg, in.Data)
			g.releaseMsg(in)
		}
	}
	return ready
}
