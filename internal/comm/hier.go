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
// Determinism: both sub-collectives are the dense engine of chunked.go
// run over a binomial schedule laid on a member list — an island's, or
// the leaders' — instead of on all ranks, so an island that happens to
// contain every rank replays the flat tree's message schedule and
// summation order exactly: hier with one island is bitwise-identical to
// the flat ptree/tree path, which the degenerate pin tests rely on.
type Hier struct {
	g        *Group
	islands  [][]int // island id → member ranks, ascending
	islandOf []int   // rank → island id
	leaders  []int   // island id → leader rank (lowest member)
	intra    []sched // rank → its place in its island's tree (rooted at the leader)
	inter    []sched // island id → its leader's place in the leaders' tree
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
	h := &Hier{g: g, islandOf: make([]int, p), intra: make([]sched, p)}
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
		h.islands[id] = append(h.islands[id], r)
	}
	for _, isl := range h.islands {
		for _, s := range newTree(isl) {
			h.intra[s.rank] = s
		}
	}
	h.inter = newTree(h.leaders)
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
// island only, leaving the island sum in each member's buf: the dense
// engine over the island's tree, charged to "hintra". entry is the
// simulated instant buf became ready (see AllreduceTreeChunkedFrom);
// chunkWords ≤ 0 selects DefaultChunkWords.
func (h *Hier) AllreduceIntra(rank int, buf []float64, chunkWords int, entry float64) {
	s := &h.intra[rank]
	if s.solitary() || len(buf) == 0 {
		return
	}
	h.g.setAlgo(rank, algoHIntra)
	h.g.allreduce(s, nil, buf, chunkWords, entry)
}

// AllreduceInter exchanges island aggregates across islands: the island
// leaders run the dense engine over the leaders' tree, and each chunk is
// fanned out down the island's own tree as soon as its leader holds the
// global value, pipelining the downlink behind the leader exchange.
// Every rank participates (non-leaders supply no data — the leaders'
// bufs are the contributions — and receive the global result into buf).
// All traffic of the phase, leader hops and island fan-out alike, is
// charged to "hinter"; the topology-exact split lives in
// Stats.CrossWords. No-op with fewer than two islands.
func (h *Hier) AllreduceInter(rank int, buf []float64, chunkWords int, entry float64) {
	if len(h.islands) < 2 || len(buf) == 0 {
		return
	}
	h.g.setAlgo(rank, algoHInter)
	s := &h.intra[rank]
	if s.parent < 0 {
		h.g.allreduce(&h.inter[h.islandOf[rank]], s, buf, chunkWords, entry)
		return
	}
	if chunkWords <= 0 {
		chunkWords = DefaultChunkWords
	}
	for lo := 0; lo < len(buf); lo += chunkWords {
		h.g.down(s, buf[lo:min(lo+chunkWords, len(buf))], 0)
	}
}
