package comm

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"sasgd/internal/obs"
)

// mailboxCap is the minimum per-directed-link buffering every
// transport must provide (the channel fabric's per-(sender, receiver)
// channel capacity, the TCP backend's per-link inbox capacity).
//
// Deadlock-freedom argument: every collective is a fixed schedule of
// sends and receives that both endpoints of a pair walk in the same
// per-pair order (bulk-synchronous discipline), so a receive can only
// wait for a send that its peer has not issued yet, and the dependency
// graph of receives follows the collectives' dataflow — collective
// order major, tree level minor — which is acyclic. Sends therefore only
// block when a mailbox is full. Every collective keeps at most two
// messages in flight per pair (a child's partial up, the sum back down,
// or a wire's top edge's two partials, sent before either end receives:
// a TCP Send never waits on the peer's learner, whose reader drains the
// socket into the inbox), so with this capacity sends never block,
// leaving only the acyclic receive dependencies — no cycle, no deadlock.
const mailboxCap = 10

// Group is a fixed set of p learners that communicate through a
// Transport — the in-process channel fabric, or TCP — giving MPI-like
// ordered point-to-point semantics on which the collectives are built.
// A Group with clocks runs over its transport decorated with simulated
// time (sim.go) and carries no time itself.
type Group struct {
	p  int
	tr Transport
	// tree[rank] is rank's place in the binomial tree over all p ranks:
	// the schedule of every flat collective (tree.go).
	tree []sched
	// trMap maps the group's virtual ranks to transport ranks (nil =
	// identity): a group over some of the transport's ranks addresses
	// them through it.
	trMap []int
	// allLocal is true when every transport rank is driven by this
	// process; epoch barriers then use the in-process barrier (which
	// also aligns simulated clocks). A multi-process group synchronizes
	// with a 1-word wire barrier over the transport instead.
	allLocal bool
	// exchange: frames arrive as pooled copies and Send is done with the
	// payload on return (TCP, unsimulated), so the top edge swaps partials.
	exchange bool
	sim      *simTransport // tr, when decorated with simulated time
	bar      *Barrier
	pool     *bufPool // payload recycling, shared with the transport when it owns one

	// stats holds the per-rank traffic/timing counters behind Stats()
	// — see stats.go for the accounting rules.
	stats []rankStats

	// islandOf optionally maps each rank to an interconnect island so
	// charge can account cross-island traffic. Published atomically
	// (SetIslands, stats.go) because hierarchy construction — per rank at
	// spawn — installs the map while peers are already sending.
	islandOf atomic.Pointer[[]int]

	// tracer is the optional obs tracer (SetTracer); traceOn caches its
	// presence so untraced receives skip the clock reads entirely.
	tracer  *obs.Tracer
	traceOn bool
}

// NewGroup returns a group of p learners with no time simulation.
func NewGroup(p int) *Group { return NewSimGroup(p, nil, nil) }

// NewSimGroup returns a group of p learners over a fresh in-process
// channel fabric, with communication charged to the given clocks using
// the given cost model. clocks may be nil (no simulation); if non-nil
// it must have length p, and a nil cost makes transfers free.
func NewSimGroup(p int, clocks []Clock, cost CostModel) *Group {
	if p <= 0 {
		panic(fmt.Sprintf("comm: NewGroup(%d): group size must be positive", p))
	}
	return NewTransportGroup(newChanTransport(p), nil, clocks, cost)
}

// NewTransportGroup builds a group over an existing transport. phys
// maps the group's virtual ranks to transport ranks: nil means
// identity (group size = tr.Size()); otherwise the group has len(phys)
// learners addressing the listed transport ranks. The transport may be
// shared across groups — the caller must ensure only one group drives a
// given transport rank at a time. With clocks (nil = unsimulated) the
// group runs over tr decorated with simulated time, which needs every
// rank in this process.
func NewTransportGroup(tr Transport, phys []int, clocks []Clock, cost CostModel) *Group {
	p := tr.Size()
	if phys != nil {
		p = len(phys)
		for _, r := range phys {
			checkTransportRank(tr, r)
		}
	}
	if p <= 0 {
		panic(fmt.Sprintf("comm: NewTransportGroup(%d): group size must be positive", p))
	}
	if clocks != nil && len(clocks) != p {
		panic(fmt.Sprintf("comm: NewTransportGroup got %d clocks for %d learners", len(clocks), p))
	}
	ranks := make([]int, p)
	for r := range ranks {
		ranks[r] = r
	}
	if clocks != nil {
		tr = newSimTransport(tr, phys, clocks, cost)
	}
	g := &Group{p: p, tr: tr, tree: newTree(ranks), trMap: phys,
		bar: NewBarrier(p), stats: make([]rankStats, p)}
	base := tr
	if s, ok := tr.(*simTransport); ok {
		g.sim, base = s, s.Transport
	}
	g.allLocal = isAllLocal(base)
	if pt, ok := base.(pooledTransport); ok {
		g.pool, g.exchange = pt.bufferPool(), g.sim == nil
	} else {
		g.pool = new(bufPool)
	}
	return g
}

// trRank maps a virtual rank of this group to its transport rank.
func (g *Group) trRank(v int) int { return rankIn(g.trMap, v) }

// rankIn is v's entry in the rank map m (nil = identity).
func rankIn(m []int, v int) int {
	if m == nil {
		return v
	}
	return m[v]
}

// Size returns the number of learners in the group.
func (g *Group) Size() int { return g.p }

// Send transfers data from learner `from` to learner `to`. The slice is
// handed off, not copied: the sender must not reuse it until the receiver
// is done (the collectives draw transfer copies from the group's pool
// where needed). Traffic is charged to the "p2p" bucket; the collectives
// use the internal sends so their own labels stick.
func (g *Group) Send(from, to int, data []float64) {
	g.setAlgo(from, algoP2P)
	g.sendMsg(from, to, Frame{Data: data})
}

// sendMsg is the internal send. m.pb marks pool-owned payloads the
// receiver must release. Running the accounting above the transport is
// what makes every backend carry identical Stats.
func (g *Group) sendMsg(from, to int, m Frame) {
	g.checkRank(from)
	g.checkRank(to)
	g.charge(from, to, len(m.Data))
	g.tr.Send(g.trRank(from), g.trRank(to), m)
}

// Close closes the group's transport (idempotent on every backend, so
// groups sharing a transport may each close it) and breaks its barrier.
// Safe to call concurrently with in-flight sends, which are dropped, and
// with members parked in a receive or the barrier, which panic with
// ErrClosed: call after all collectives have completed, or to unwind a
// run that cannot finish.
func (g *Group) Close() {
	g.tr.Close()
	g.bar.Break()
}

// Recv blocks until a message from learner `from` arrives at learner
// `to` and returns the payload (on a simulated group, to's clock has
// been synced to its arrival).
func (g *Group) Recv(to, from int) []float64 {
	return g.recvMsg(to, from).Data
}

// recvMsg is the internal receive; collectives use it to get the pool
// ownership marker alongside the payload. With a tracer attached the
// blocking time is accumulated into the receiving rank's mailbox-wait
// counter; untraced groups skip the clock reads.
func (g *Group) recvMsg(to, from int) Frame {
	g.checkRank(from)
	g.checkRank(to)
	if !g.traceOn {
		return g.tr.Recv(g.trRank(to), g.trRank(from))
	}
	t0 := time.Now()
	m := g.tr.Recv(g.trRank(to), g.trRank(from))
	g.stats[to].mailboxWaitNs.Add(time.Since(t0).Nanoseconds())
	return m
}

func (g *Group) checkRank(r int) {
	if r < 0 || r >= g.p {
		panic(fmt.Sprintf("comm: rank %d out of range [0,%d)", r, g.p))
	}
}

// Barrier blocks until all p learners have called it. When the group is
// simulated, all clocks are synchronized to the latest one, matching
// bulk-synchronous semantics. On a multi-process transport the barrier
// runs over the wire instead (no shared memory to park on).
func (g *Group) Barrier(rank int) {
	g.checkRank(rank)
	switch {
	case !g.allLocal:
		g.wireBarrier(rank)
	case g.sim != nil:
		g.sim.align(g.trRank(rank), g.bar)
	default:
		g.bar.Wait()
	}
}

// wireBarrier synchronizes the group through the transport itself — a
// 1-word reduce to rank 0 followed by a broadcast — for multi-process
// groups, where no in-process barrier can exist. The 2(p−1) words it
// moves are charged to the tree/bcast buckets like any other
// collective (all-local groups, including TCP loopback, use the
// in-process barrier, so their traffic pins match the channel fabric
// exactly).
func (g *Group) wireBarrier(rank int) {
	pb := g.acquire(1)
	pb.data[0] = 0
	g.setAlgo(rank, algoTree)
	s := &g.tree[rank]
	g.up(s, s.sum(pb.data, false))
	g.BroadcastTree(rank, pb.data)
	g.pool.release(pb)
}

// Barrier is a reusable p-party synchronization point that additionally
// computes the maximum of the values its waiters contribute (used to
// align simulated clocks).
type Barrier struct {
	mu      sync.Mutex
	cond    *sync.Cond
	n       int
	waiting int
	phase   int
	maxVal  float64
	outVal  float64
	broken  bool
}

// NewBarrier returns a reusable barrier for n parties.
func NewBarrier(n int) *Barrier {
	if n <= 0 {
		panic(fmt.Sprintf("comm: NewBarrier(%d): party count must be positive", n))
	}
	b := &Barrier{n: n}
	b.cond = sync.NewCond(&b.mu)
	return b
}

// Wait blocks until all n parties have called Wait.
func (b *Barrier) Wait() { b.WaitMax(0) }

// WaitMax blocks until all n parties have called WaitMax and returns the
// maximum value contributed across them. On a broken barrier it panics
// with ErrClosed.
func (b *Barrier) WaitMax(v float64) float64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.broken {
		panic(ErrClosed)
	}
	if v > b.maxVal {
		b.maxVal = v
	}
	b.waiting++
	if b.waiting == b.n {
		b.outVal = b.maxVal
		b.maxVal = 0
		b.waiting = 0
		b.phase++
		b.cond.Broadcast()
		return b.outVal
	}
	phase := b.phase
	for phase == b.phase && !b.broken {
		b.cond.Wait()
	}
	if phase == b.phase {
		panic(ErrClosed)
	}
	return b.outVal
}

// Break releases every party parked in the barrier, and every later
// caller, with an ErrClosed panic.
func (b *Barrier) Break() {
	b.mu.Lock()
	b.broken = true
	b.mu.Unlock()
	b.cond.Broadcast()
}
