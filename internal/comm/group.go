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
// channel capacity, the TCP backend's per-link inbox capacity); the
// fault route sizes its per-link queues and ack channels from it too.
//
// Deadlock-freedom argument: every collective is a fixed schedule of
// sends and receives that both endpoints of a pair walk in the same
// per-pair order (bulk-synchronous discipline), so a receive can only
// wait for a send that its peer has not issued yet, and the dependency
// graph of receives follows the collectives' dataflow — collective
// order major, tree level minor — which is acyclic. Sends therefore only
// block when a mailbox is full. Every collective keeps at most two
// messages in flight per pair (a child's partial up, the sum back down),
// so with this capacity sends never block, leaving only the acyclic
// receive dependencies — no cycle, no deadlock.
const mailboxCap = 10

// Group is a fixed set of p learners that communicate through a
// Transport — by default a matrix of buffered per-(sender, receiver)
// channels — giving MPI-like ordered point-to-point semantics on which
// the collectives are built.
//
// A Group may be constructed with per-learner simulated clocks and a
// fabric cost model; every send then stamps its message with an arrival
// time and every receive synchronizes the receiver's clock, so collective
// completion times fall out of the actual message schedule rather than a
// closed-form estimate. Successive transfers on the same directed pair
// are serialized on the simulated link (a message cannot depart before
// the previous one has drained), which is what makes overlapped bucket
// transfers show their real cost instead of a fictitious p-fold
// bandwidth.
type Group struct {
	p  int
	tr Transport
	// tree[rank] is rank's place in the binomial tree over all p ranks:
	// the schedule of every flat collective (tree.go).
	tree []sched
	// trMap maps the group's virtual ranks to transport ranks (nil =
	// identity). Re-formed survivor groups address the original
	// transport's physical rank space through it.
	trMap []int
	// allLocal is true when every transport rank is driven by this
	// process; epoch barriers then use the in-process barrier (which
	// also aligns simulated clocks). A multi-process group synchronizes
	// with a 1-word wire barrier over the transport instead.
	allLocal bool
	clocks   []Clock
	cost     CostModel
	bar      *Barrier
	pool     *bufPool // payload recycling, shared with the transport when it owns one

	// done is closed by Close: it unblocks link daemons (including their
	// ack waits) and fault-path sends still queueing behind them, making
	// Close safe against in-flight traffic. closed makes Close
	// idempotent under concurrent calls.
	done   chan struct{}
	closed atomic.Bool

	// linkFree[from][to] is the simulated time at which the directed
	// (from → to) link finishes its last accepted transfer; nil when the
	// group is unsimulated. Each row is written only by the goroutine
	// driving rank `from`, so no locking is needed.
	linkFree [][]float64

	// stats holds the per-rank traffic/timing counters behind Stats()
	// and WordsSent() — see stats.go for the accounting rules.
	stats []rankStats

	// islandOf optionally maps each rank to an interconnect island so
	// deliver can account cross-island traffic. Published atomically
	// (SetIslands, stats.go) because hierarchy construction — per-rank at
	// spawn, and per-survivor on a fault re-form — installs the map while
	// peers are already sending.
	islandOf atomic.Pointer[[]int]

	// sinks[rank], when non-nil, captures rank's receive-side clock
	// syncs instead of applying them (see DeferSync). Allocated eagerly
	// so setSink involves no shared-slice allocation; each cell is
	// written only by the goroutine currently driving that rank.
	sinks []*DeferSync

	// tracer is the optional obs tracer (SetTracer); traceOn caches its
	// presence so untraced receives skip the clock reads entirely.
	tracer  *obs.Tracer
	traceOn bool

	// Fault-injection state (nil/false without an attached FaultPlan).
	// fab is the shared fabric — sequence counters, ack channels, fault
	// counters — which outlives this group when the membership layer
	// re-forms smaller groups; phys maps the group's virtual ranks to the
	// fabric's physical ranks (nil = identity). faultRoute is true when
	// the plan actually perturbs the data plane, in which case every
	// point-to-point transfer runs through a per-directed-link daemon
	// doing acknowledged stop-and-wait delivery. The daemon for a link is
	// then the sole writer of that link's linkFree cell, preserving the
	// single-writer invariant the unfaulted path relies on.
	fab        *faultFabric
	phys       []int
	faultRoute bool
	dMu        sync.Mutex
	daemons    map[int]*linkDaemon
}

// NewGroup returns a group of p learners with no time simulation.
func NewGroup(p int) *Group { return NewSimGroup(p, nil, nil) }

// NewSimGroup returns a group of p learners over a fresh in-process
// channel fabric, with communication charged to the given clocks using
// the given cost model. clocks may be nil (no simulation); if non-nil
// it must have length p.
func NewSimGroup(p int, clocks []Clock, cost CostModel) *Group {
	if p <= 0 {
		panic(fmt.Sprintf("comm: NewGroup(%d): group size must be positive", p))
	}
	return NewTransportGroup(newChanTransport(p), nil, clocks, cost)
}

// NewTransportGroup builds a group over an existing transport. phys
// maps the group's virtual ranks to transport ranks: nil means
// identity (group size = tr.Size()); otherwise the group has len(phys)
// learners addressing the listed transport ranks, which is how
// re-formed survivor groups keep speaking over the original wire mesh.
// The transport may be shared across groups — the caller must ensure
// only one group drives a given transport rank at a time (membership
// re-forms are synchronization points, so this holds by construction
// there). clocks may be nil; simulation requires every transport rank
// local to this process.
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
	g := &Group{p: p, tr: tr, tree: newTree(ranks), trMap: phys, clocks: clocks, cost: cost,
		bar: NewBarrier(p), done: make(chan struct{}),
		stats: make([]rankStats, p), sinks: make([]*DeferSync, p)}
	if lt, ok := tr.(allLocalTransport); ok {
		g.allLocal = lt.AllLocal()
	}
	if clocks != nil && !g.allLocal {
		panic("comm: simulated clocks require an all-local transport")
	}
	if pt, ok := tr.(pooledTransport); ok {
		g.pool = pt.bufferPool()
	} else {
		g.pool = new(bufPool)
	}
	if clocks != nil && cost != nil {
		g.linkFree = make([][]float64, p)
		for from := range g.linkFree {
			g.linkFree[from] = make([]float64, p)
		}
	}
	return g
}

// Transport returns the transport the group is built over.
func (g *Group) Transport() Transport { return g.tr }

// trRank maps a virtual rank of this group to its transport rank.
func (g *Group) trRank(v int) int {
	if g.trMap == nil {
		return v
	}
	return g.trMap[v]
}

// Size returns the number of learners in the group.
func (g *Group) Size() int { return g.p }

// Clock returns learner rank's simulated clock (a no-op clock when the
// group was built without simulation).
func (g *Group) Clock(rank int) Clock {
	if g.clocks == nil {
		return nullClock{}
	}
	return g.clocks[rank]
}

// Send transfers data from learner `from` to learner `to`. The slice is
// handed off, not copied: the sender must not reuse it until the receiver
// is done (the collectives draw transfer copies from the group's pool
// where needed). Traffic is charged to the "p2p" bucket; the collectives
// use the internal sends so their own labels stick.
func (g *Group) Send(from, to int, data []float64) {
	g.setAlgo(from, algoP2P)
	g.sendMsg(from, to, Frame{Data: data})
}

// sendMsg is the internal send: the payload is ready at the sender's
// current simulated time. m.pb marks pool-owned payloads the receiver
// must release.
func (g *Group) sendMsg(from, to int, m Frame) {
	ready := 0.0
	if g.linkFree != nil {
		ready = g.clocks[from].Now()
	}
	g.sendMsgAt(from, to, m, ready)
}

// sendMsgAt is sendMsg with an explicit data-ready time: the simulated
// instant the payload's value dependencies were satisfied. The dense
// engine passes the causal time of the buffer (entry joined with its
// inputs' arrivals) rather than the rank's scalar clock, because the
// bucketed worker's entry stamp — a layer's backward-completion time —
// precedes the learner's clock, which has already advanced to the end of
// the minibatch. The transfer departs once the data is ready and the
// directed link has drained its previous message.
func (g *Group) sendMsgAt(from, to int, m Frame, ready float64) {
	g.checkRank(from)
	g.checkRank(to)
	if g.faultRoute && from != to {
		// Selecting on done keeps a sender parked behind a stopped
		// daemon's full queue from hanging (or panicking on a closed
		// channel) when Close races the send.
		select {
		case g.daemon(from, to).q <- xfer{m: m, ready: ready}:
		case <-g.done:
		}
		return
	}
	g.deliver(from, to, m, ready, 0)
}

// deliver is the transport-insertion core of sendMsgAt: stamp the
// simulated arrival (departure = data ready ∨ link drained, plus the
// transfer time and any injected extra latency), charge the sender's
// traffic counters, hand the frame to the transport. On the fault path
// it is called only by the link's daemon goroutine, which keeps
// linkFree single-writer. Running the stamping, accounting, and (via
// sendMsgAt) the fault daemons above the transport is what makes every
// backend carry identical Stats and FaultPlan behavior.
func (g *Group) deliver(from, to int, m Frame, ready, extraDelay float64) {
	if g.linkFree != nil {
		depart := ready
		if busy := g.linkFree[from][to]; busy > depart {
			depart = busy
		}
		m.Arrive = depart + g.cost.XferTime(from, to, len(m.Data)) + extraDelay
		g.linkFree[from][to] = m.Arrive
	}
	g.charge(from, to, len(m.Data))
	g.tr.Send(g.trRank(from), g.trRank(to), m)
}

// daemon returns (lazily starting) the stop-and-wait daemon for the
// directed virtual link from→to.
func (g *Group) daemon(from, to int) *linkDaemon {
	key := from*g.p + to
	g.dMu.Lock()
	defer g.dMu.Unlock()
	d, ok := g.daemons[key]
	if !ok {
		d = &linkDaemon{
			g: g, from: from, to: to,
			pf: g.physRank(from), pt: g.physRank(to),
			q: make(chan xfer, 2*mailboxCap),
		}
		g.daemons[key] = d
		go d.run()
	}
	return d
}

// physRank maps a virtual rank of this group to its physical rank in
// the fault fabric's index space (identity without a membership map).
func (g *Group) physRank(v int) int {
	if g.phys == nil {
		return v
	}
	return g.phys[v]
}

// attachFaults wires the group into a fault fabric, with phys mapping
// the group's virtual ranks to the fabric's physical ranks (nil =
// identity; otherwise len(phys) must equal the group size). Call before
// any communication.
func (g *Group) attachFaults(fab *faultFabric, phys []int) {
	if phys != nil && len(phys) != g.p {
		panic(fmt.Sprintf("comm: attachFaults got %d physical ranks for %d learners", len(phys), g.p))
	}
	g.fab = fab
	g.phys = phys
	g.faultRoute = fab != nil && fab.plan.linkFaultsActive()
	if g.faultRoute {
		g.daemons = make(map[int]*linkDaemon)
	}
}

// InjectFaults activates a fault plan on this standalone group: drops,
// delays and the acknowledged-delivery protocol per the plan, with the
// group's ranks as the physical rank space. The injected fault counters
// appear in Stats().Faults. For crash/eviction-tolerant runs use
// NewResilient, which shares one fabric across re-formed groups.
func (g *Group) InjectFaults(plan *FaultPlan) {
	if plan == nil {
		return
	}
	g.attachFaults(newFaultFabric(g.p, plan, g.tracer), nil)
}

// Close shuts the group down: stops the link daemons, unblocks any
// fault-path send still queueing behind them, and closes the group's
// transport (idempotent on every backend, so groups sharing a
// transport — re-formed survivor views — may each close it).
// Idempotent and safe to call concurrently with in-flight sends, which
// are dropped: call after all collectives have completed, or accept
// that transfers in flight at Close are lost.
func (g *Group) Close() {
	if !g.closed.CompareAndSwap(false, true) {
		return
	}
	close(g.done)
	g.tr.Close()
}

// Recv blocks until a message from learner `from` arrives at learner
// `to`, synchronizes to's clock with the arrival time, and returns the
// payload.
func (g *Group) Recv(to, from int) []float64 {
	return g.recvMsg(to, from).Data
}

// recvMsg is the internal receive; collectives use it to get the pool
// ownership marker alongside the payload. With a tracer attached the
// blocking time on the mailbox is accumulated into the receiving rank's
// mailbox-wait counter; untraced groups skip the clock reads.
func (g *Group) recvMsg(to, from int) Frame {
	g.checkRank(from)
	g.checkRank(to)
	if g.faultRoute && from != to {
		return g.recvReliable(to, from)
	}
	var m Frame
	if g.traceOn {
		t0 := time.Now()
		m = g.tr.Recv(g.trRank(to), g.trRank(from))
		g.stats[to].mailboxWaitNs.Add(time.Since(t0).Nanoseconds())
	} else {
		m = g.tr.Recv(g.trRank(to), g.trRank(from))
	}
	if g.clocks != nil {
		g.syncClock(to, m.Arrive)
	}
	return m
}

// syncClock applies a receive-side arrival time to rank to's simulated
// clock — or, when a DeferSync sink is installed for the rank (the
// delayed-application comm worker), records it into the sink instead.
// Routing through the sink is what keeps delayed-mode simulated times
// deterministic: the comm worker's arrivals would otherwise race the
// learner's own clock advances, and Sync/Advance do not commute.
func (g *Group) syncClock(to int, arrive float64) {
	if s := g.sinks[to]; s != nil {
		s.capture(arrive)
		return
	}
	g.clocks[to].Sync(arrive)
}

// setSink installs (or, with nil, removes) rank's DeferSync sink. Must
// be called by the goroutine currently driving the rank's receives,
// with no receive in flight.
func (g *Group) setSink(rank int, d *DeferSync) { g.sinks[rank] = d }

// DeferSync accumulates receive-side clock syncs that must not be
// applied to the rank's clock yet: the delayed-application engine runs
// its collectives on the comm worker while the learner's clock advances
// through the next round's compute, so arrival times are captured here
// and folded in at the next boundary (Join). Single-writer: only the
// rank's comm worker captures, and the learner reads/Joins only after
// waiting on every in-flight handle.
type DeferSync struct{ mark float64 }

func (d *DeferSync) capture(t float64) {
	if t > d.mark {
		d.mark = t
	}
}

// Mark returns the latest captured arrival time (0 if none).
func (d *DeferSync) Mark() float64 { return d.mark }

// Join folds the captured arrivals into clock — charging only the part
// of the communication that compute did not already hide — and resets
// the sink for the next round.
func (d *DeferSync) Join(c Clock) {
	c.Sync(d.mark)
	d.mark = 0
}

// recvReliable is the receive side of the acknowledged-delivery
// protocol: consume mailbox messages, discard duplicates left behind by
// spurious retransmissions (re-acknowledging them so the accounting
// stays honest), acknowledge the first copy of the expected sequence
// number on consumption, and return it. The link's dedup cursor is
// written only by the goroutine currently driving the receiving rank,
// which under bulk-synchronous collectives is never concurrent with
// itself — including across group re-formations, whose boundaries are
// synchronization points.
func (g *Group) recvReliable(to, from int) Frame {
	fab := g.fab
	li := fab.linkIdx(g.physRank(from), g.physRank(to))
	for {
		var m Frame
		if g.traceOn {
			t0 := time.Now()
			m = g.tr.Recv(g.trRank(to), g.trRank(from))
			g.stats[to].mailboxWaitNs.Add(time.Since(t0).Nanoseconds())
		} else {
			m = g.tr.Recv(g.trRank(to), g.trRank(from))
		}
		seq := m.Seq - 1 // wire stamps are seq+1 so the zero value is never a valid stamp
		if seq < fab.expect[li] {
			fab.acks[li] <- seq
			g.releaseMsg(m)
			continue
		}
		fab.expect[li] = seq + 1
		fab.acks[li] <- seq
		if g.clocks != nil {
			g.syncClock(to, m.Arrive)
		}
		return m
	}
}

func (g *Group) checkRank(r int) {
	if r < 0 || r >= g.p {
		panic(fmt.Sprintf("comm: rank %d out of range [0,%d)", r, g.p))
	}
}

// Barrier blocks until all p learners have called it. When the group is
// simulated, all clocks are synchronized to the latest arrival, matching
// bulk-synchronous semantics. On a multi-process transport the barrier
// runs over the wire instead (no shared memory to park on).
func (g *Group) Barrier(rank int) {
	g.checkRank(rank)
	if !g.allLocal {
		g.wireBarrier(rank)
		return
	}
	if g.clocks == nil {
		g.bar.Wait()
		return
	}
	t := g.bar.WaitMax(g.clocks[rank].Now())
	g.clocks[rank].Sync(t)
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
	g.up(&g.tree[rank], pb.data, nil, 0, false)
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
// maximum value contributed across them.
func (b *Barrier) WaitMax(v float64) float64 {
	b.mu.Lock()
	defer b.mu.Unlock()
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
	for phase == b.phase {
		b.cond.Wait()
	}
	return b.outVal
}
