package comm

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"sasgd/internal/obs"
)

// Crash-tolerant membership. A Resilient wraps the run's communication
// groups with a heartbeat ledger: learners check in at numbered sync
// points (one per aggregation boundary and epoch barrier), and a rank
// that stays silent past the plan's EvictAfter while its peers wait is
// declared dead and evicted. The survivors re-form — a fresh, smaller
// Group over the sorted surviving physical ranks, on the run's one
// transport (simulated time included) — and training continues on the
// new group with the aggregation rate rescaled by the membership
// layer's caller.
//
// Consistency argument. All ledger state — heartbeats, the live set,
// the current view — is guarded by one mutex, and both the eviction
// decision and the completion check run under it. A rank is evictable
// at sync point b only while its heartbeat is behind b, and Await
// returns only once every live rank's heartbeat has reached b; so after
// any survivor returns from sync point b, no rank can be evicted at b
// (everyone still live has posted), and every other survivor returns
// from b with the identical view. Collectives therefore always run over
// a membership all participants agree on. A slow-but-alive rank that
// gets fenced (evicted while merely lagging) discovers this at its next
// Await, which returns ok=false, and must stop participating — the
// classic failure-detector false positive, bounded by choosing
// EvictAfter well above the worst per-boundary straggler lag.
//
// Crashes are silent fail-stop: a crashing learner simply stops posting
// heartbeats (Crash only records the event for stats/tracing), so
// detection is an honest timeout, not a courtesy notification.

// View is one stable membership epoch: the group to run collectives on
// and the mapping from the group's virtual ranks to physical ranks.
type View struct {
	G       *Group
	Phys    []int // virtual rank → physical rank (sorted ascending)
	Version int   // increments on every re-form
}

// Size returns the view's member count.
func (v View) Size() int { return len(v.Phys) }

// RankOf returns the virtual rank of a physical rank in this view, or
// -1 when the rank is not a member.
func (v View) RankOf(phys int) int {
	for vr, pr := range v.Phys {
		if pr == phys {
			return vr
		}
	}
	return -1
}

// Eviction records one failure-detector decision.
type Eviction struct {
	Phys    int // evicted physical rank
	SyncPt  int // sync point at which the silence was detected
	Version int // view version created by the re-form
}

// Resilient is the run's membership ledger and group factory. Create
// one per training run with the full physical rank count; learners call
// Await at every synchronization point instead of Group.Barrier.
type Resilient struct {
	plan   *FaultPlan
	origP  int
	tr     Transport // every view's, in physical-rank space; simulated when clocks are set
	clocks []Clock   // physical-rank indexed (nil = unsimulated)
	tracer *obs.Tracer

	// The run's fault counters, read by every group formed here.
	crashes, evicts, reforms atomic.Int64

	mu        sync.Mutex
	heart     []int // heart[phys] = highest sync point posted (-1 = none)
	live      []bool
	waitSince map[int]time.Time // sync point → first waiter's arrival
	// alignPt is the latest sync point whose clock alignment has been
	// taken, alignAt that alignment: the live maximum when the first
	// waiter saw the point complete, which every waiter of it syncs to.
	alignPt   int
	alignAt   float64
	view      View
	groups    []*Group // every group ever formed; closed at Close
	closed    bool     // Close ran: every Await fences its caller
	evictions []Eviction
	memTrack  *obs.Track // membership events (crash/evict/re-form); written only under mu
	hbTrack   *obs.Track // heartbeat spans; separate ring so the chatty
	// per-boundary heartbeats cannot overwrite the few membership events
	// a long run's timeline exists to show
}

// NewResilient builds the ledger for p physical ranks and forms the
// initial full-membership view. clocks may be nil or length p; cost may
// be nil (with clocks nil). The plan supplies EvictAfter; a nil plan
// means no injected faults but still crash-tolerant membership.
func NewResilient(p int, plan *FaultPlan, clocks []Clock, cost CostModel, tracer *obs.Tracer) *Resilient {
	return NewResilientOver(newChanTransport(p), plan, clocks, cost, tracer)
}

// NewResilientOver is NewResilient on an explicit wire transport: every
// membership view — the initial full group and each survivor re-form —
// is built over the same mesh, with the view's physical ranks
// addressing the transport's rank space directly. The transport must
// host every rank in this process: the heartbeat ledger is shared
// memory.
func NewResilientOver(tr Transport, plan *FaultPlan, clocks []Clock, cost CostModel, tracer *obs.Tracer) *Resilient {
	if !isAllLocal(tr) {
		panic("comm: NewResilientOver needs an all-local transport (the membership ledger is in-process)")
	}
	p := tr.Size()
	if plan == nil {
		plan = &FaultPlan{}
	}
	if clocks != nil && len(clocks) != p {
		panic(fmt.Sprintf("comm: NewResilient got %d clocks for %d ranks", len(clocks), p))
	}
	if clocks != nil {
		tr = newSimTransport(tr, nil, clocks, cost)
	}
	r := &Resilient{
		plan:      plan,
		origP:     p,
		tr:        tr,
		clocks:    clocks,
		tracer:    tracer,
		heart:     make([]int, p),
		live:      make([]bool, p),
		waitSince: map[int]time.Time{},
		alignPt:   -1,
	}
	for i := range r.heart {
		r.heart[i] = -1
		r.live[i] = true
	}
	if tracer != nil {
		r.memTrack = tracer.FabricTrack("membership", 1)
		r.hbTrack = tracer.FabricTrack("heartbeats", 2)
	}
	phys := make([]int, p)
	for i := range phys {
		phys[i] = i
	}
	r.view = View{G: r.formGroup(phys), Phys: phys, Version: 0}
	return r
}

// formGroup builds a group over the given physical ranks, wired to the
// shared transport, this ledger's counters and the run's tracer. Caller
// holds mu (or is the constructor).
func (r *Resilient) formGroup(phys []int) *Group {
	if len(phys) == r.origP {
		phys = nil // the full, sorted membership: the identity view
	}
	g := NewTransportGroup(r.tr, phys, nil, nil)
	g.SetTracer(r.tracer)
	g.ledger = r
	r.groups = append(r.groups, g)
	return g
}

// Current returns the current membership view.
func (r *Resilient) Current() View {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.view
}

// Crash records a scheduled fail-stop of the given physical rank. The
// rank's learner must return without any further communication; its
// peers are told nothing — they detect the silence at the next sync
// point and evict.
func (r *Resilient) Crash(phys int) {
	r.crashes.Add(1)
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.memTrack != nil {
		now := r.memTrack.Now()
		r.memTrack.Span(obs.PhaseCrash, int32(phys), now, now)
	}
}

// awaitPoll is the ledger polling interval. Real time, not simulated:
// the failure detector necessarily runs on the wall clock.
const awaitPoll = 200 * time.Microsecond

// Await posts the caller's heartbeat for the given sync point and
// blocks until every live rank has posted it (evicting ranks that stay
// silent past the plan's EvictAfter). It returns the membership view to
// run the next collectives on, aligned clocks (bulk-synchronous max,
// plus the simEvictSecs detection penalty per eviction), and
// ok=false when the caller itself has been evicted — a fenced straggler
// must stop participating immediately — or the ledger has been closed.
func (r *Resilient) Await(phys, syncPt int) (View, bool) {
	r.mu.Lock()
	if !r.live[phys] || r.closed {
		r.mu.Unlock()
		return View{}, false
	}
	r.heart[phys] = syncPt
	if _, ok := r.waitSince[syncPt]; !ok {
		r.waitSince[syncPt] = time.Now()
	}
	var hbStart obs.Stamp
	if r.hbTrack != nil {
		hbStart = r.hbTrack.Now()
	}
	for {
		if !r.live[phys] || r.closed {
			r.mu.Unlock()
			return View{}, false
		}
		complete := true
		for p := 0; p < r.origP; p++ {
			if r.live[p] && r.heart[p] < syncPt {
				complete = false
				break
			}
		}
		if complete {
			// Bulk-synchronous clock alignment: when the first waiter sees
			// the point complete every live rank is parked at it, so the
			// max over their clocks is final then — and only then, as a
			// waiter that leaves first may charge its next interval before
			// a peer wakes from its poll. Every waiter takes that max.
			if r.clocks != nil {
				if r.alignPt != syncPt {
					r.alignPt, r.alignAt = syncPt, r.liveClockMax()
				}
				r.clocks[phys].Sync(r.alignAt)
			}
			if r.hbTrack != nil {
				r.hbTrack.Span(obs.PhaseHeartbeat, int32(phys), hbStart, r.hbTrack.Now())
			}
			v := r.view
			r.mu.Unlock()
			return v, true
		}
		if wait := time.Since(r.waitSince[syncPt]); wait > r.plan.evictAfter() {
			for p := 0; p < r.origP; p++ {
				if r.live[p] && r.heart[p] < syncPt {
					r.evictLocked(p, syncPt)
				}
			}
			continue // re-check completion with the shrunken live set
		}
		r.mu.Unlock()
		time.Sleep(awaitPoll)
		r.mu.Lock()
	}
}

// evictLocked removes a dead rank and re-forms the view over the
// survivors. Caller holds mu.
func (r *Resilient) evictLocked(phys, syncPt int) {
	r.live[phys] = false
	r.evicts.Add(1)
	var survivors []int
	for p := 0; p < r.origP; p++ {
		if r.live[p] {
			survivors = append(survivors, p)
		}
	}
	if len(survivors) == 0 {
		panic("comm: all ranks evicted")
	}
	sort.Ints(survivors)
	// Charge the detection latency: every survivor pays the simulated
	// analogue of the failure detector's timeout.
	if r.clocks != nil {
		t := r.liveClockMax() + simEvictSecs
		for _, p := range survivors {
			r.clocks[p].Sync(t)
		}
	}
	g := r.formGroup(survivors)
	r.view = View{G: g, Phys: survivors, Version: r.view.Version + 1}
	r.reforms.Add(1)
	r.evictions = append(r.evictions, Eviction{Phys: phys, SyncPt: syncPt, Version: r.view.Version})
	if r.memTrack != nil {
		now := r.memTrack.Now()
		r.memTrack.Span(obs.PhaseEvict, int32(phys), now, now)
		r.memTrack.Span(obs.PhaseReform, int32(r.view.Version), now, now)
	}
}

// liveClockMax is the latest simulated clock of a live rank. Caller
// holds mu.
func (r *Resilient) liveClockMax() float64 {
	mx := 0.0
	for p, c := range r.clocks {
		if r.live[p] {
			mx = max(mx, c.Now())
		}
	}
	return mx
}

// Stats aggregates communication statistics across every group the run
// has formed, with the ledger's fault counters attached once.
func (r *Resilient) Stats() Stats {
	r.mu.Lock()
	groups := append([]*Group(nil), r.groups...)
	r.mu.Unlock()
	var s Stats
	for i, g := range groups {
		if i == 0 {
			s = g.Stats()
			continue
		}
		s.MergeTraffic(g.Stats()) // Faults intentionally not merged: shared ledger
	}
	s.Faults = r.faultCounts()
	return s
}

// faultCounts snapshots the ledger's counters into a FaultStats.
func (r *Resilient) faultCounts() FaultStats {
	return FaultStats{
		Evictions: r.evicts.Load(),
		Reforms:   r.reforms.Load(),
		Crashes:   r.crashes.Load(),
	}
}

// Close closes every group the run has formed (and so the shared
// transport) and fences every later or parked Await. Call once, after
// all learners have finished or to unwind a run that cannot finish.
func (r *Resilient) Close() {
	r.mu.Lock()
	groups := r.groups
	r.groups, r.closed = nil, true
	r.mu.Unlock()
	for _, g := range groups {
		g.Close()
	}
}
