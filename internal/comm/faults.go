package comm

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sasgd/internal/obs"
)

// Fault injection. A FaultPlan is a deterministic, seeded description of
// everything that goes wrong during a run: per-link message drops and
// delay distributions, learner slowdowns, and crash-at-boundary
// schedules. Determinism is the design center — every stochastic
// decision (drop this attempt? how much extra latency?) is a pure hash
// of (plan seed, physical link, message sequence, attempt), never a
// stateful RNG stream, so the injected fault pattern is identical
// across runs and independent of goroutine scheduling. That is what
// lets the chaos tests assert bitwise survivor equivalence and the
// property tests predict retry counters exactly.
//
// When a plan with link faults is attached to a Group, point-to-point
// transfers switch from direct mailbox delivery to an acknowledged
// stop-and-wait protocol run by one daemon goroutine per directed link:
// each message gets a per-link sequence number, every delivery attempt
// may be dropped by the plan, the daemon retransmits after an ack
// timeout, and the receiver deduplicates by sequence number and
// acknowledges on consumption. Acks travel out of band (the control
// plane is reliable; only the data plane is faulty). Delivery is
// exactly-once in order, so the collectives above are value-identical
// to a fault-free run — faults cost time and traffic, never bits.

// Link identifies one directed learner-to-learner link by physical rank.
type Link struct{ From, To int }

// Burst is a transient outage on one directed link: the first delivery
// attempt of every message with sequence number in [Start, Start+N) is
// dropped. Retransmissions pass, so the retry machinery recovers and
// the outage is visible as a retry burst in Stats and the trace.
type Burst struct {
	From, To int
	Start, N int64
}

// FaultPlan configures deterministic fault injection for one run. The
// zero value injects nothing; fields compose freely.
type FaultPlan struct {
	// Seed keys every stochastic decision. Two runs with equal plans see
	// the identical fault schedule.
	Seed int64

	// Drop is the per-delivery-attempt probability that a data message
	// is lost on the wire (all links). Retransmissions draw fresh
	// decisions, so a message survives with probability 1-Drop^attempts.
	Drop float64

	// Bursts are scheduled transient outages (see Burst).
	Bursts []Burst

	// DelayMean/DelayJitter add extra simulated seconds of in-network
	// latency to every delivered message: mean ± uniform jitter, drawn
	// deterministically per (link, seq). Ignored without a simulation.
	DelayMean   float64
	DelayJitter float64

	// Slow maps a physical rank to a compute slowdown factor k ≥ 1: the
	// learner's simulated minibatch time is multiplied by k and the
	// training loop sleeps (k-1)·SlowSleep of real time per minibatch so
	// straggling is real, not only simulated.
	Slow map[int]float64

	// CrashAt maps a physical rank to the aggregation boundary at which
	// it dies: the rank participates in aggregations 0..b-1 and then
	// fails silently (fail-stop — it simply never posts the boundary-b
	// heartbeat). Survivors detect the silence by timeout and evict it.
	CrashAt map[int]int

	// RetryTimeout is how long a link daemon waits for an ack before
	// retransmitting (default 2ms).
	RetryTimeout time.Duration
	// MaxRetries bounds retransmissions per message; exhausting it
	// declares the link dead and panics the daemon — with the membership
	// protocol ensuring no one transfers to a crashed rank, exhaustion
	// only ever means a pathological drop schedule (default 25).
	MaxRetries int

	// EvictAfter is the membership failure detector's timeout: a rank
	// that has not posted a sync-point heartbeat this long after a peer
	// began waiting is evicted. It must comfortably exceed the worst
	// straggler lag per boundary or slow-but-alive ranks get fenced
	// (default 250ms).
	EvictAfter time.Duration

	// SimEvictSecs is the simulated detection latency charged to every
	// survivor's clock when an eviction happens at a sync point — the
	// simulated analogue of EvictAfter (default 0.25s).
	SimEvictSecs float64

	// SlowSleep is the real-time unit of straggling: a rank slowed ×k
	// sleeps (k-1)·SlowSleep per minibatch (default 100µs).
	SlowSleep time.Duration
}

// Defaults for the zero-valued protocol knobs.
const (
	defaultRetryTimeout = 2 * time.Millisecond
	defaultMaxRetries   = 25
	defaultEvictAfter   = 250 * time.Millisecond
	defaultSimEvict     = 0.25
	defaultSlowSleep    = 100 * time.Microsecond
)

func (p *FaultPlan) retryTimeout() time.Duration {
	if p.RetryTimeout > 0 {
		return p.RetryTimeout
	}
	return defaultRetryTimeout
}

func (p *FaultPlan) maxRetries() int {
	if p.MaxRetries > 0 {
		return p.MaxRetries
	}
	return defaultMaxRetries
}

func (p *FaultPlan) evictAfter() time.Duration {
	if p.EvictAfter > 0 {
		return p.EvictAfter
	}
	return defaultEvictAfter
}

func (p *FaultPlan) simEvictSecs() float64 {
	if p.SimEvictSecs > 0 {
		return p.SimEvictSecs
	}
	return defaultSimEvict
}

// SlowFactor returns the compute slowdown for a physical rank (1 when
// the rank is not slowed). Nil-safe.
func (p *FaultPlan) SlowFactor(rank int) float64 {
	if p == nil || p.Slow == nil {
		return 1
	}
	if k, ok := p.Slow[rank]; ok && k > 1 {
		return k
	}
	return 1
}

// SlowSleepFor returns the real sleep a slowed rank owes per minibatch.
func (p *FaultPlan) SlowSleepFor(rank int) time.Duration {
	k := p.SlowFactor(rank)
	if k <= 1 {
		return 0
	}
	unit := p.SlowSleep
	if unit <= 0 {
		unit = defaultSlowSleep
	}
	return time.Duration(float64(unit) * (k - 1))
}

// CrashBoundary returns the aggregation boundary at which the rank is
// scheduled to crash, or -1. Nil-safe.
func (p *FaultPlan) CrashBoundary(rank int) int {
	if p == nil || p.CrashAt == nil {
		return -1
	}
	if b, ok := p.CrashAt[rank]; ok {
		return b
	}
	return -1
}

// linkFaultsActive reports whether the plan perturbs the data plane at
// all — only then does a group route transfers through link daemons.
func (p *FaultPlan) linkFaultsActive() bool {
	return p != nil && (p.Drop > 0 || len(p.Bursts) > 0 || p.DelayMean > 0 || p.DelayJitter > 0)
}

// ParseFaultPlan parses the compact comma-separated spec the -faults
// flag carries:
//
//	seed=N            decision seed (default 1)
//	drop=F            per-attempt drop probability on every link
//	delay=M[~J]       extra simulated seconds per message, mean M ± J
//	slow=R:K          slow rank R by factor K (repeatable)
//	crash=R@B         crash rank R at aggregation boundary B (repeatable)
//	burst=F>T@S+N     drop first attempts of seqs [S,S+N) on link F→T
//	timeout=DUR       ack timeout before retransmit (Go duration)
//	retries=N         max retransmissions per message
//	evict=DUR         membership failure-detector timeout (Go duration)
//
// Example: "seed=7,drop=0.05,slow=3:4,crash=5@8".
func ParseFaultPlan(spec string) (*FaultPlan, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, nil
	}
	plan := &FaultPlan{Seed: 1}
	for _, clause := range strings.Split(spec, ",") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		key, val, ok := strings.Cut(clause, "=")
		if !ok {
			return nil, fmt.Errorf("comm: fault clause %q: want key=value", clause)
		}
		var err error
		switch key {
		case "seed":
			plan.Seed, err = strconv.ParseInt(val, 10, 64)
		case "drop":
			plan.Drop, err = strconv.ParseFloat(val, 64)
			if err == nil && (plan.Drop < 0 || plan.Drop >= 1) {
				err = fmt.Errorf("drop probability %g outside [0,1)", plan.Drop)
			}
		case "delay":
			mean, jitter, hasJ := strings.Cut(val, "~")
			plan.DelayMean, err = strconv.ParseFloat(mean, 64)
			if err == nil && hasJ {
				plan.DelayJitter, err = strconv.ParseFloat(jitter, 64)
			}
		case "slow":
			r, k, okc := strings.Cut(val, ":")
			if !okc {
				err = fmt.Errorf("want slow=RANK:FACTOR")
				break
			}
			var rank int
			var factor float64
			if rank, err = strconv.Atoi(r); err != nil {
				break
			}
			if factor, err = strconv.ParseFloat(k, 64); err != nil {
				break
			}
			if plan.Slow == nil {
				plan.Slow = map[int]float64{}
			}
			plan.Slow[rank] = factor
		case "crash":
			r, b, okc := strings.Cut(val, "@")
			if !okc {
				err = fmt.Errorf("want crash=RANK@BOUNDARY")
				break
			}
			var rank, boundary int
			if rank, err = strconv.Atoi(r); err != nil {
				break
			}
			if boundary, err = strconv.Atoi(b); err != nil {
				break
			}
			if plan.CrashAt == nil {
				plan.CrashAt = map[int]int{}
			}
			plan.CrashAt[rank] = boundary
		case "burst":
			linkPart, seqPart, okc := strings.Cut(val, "@")
			if !okc {
				err = fmt.Errorf("want burst=FROM>TO@START+N")
				break
			}
			f, t, okl := strings.Cut(linkPart, ">")
			s, n, oks := strings.Cut(seqPart, "+")
			if !okl || !oks {
				err = fmt.Errorf("want burst=FROM>TO@START+N")
				break
			}
			var b Burst
			if b.From, err = strconv.Atoi(f); err != nil {
				break
			}
			if b.To, err = strconv.Atoi(t); err != nil {
				break
			}
			if b.Start, err = strconv.ParseInt(s, 10, 64); err != nil {
				break
			}
			if b.N, err = strconv.ParseInt(n, 10, 64); err != nil {
				break
			}
			plan.Bursts = append(plan.Bursts, b)
		case "timeout":
			plan.RetryTimeout, err = time.ParseDuration(val)
		case "retries":
			plan.MaxRetries, err = strconv.Atoi(val)
		case "evict":
			plan.EvictAfter, err = time.ParseDuration(val)
		default:
			err = fmt.Errorf("unknown fault key %q", key)
		}
		if err != nil {
			return nil, fmt.Errorf("comm: fault clause %q: %v", clause, err)
		}
	}
	return plan, nil
}

// String renders the plan back into the spec format ParseFaultPlan
// accepts (stable clause order, for logs and round-trip tests).
func (p *FaultPlan) String() string {
	if p == nil {
		return ""
	}
	var parts []string
	parts = append(parts, fmt.Sprintf("seed=%d", p.Seed))
	if p.Drop > 0 {
		parts = append(parts, fmt.Sprintf("drop=%g", p.Drop))
	}
	if p.DelayMean > 0 || p.DelayJitter > 0 {
		parts = append(parts, fmt.Sprintf("delay=%g~%g", p.DelayMean, p.DelayJitter))
	}
	for _, r := range sortedKeys(p.Slow) {
		parts = append(parts, fmt.Sprintf("slow=%d:%g", r, p.Slow[r]))
	}
	for _, r := range sortedKeys(p.CrashAt) {
		parts = append(parts, fmt.Sprintf("crash=%d@%d", r, p.CrashAt[r]))
	}
	for _, b := range p.Bursts {
		parts = append(parts, fmt.Sprintf("burst=%d>%d@%d+%d", b.From, b.To, b.Start, b.N))
	}
	if p.RetryTimeout > 0 {
		parts = append(parts, fmt.Sprintf("timeout=%s", p.RetryTimeout))
	}
	if p.MaxRetries > 0 {
		parts = append(parts, fmt.Sprintf("retries=%d", p.MaxRetries))
	}
	if p.EvictAfter > 0 {
		parts = append(parts, fmt.Sprintf("evict=%s", p.EvictAfter))
	}
	return strings.Join(parts, ",")
}

func sortedKeys[V any](m map[int]V) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}

// splitmix64 is the decision hash's mixer (Steele et al.); full-period,
// well-distributed, and cheap.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// decision salts, keeping the drop and delay streams independent.
const (
	saltDrop  = 0x6472
	saltDelay = 0x646c
)

// unitHash maps (seed, link, seq, attempt, salt) to a uniform value in
// [0,1). Pure — the heart of the plan's schedule-independence.
func unitHash(seed int64, from, to int, seq int64, attempt int, salt uint64) float64 {
	h := splitmix64(uint64(seed) ^ salt)
	h = splitmix64(h ^ uint64(from)<<32 ^ uint64(to))
	h = splitmix64(h ^ uint64(seq)<<8 ^ uint64(attempt))
	return float64(h>>11) / float64(1<<53)
}

// faultFabric is the shared, physical-rank-indexed state of a faulty
// run: per-link sequence numbers and dedup cursors, the out-of-band ack
// channels, and the fault counters. It outlives any one Group — when
// the membership layer re-forms a smaller group after an eviction, the
// new group attaches to the same fabric, so sequence continuity,
// counters, and trace tracks span the whole run.
type faultFabric struct {
	plan *FaultPlan
	p    int // physical rank count

	seq    []int64      // [from*p+to] next sequence to assign (link daemon only)
	expect []int64      // [from*p+to] next sequence to accept (receiver only)
	acks   []chan int64 // [from*p+to] receiver → daemon ack stream

	drops    atomic.Int64
	retries  atomic.Int64
	timeouts atomic.Int64
	evicts   atomic.Int64
	reforms  atomic.Int64
	crashes  atomic.Int64

	tracer *obs.Tracer
	// linkTracks are the per-link fabric trace tracks, created lazily by
	// the link's daemon on its first fault event.
	ltMu       sync.Mutex
	linkTracks map[Link]*obs.Track
}

// newFaultFabric builds the shared fabric state for p physical ranks.
func newFaultFabric(p int, plan *FaultPlan, tracer *obs.Tracer) *faultFabric {
	f := &faultFabric{
		plan:   plan,
		p:      p,
		seq:    make([]int64, p*p),
		expect: make([]int64, p*p),
		acks:   make([]chan int64, p*p),
		tracer: tracer,
	}
	for i := range f.acks {
		f.acks[i] = make(chan int64, 4*mailboxCap)
	}
	return f
}

func (f *faultFabric) linkIdx(from, to int) int { return from*f.p + to }

// dropAttempt decides deterministically whether delivery attempt
// `attempt` of message `seq` on the physical link from→to is lost.
func (f *faultFabric) dropAttempt(from, to int, seq int64, attempt int) bool {
	p := f.plan
	if attempt == 0 {
		for _, b := range p.Bursts {
			if b.From == from && b.To == to && seq >= b.Start && seq < b.Start+b.N {
				return true
			}
		}
	}
	if p.Drop <= 0 {
		return false
	}
	return unitHash(p.Seed, from, to, seq, attempt, saltDrop) < p.Drop
}

// delayFor draws the message's deterministic extra in-network latency
// in simulated seconds.
func (f *faultFabric) delayFor(from, to int, seq int64) float64 {
	p := f.plan
	if p.DelayMean <= 0 && p.DelayJitter <= 0 {
		return 0
	}
	d := p.DelayMean
	if p.DelayJitter > 0 {
		d += (unitHash(p.Seed, from, to, seq, 0, saltDelay)*2 - 1) * p.DelayJitter
	}
	if d < 0 {
		d = 0
	}
	return d
}

// linkTrack returns (lazily creating) the link's fabric trace track.
// Nil without a tracer.
func (f *faultFabric) linkTrack(from, to int) *obs.Track {
	if f.tracer == nil {
		return nil
	}
	f.ltMu.Lock()
	defer f.ltMu.Unlock()
	if f.linkTracks == nil {
		f.linkTracks = map[Link]*obs.Track{}
	}
	l := Link{from, to}
	t, ok := f.linkTracks[l]
	if !ok {
		t = f.tracer.FabricTrack(fmt.Sprintf("link %d→%d", from, to), 100+f.linkIdx(from, to))
		f.linkTracks[l] = t
	}
	return t
}

// faultCounts snapshots the fabric's counters into a FaultStats.
func (f *faultFabric) faultCounts() FaultStats {
	return FaultStats{
		Drops:     f.drops.Load(),
		Retries:   f.retries.Load(),
		Timeouts:  f.timeouts.Load(),
		Evictions: f.evicts.Load(),
		Reforms:   f.reforms.Load(),
		Crashes:   f.crashes.Load(),
	}
}

// xfer is one queued transfer awaiting the link daemon; ready is the
// sender's simulated clock at enqueue, every attempt's departure stamp.
type xfer struct {
	m     Frame
	ready float64
}

// linkDaemon runs one directed link's acknowledged stop-and-wait
// protocol: it owns the link's sequence counter, performs the
// drop-aware delivery attempts, and retransmits on ack timeout. One
// daemon per (group, directed link), spawned lazily on first use.
type linkDaemon struct {
	g        *Group
	from, to int // virtual ranks within g
	pf, pt   int // physical ranks (fabric index space)
	q        chan xfer
}

// run drains the daemon's queue. Each message: assign the link's next
// sequence number, then attempt delivery until acknowledged. Every
// attempt is charged to the sender's traffic counters (dropped packets
// consume wire bandwidth too); retransmissions beyond MaxRetries panic
// — see FaultPlan.MaxRetries.
func (d *linkDaemon) run() {
	f := d.g.fab
	done := d.g.done
	li := f.linkIdx(d.pf, d.pt)
	timeout := f.plan.retryTimeout()
	maxRetries := f.plan.maxRetries()
	timer := time.NewTimer(time.Hour)
	if !timer.Stop() {
		<-timer.C
	}
	for {
		var x xfer
		select {
		case x = <-d.q:
		case <-done:
			// Group closed: queued transfers are dropped per the Close
			// contract.
			return
		}
		seq := f.seq[li]
		f.seq[li] = seq + 1
		delay := f.delayFor(d.pf, d.pt, seq)
		// Stage the payload once, before the first delivery attempt. The
		// sender's hand-off ends when the receiver consumes the first
		// delivered copy — the sender may legally overwrite its buffer
		// while a spurious retransmission is still pending — so no
		// retransmission may read the original. Pool-owned payloads are
		// already exclusive wire copies and become the staging buffer
		// directly; sender-owned slices are copied exactly once, which is
		// safe because anything that lets the sender overwrite them
		// happens-after the first delivery, which happens-after this copy.
		n := len(x.m.Data)
		stage := x.m.pb
		if stage == nil {
			stage = d.g.acquire(n)
			copy(stage.data, x.m.Data)
		}
		acked := false
		for attempt := 0; !acked; attempt++ {
			if attempt > maxRetries {
				panic(fmt.Sprintf("comm: link %d→%d dead: message seq %d lost after %d retries",
					d.pf, d.pt, seq, maxRetries))
			}
			if f.dropAttempt(d.pf, d.pt, seq, attempt) {
				f.drops.Add(1)
				d.g.charge(d.from, d.to, n)
				if tk := f.linkTrack(d.pf, d.pt); tk != nil {
					now := tk.Now()
					tk.Span(obs.PhaseDrop, int32(seq), now, now)
				}
			} else {
				// Every attempt ships its own pooled copy of the staging
				// buffer: the consumed copy is released by the collective,
				// duplicate copies by the receiver's dedup path — distinct
				// buffers, so no double-release and no aliasing.
				pb := d.g.acquire(n)
				copy(pb.data, stage.data[:n])
				d.g.deliver(d.from, d.to, Frame{Data: pb.data, pb: pb, Seq: seq + 1}, x.ready, delay)
			}
			// Await the ack (or a stale duplicate ack from an earlier
			// spurious retransmission, which is drained and ignored).
			sent := time.Now()
			waitStart := obs.Stamp(0)
			if tk := f.linkTrack(d.pf, d.pt); tk != nil {
				waitStart = tk.Now()
			}
			deadline := false
			timer.Reset(timeout)
			for !acked && !deadline {
				select {
				case s := <-f.acks[li]:
					if s >= seq {
						acked = true
					}
				case <-timer.C:
					deadline = true
				case <-done:
					// Group closed mid-delivery: abandon the transfer
					// (the receiver is gone) and recycle the staging
					// buffer.
					d.g.releaseMsg(Frame{pb: stage})
					return
				}
			}
			if acked {
				if !timer.Stop() {
					select {
					case <-timer.C:
					default:
					}
				}
				break
			}
			f.timeouts.Add(1)
			f.retries.Add(1)
			if tk := f.linkTrack(d.pf, d.pt); tk != nil {
				tk.Span(obs.PhaseRetry, int32(seq), waitStart, waitStart+obs.Stamp(time.Since(sent)))
			}
		}
		// The staging buffer (which is the original payload when that was
		// pool-owned) is spent: every mailbox insertion was a fresh copy.
		d.g.releaseMsg(Frame{pb: stage})
	}
}
