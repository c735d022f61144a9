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
// property tests predict the drop counters exactly.
//
// A message's fate is decided when it is sent (Group.sendMsg): it takes
// its link's next sequence number, the plan's hash is replayed over
// delivery attempts 0, 1, … until one survives, every dropped attempt
// is charged to the sender's traffic and counted, and the frame is then
// sent once, carrying the plan's delay into simulated time. A dropped
// attempt's resend departs with it, so a drop costs words, never
// simulated seconds, and the transport below stays the reliable FIFO it
// is — faults cost traffic and time, never bits.

// Link identifies one directed learner-to-learner link by physical rank.
type Link struct{ From, To int }

// Burst is a transient outage on one directed link: the first delivery
// attempt of every message with sequence number in [Start, Start+N) is
// dropped. The resend passes, so the outage shows as N drops in Stats
// and the trace.
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

	// Drop, in [0,1), is the per-delivery-attempt probability that a
	// data message is lost on the wire (all links). Each resend draws a
	// fresh decision, so a message needs k+1 attempts with probability
	// Drop^k·(1-Drop).
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
	defaultEvictAfter = 250 * time.Millisecond
	defaultSimEvict   = 0.25
	defaultSlowSleep  = 100 * time.Microsecond
)

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

// ParseFaultPlan parses the compact comma-separated spec the -faults
// flag carries:
//
//	seed=N            decision seed (default 1)
//	drop=F            per-attempt drop probability on every link
//	delay=M[~J]       extra simulated seconds per message, mean M ± J
//	slow=R:K          slow rank R by factor K (repeatable)
//	crash=R@B         crash rank R at aggregation boundary B (repeatable)
//	burst=F>T@S+N     drop first attempts of seqs [S,S+N) on link F→T
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
// run: per-link sequence numbers and the fault counters. It outlives any
// one Group — when the membership layer re-forms a smaller group after
// an eviction, the new group attaches to the same fabric, so sequence
// continuity, counters, and trace tracks span the whole run.
type faultFabric struct {
	plan *FaultPlan
	p    int // physical rank count

	seq []atomic.Int64 // [from*p+to] next sequence number on the link

	drops   atomic.Int64
	evicts  atomic.Int64
	reforms atomic.Int64
	crashes atomic.Int64

	tracer *obs.Tracer
	// linkTracks are the per-link fabric trace tracks, created lazily on
	// the link's first drop.
	ltMu       sync.Mutex
	linkTracks map[Link]*obs.Track
}

// newFaultFabric builds the shared fabric state for p physical ranks.
func newFaultFabric(p int, plan *FaultPlan, tracer *obs.Tracer) *faultFabric {
	return &faultFabric{plan: plan, p: p, seq: make([]atomic.Int64, p*p), tracer: tracer}
}

// fate decides the next message on the physical link from→to: it takes
// the link's next sequence number, counts and traces every delivery
// attempt the plan drops before one survives, and returns that count
// with the message's injected delay.
func (f *faultFabric) fate(from, to int) (drops int, delay float64) {
	seq := f.seq[f.linkIdx(from, to)].Add(1) - 1
	for f.dropAttempt(from, to, seq, drops) {
		drops++
	}
	if drops > 0 {
		f.drops.Add(int64(drops))
		if tk := f.linkTrack(from, to); tk != nil {
			now := tk.Now()
			for range drops {
				tk.Span(obs.PhaseDrop, int32(seq), now, now)
			}
		}
	}
	return drops, f.delayFor(from, to, seq)
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
		Evictions: f.evicts.Load(),
		Reforms:   f.reforms.Load(),
		Crashes:   f.crashes.Load(),
	}
}
