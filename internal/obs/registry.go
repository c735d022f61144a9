package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// The metrics registry: counters, gauges and sample rings that the fleet
// view (fleet.go) publishes at boundary cadence, plus the NDJSON event
// log. It follows the Track contract: a nil *Registry hands out nil
// instruments whose methods are nil-check no-ops, registration is
// mutexed (once per name; every caller gets the same instrument) and
// recording is plain atomics on preallocated state. The registry keeps
// no clock of its own: every stamp it stores (sample rings, events) is
// passed in by the caller, read from a learner's Track — the tracer's
// epoch — so the event log and the Chrome trace share one time axis.

// Registry owns a run's instruments. The zero value is not usable; call
// NewRegistry.
type Registry struct {
	mu       sync.Mutex
	byKey    map[string]interface{} // name -> instrument (idempotent registration)
	counters []*Counter
	gauges   []*Gauge
	rings    []*SampleRing

	events atomic.Pointer[EventLog]
	fleet  atomic.Pointer[Fleet]
}

// NewRegistry returns an enabled registry.
func NewRegistry() *Registry {
	return &Registry{byKey: make(map[string]interface{})}
}

// register interns an instrument under its name. make is called
// under the registry lock only when the name is new; an existing entry
// of a different kind panics (a metric name identifies one kind).
func register[T any](r *Registry, name string, make func() *T, keep func(*T)) *T {
	r.mu.Lock()
	defer r.mu.Unlock()
	if got, ok := r.byKey[name]; ok {
		t, ok := got.(*T)
		if !ok {
			panic(fmt.Sprintf("obs: metric %q re-registered as a different kind", name))
		}
		return t
	}
	t := make()
	r.byKey[name] = t
	keep(t)
	return t
}

// Counter is a monotonically increasing count. All methods are nil-safe
// single atomics.
type Counter struct {
	v    atomic.Int64
	name string
}

// Counter registers (or returns the existing) counter under name.
// Nil-safe: a nil registry returns a nil counter.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	return register(r, name, func() *Counter { return &Counter{name: name} },
		func(c *Counter) { r.counters = append(r.counters, c) })
}

// Add increments the counter by n (no-op on nil).
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one (no-op on nil).
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 on nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a last-value-wins float64, stored as bits in a uint64 so
// reads and writes are single atomics.
type Gauge struct {
	bits atomic.Uint64
	name string
}

// Gauge registers (or returns the existing) gauge. Nil-safe.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	return register(r, name, func() *Gauge { return &Gauge{name: name} },
		func(g *Gauge) { r.gauges = append(r.gauges, g) })
}

// Set stores v (no-op on nil).
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// SetInt stores an integer value (no-op on nil).
func (g *Gauge) SetInt(v int64) { g.Set(float64(v)) }

// Value returns the current value (0 on nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// SampleRing is a single-writer time series: a preallocated ring of
// (stamp, value) samples whose count is published atomically after each
// slot write, exactly the Track ring discipline. Snapshots taken mid-run
// see a consistent prefix; the full ring is exact once the writer has
// quiesced.
type SampleRing struct {
	stamps []int64
	vals   []float64
	n      atomic.Int64
	name   string
}

// Ring registers (or returns the existing) sample ring holding the most
// recent capacity (> 0) samples. Nil-safe.
func (r *Registry) Ring(name string, capacity int) *SampleRing {
	if r == nil {
		return nil
	}
	return register(r, name, func() *SampleRing {
		return &SampleRing{stamps: make([]int64, capacity), vals: make([]float64, capacity), name: name}
	}, func(s *SampleRing) { r.rings = append(r.rings, s) })
}

// RecordAt appends a sample stamped at stamp (no-op on nil). Single
// writer only, like Track.record.
func (s *SampleRing) RecordAt(stamp int64, v float64) {
	if s == nil {
		return
	}
	i := s.n.Load()
	slot := i % int64(len(s.vals))
	s.stamps[slot] = stamp
	s.vals[slot] = v
	// Publish after the slot write so concurrent snapshot readers never
	// observe slot i half-written.
	s.n.Store(i + 1)
}

// Len returns the number of samples ever recorded (0 on nil).
func (s *SampleRing) Len() int {
	if s == nil {
		return 0
	}
	return int(s.n.Load())
}

// Samples returns the retained samples oldest-first. Mid-run it returns
// the published prefix; exact once the writer has quiesced.
func (s *SampleRing) Samples() (stamps []int64, vals []float64) {
	if s == nil {
		return nil, nil
	}
	n := s.n.Load()
	c := int64(len(s.vals))
	if n <= c {
		return append([]int64(nil), s.stamps[:n]...), append([]float64(nil), s.vals[:n]...)
	}
	head := n % c
	stamps = make([]int64, c)
	vals = make([]float64, c)
	copy(stamps, s.stamps[head:])
	copy(stamps[c-head:], s.stamps[:head])
	copy(vals, s.vals[head:])
	copy(vals[c-head:], s.vals[:head])
	return stamps, vals
}

// snapshotLists returns stable copies of the instrument lists, sorted
// by name so exports are deterministic.
func (r *Registry) snapshotLists() (cs []*Counter, gs []*Gauge, rs []*SampleRing) {
	r.mu.Lock()
	cs = append(cs, r.counters...)
	gs = append(gs, r.gauges...)
	rs = append(rs, r.rings...)
	r.mu.Unlock()
	sort.Slice(cs, func(i, j int) bool { return cs[i].name < cs[j].name })
	sort.Slice(gs, func(i, j int) bool { return gs[i].name < gs[j].name })
	sort.Slice(rs, func(i, j int) bool { return rs[i].name < rs[j].name })
	return
}

// SetEvents attaches an NDJSON event sink (nil detaches). Nil-safe.
func (r *Registry) SetEvents(l *EventLog) {
	if r == nil {
		return
	}
	r.events.Store(l)
}

// Events returns the attached event sink (nil when none or on nil).
func (r *Registry) Events() *EventLog {
	if r == nil {
		return nil
	}
	return r.events.Load()
}

// Fleet returns the attached fleet view (nil when none or on nil).
func (r *Registry) Fleet() *Fleet {
	if r == nil {
		return nil
	}
	return r.fleet.Load()
}

// The NDJSON structured event log: one JSON object per line for the
// run's discrete state changes — aggregation boundaries, T-scheduler
// moves, membership changes, fault-counter movement and anomaly flags.
// Events are emitted at boundary cadence by the boundary's virtual rank
// 0 only, so the log's mutex never sits on a hot path.

// Event types.
const (
	EventBoundary   = "boundary"   // an aggregation boundary completed
	EventTChange    = "t_change"   // the effective communication period moved
	EventMembership = "membership" // the live rank set changed
	EventFault      = "fault"      // fault counters moved (crashes/evictions/re-forms)
	EventAnomaly    = "anomaly"    // the straggler detector flagged a rank
)

// Event is one NDJSON record. TNs is ns since the tracer's epoch, the
// time axis of the Chrome trace.
type Event struct {
	TNs      int64   `json:"t_ns"`
	Type     string  `json:"type"`
	Rank     int     `json:"rank,omitempty"`
	Boundary int     `json:"boundary,omitempty"`
	T        int     `json:"t,omitempty"`
	Live     int     `json:"live,omitempty"`
	Value    float64 `json:"value,omitempty"`
	Note     string  `json:"note,omitempty"`
}

// EventLog writes events as NDJSON to a writer. All methods are
// nil-safe; writes are serialized by a mutex (boundary cadence only).
type EventLog struct {
	mu  sync.Mutex
	enc *json.Encoder
	n   atomic.Int64
	err error // first write error; guarded by mu
}

// NewEventLog returns an event log writing NDJSON to w.
func NewEventLog(w io.Writer) *EventLog {
	return &EventLog{enc: json.NewEncoder(w)}
}

// Emit writes one event line (no-op on nil). The first write error is
// retained (Err) and later emits are dropped.
func (l *EventLog) Emit(ev Event) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return
	}
	if l.err = l.enc.Encode(ev); l.err == nil {
		l.n.Add(1)
	}
}

// Count returns the number of events written (0 on nil).
func (l *EventLog) Count() int64 {
	if l == nil {
		return 0
	}
	return l.n.Load()
}

// Err returns the first write error, if any (nil on nil).
func (l *EventLog) Err() error {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.err
}
