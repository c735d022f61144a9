// Package obs is the run's one telemetry plane. A low-overhead span
// recorder (Track) is the only clock: core, comm and nn time each
// instrumented cut once, as a span, and everything else reads those
// spans — a Chrome trace-event (Perfetto) JSON timeline, the per-phase
// sums of the end-of-run report (Sums), and the fleet health frame,
// whose compute time is the learner track's forward + backward total
// (Track.PhaseNs). Beside the spans sit the fleet view and its
// straggler detector (fleet.go).
//
// Design constraints, in priority order:
//
//  1. The disabled path must be provably free. Every recording method is
//     defined on a nil-able *Track and begins with a nil check; with
//     tracing off (the default) the instrumented hot paths pay one
//     predicted branch per probe and zero allocations (pinned by
//     AllocsPerRun tests here and in internal/comm).
//  2. The enabled path must stay off the heap and off shared locks.
//     Each Track is a preallocated ring of spans written by exactly one
//     goroutine (its learner, or its rank's comm runner); timestamps
//     come from the monotonic clock (time.Since of the tracer's epoch);
//     the span count and the per-phase totals are atomics, so PhaseNs
//     and Sums are race-free from any goroutine, mid-run included.
//  3. Exported timelines must be faithful: spans on one track are
//     emitted as properly nested begin/end pairs in timestamp order, so
//     a delayed run visibly shows its in-flight allreduce on the
//     comm-worker track while the learner track is already inside the
//     next interval's compute.
package obs

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Phase identifies one instrumented span type. The set covers the SASGD
// hot path end to end: the three compute phases of a local step, the
// aggregation phases of the T-th minibatch, and the comm-worker phases
// of an in-flight exchange.
type Phase uint8

// The instrumented phases.
const (
	PhaseForward    Phase = iota // model forward + loss
	PhaseBackward                // backprop
	PhaseLocalStep               // local update x ← x − γ·g and gs += g
	PhaseAggWait                 // blocking wait for the interval's allreduce(s)
	PhaseAggApply                // apply γp·gs to x′, reset replica, clear gs
	PhaseQueueDwell              // comm worker: a launch's wait before the runner picks it up
	PhaseAllreduce               // comm worker: a launch's exchange
	PhaseBcast                   // initial parameter broadcast
	PhaseCompress                // compression codec: residual fold + select/quantize + encode
	PhaseEval                    // epoch-end accuracy evaluation on rank 0
	NumPhases                    // number of phases (array sizing)
)

var phaseNames = [NumPhases]string{
	"forward", "backward", "local_step",
	"agg_wait", "agg_apply", "queue_dwell", "allreduce", "bcast",
	"compress", "eval",
}

// String returns the phase's snake_case name (also the span name in the
// exported trace).
func (p Phase) String() string {
	if int(p) < len(phaseNames) {
		return phaseNames[p]
	}
	return "unknown"
}

// NoArg marks a span that carries no argument.
const NoArg int32 = -1

// span is one recorded interval. 32 bytes so the default ring stays
// cache- and memory-friendly.
type span struct {
	start int64 // ns since the tracer's epoch
	dur   int64 // ns
	phase Phase
	arg   int32 // bucket index etc., NoArg when none
}

// phaseAgg is a track's per-phase aggregate, readable while the run is
// in flight and exact however small the ring.
type phaseAgg struct {
	count atomic.Int64
	ns    atomic.Int64
}

// Track is one timeline of spans — a learner, or a rank's comm worker.
// All recording methods are single-writer (the owning goroutine) and
// nil-safe: calling them on a nil *Track is the disabled fast path and
// does nothing beyond the nil check.
type Track struct {
	tr      *Tracer
	process string // trace process group ("learner", "comm")
	name    string // thread name within the group
	pid     int
	tid     int

	spans []span       // ring, preallocated at NewTrack
	n     atomic.Int64 // spans ever recorded; ring slot is n % len(spans)
	agg   [NumPhases]phaseAgg
}

// Stamp is a moment on the tracer's monotonic clock, produced by Begin
// and consumed by End.
type Stamp int64

// Begin reads the clock for a span that End will close. On a nil track
// it returns 0 without touching the clock.
func (t *Track) Begin() Stamp {
	if t == nil {
		return 0
	}
	return Stamp(t.tr.now())
}

// End records a span of the given phase from s to now. No-op on a nil
// track. The write path touches only the track's preallocated ring and
// its own atomics — no locks, no allocation.
func (t *Track) End(ph Phase, s Stamp) {
	if t == nil {
		return
	}
	t.record(ph, NoArg, int64(s), t.tr.now())
}

// EndArg is End carrying a span argument (e.g. the bucket index).
func (t *Track) EndArg(ph Phase, arg int32, s Stamp) {
	if t == nil {
		return
	}
	t.record(ph, arg, int64(s), t.tr.now())
}

// Span records an interval with explicit stamps, for spans measured on
// one goroutine and recorded on another (the comm runner records queue
// dwell from the launch's stamp).
func (t *Track) Span(ph Phase, arg int32, begin, end Stamp) {
	if t == nil {
		return
	}
	t.record(ph, arg, int64(begin), int64(end))
}

// Now reads the tracer's clock (0 on a nil track); used to stamp
// cross-goroutine spans recorded later via Span.
func (t *Track) Now() Stamp {
	if t == nil {
		return 0
	}
	return Stamp(t.tr.now())
}

func (t *Track) record(ph Phase, arg int32, start, end int64) {
	i := t.n.Load()
	t.spans[i%int64(len(t.spans))] = span{start: start, dur: end - start, phase: ph, arg: arg}
	// Publish after the slot write so concurrent aggregate readers never
	// see slot i; the ring contents themselves are only read after the
	// writers have quiesced (export/profile) — see Tracer doc.
	t.n.Store(i + 1)
	t.agg[ph].count.Add(1)
	t.agg[ph].ns.Add(end - start)
}

// PhaseNs returns the total ns of every span of phase ph recorded on the
// track so far (0 on a nil track). It reads the live aggregate, so it is
// exact however small the ring, and safe from any goroutine.
func (t *Track) PhaseNs(ph Phase) int64 {
	if t == nil {
		return 0
	}
	return t.agg[ph].ns.Load()
}

// Len returns the number of spans ever recorded (recorded, not
// retained: the ring keeps the most recent Cap()).
func (t *Track) Len() int {
	if t == nil {
		return 0
	}
	return int(t.n.Load())
}

// Cap returns the ring capacity in spans.
func (t *Track) Cap() int {
	if t == nil {
		return 0
	}
	return len(t.spans)
}

// Dropped returns how many early spans the ring has overwritten.
func (t *Track) Dropped() int {
	if d := t.Len() - t.Cap(); d > 0 {
		return d
	}
	return 0
}

// retained returns the retained spans oldest-first. Only valid once the
// writing goroutine has quiesced.
func (t *Track) retained() []span {
	n := t.n.Load()
	c := int64(len(t.spans))
	if n <= c {
		return t.spans[:n]
	}
	// Ring wrapped: unfold oldest-first.
	out := make([]span, c)
	head := n % c
	copy(out, t.spans[head:])
	copy(out[c-head:], t.spans[:head])
	return out
}

// DefaultTrackSpans is the default ring capacity per track: 16384 spans
// (512 KiB). A reduced-scale traced run records a few thousand spans
// per track; longer runs keep the most recent window.
const DefaultTrackSpans = 1 << 14

// Tracer owns a run's tracks and the shared monotonic epoch. Track
// creation is locked (it happens once per learner at run setup); span
// recording is per-track and lock-free. Export and profiles read the
// rings and must run after the recording goroutines have finished (end
// of run); the per-phase totals are safe at any time.
type Tracer struct {
	epoch    time.Time
	trackCap int
	nowFn    func() int64 // test hook; nil = monotonic clock
	mu       sync.Mutex
	tracks   []*Track
}

// NewTracer returns a tracer whose tracks hold trackSpans spans each
// (≤ 0 selects DefaultTrackSpans).
func NewTracer(trackSpans int) *Tracer {
	if trackSpans <= 0 {
		trackSpans = DefaultTrackSpans
	}
	return &Tracer{epoch: time.Now(), trackCap: trackSpans}
}

func (tr *Tracer) now() int64 {
	if tr.nowFn != nil {
		return tr.nowFn()
	}
	return int64(time.Since(tr.epoch))
}

// Trace process ids of the standard track groups.
const (
	pidLearner = 1
	pidComm    = 2
)

// NewTrack registers a new track under the given process group name and
// thread name/ids. Nil-safe: returns nil (the disabled track) on a nil
// tracer, so call sites wire tracks unconditionally.
func (tr *Tracer) NewTrack(process, name string, pid, tid int) *Track {
	if tr == nil {
		return nil
	}
	t := &Track{tr: tr, process: process, name: name, pid: pid, tid: tid,
		spans: make([]span, tr.trackCap)}
	tr.mu.Lock()
	tr.tracks = append(tr.tracks, t)
	tr.mu.Unlock()
	return t
}

// Learner returns a new track on the learner process group for the
// given rank (nil on a nil tracer).
func (tr *Tracer) Learner(rank int) *Track {
	if tr == nil {
		return nil
	}
	return tr.NewTrack("learner", fmt.Sprintf("learner %d", rank), pidLearner, rank)
}

// CommWorker returns a new track on the comm-worker process group for
// the given rank (nil on a nil tracer).
func (tr *Tracer) CommWorker(rank int) *Track {
	if tr == nil {
		return nil
	}
	return tr.NewTrack("comm", fmt.Sprintf("comm worker %d", rank), pidComm, rank)
}

// Tracks returns the registered tracks in creation order.
func (tr *Tracer) Tracks() []*Track {
	if tr == nil {
		return nil
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return append([]*Track(nil), tr.tracks...)
}
