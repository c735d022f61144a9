package comm

import (
	"fmt"
	"sync/atomic"
	"time"

	"sasgd/internal/metrics"
	"sasgd/internal/obs"
)

// Unified communication statistics. Every send is charged to the
// collective algorithm that issued it: each public collective entry
// point labels its rank with an algorithm id on entry, and sendMsgAt
// charges the message's words to that rank's (algorithm) counter. The
// counters are per-rank — each rank's label and counters are touched
// only by the goroutine currently driving that rank (its learner, or
// its comm worker; the two never run a collective concurrently) — so
// the hot path takes no locks and shares no cache lines across ranks.
// They are atomics anyway so the -debug-addr endpoint can read a
// consistent-enough live snapshot mid-run.
//
// Wire-size convention: one "word" is one float64 payload element, the
// unit the fabric cost model charges (XferTime) and the unit the
// paper's O(m log p) vs O(mp) traffic comparison counts. Sparse
// collectives ship encoded (index, value) pairs, so a k-entry sparse
// message is 2k words, charged by the same
// len(payload) rule as the dense paths; the exact-pin tests in
// stats_test.go keep the two accountings consistent. Bytes reports
// words at the 8-byte float64 wire representation the channels carry.

// algo identifies the collective algorithm a send is charged to.
type algo uint32

const (
	algoP2P    algo = iota // bare Send/Recv outside any collective
	algoTree               // monolithic binomial tree (allreduce/reduce)
	algoPTree              // chunked pipelined binomial tree
	algoSparse             // sparse (index+value) binomial tree
	algoBcast              // binomial-tree broadcast
	algoQuant              // quantized (packed int8/int16) binomial tree
	algoHIntra             // hierarchical intra-island sub-group collectives
	algoHInter             // hierarchical inter-island exchange (leader tree + island fan-out)
	numAlgos
)

var algoNames = [numAlgos]string{
	"p2p", "tree", "ptree", "sparse", "bcast", "quant", "hintra", "hinter",
}

// rankStats is one rank's counters. cur is the algorithm label set by
// the collective entry points; the rest accumulate until ResetStats.
// The trailing pad keeps adjacent ranks' hot counters off one cache
// line.
type rankStats struct {
	cur   atomic.Uint32
	words [numAlgos]atomic.Int64
	msgs  [numAlgos]atomic.Int64

	crossWords atomic.Int64 // words sent across an island boundary (SetIslands)

	mailboxWaitNs atomic.Int64 // recv-side blocking time (tracer-gated)

	// Comm-worker pipeline accounting (bucketed allreduce).
	bucketOps    atomic.Int64
	queueDwellNs atomic.Int64
	workerBusyNs atomic.Int64
	firstBusyNs  atomic.Int64 // first bucket pickup (tracer clock), +1 to distinguish from unset
	lastDoneNs   atomic.Int64 // latest bucket completion (tracer clock)

	_ [40]byte
}

// setAlgo labels the rank's subsequent sends. Called on entry to every
// public collective by the goroutine driving the rank.
func (g *Group) setAlgo(rank int, a algo) { g.stats[rank].cur.Store(uint32(a)) }

// charge accounts one outgoing message from rank `from` to rank `to`
// under from's current algorithm label. Hot path: two uncontended
// atomic adds (three when an island map marks the transfer as crossing
// an island boundary).
func (g *Group) charge(from, to, words int) {
	st := &g.stats[from]
	a := st.cur.Load()
	st.words[a].Add(int64(words))
	st.msgs[a].Add(1)
	if m := g.islandOf.Load(); m != nil && (*m)[from] != (*m)[to] {
		st.crossWords.Add(int64(words))
	}
}

// SetIslands attaches a rank→island map used to account cross-island
// traffic (Stats.CrossWords). islandOf must have one entry per rank;
// nil detaches the map. The map is copied and published atomically, so
// installation may race with in-flight sends (hierarchy construction
// happens per-rank at spawn and per-survivor on a fault re-form, while
// peers are already charging traffic) — a send observes either the old
// or the new map, never a torn one.
func (g *Group) SetIslands(islandOf []int) {
	if islandOf == nil {
		g.islandOf.Store(nil)
		return
	}
	if len(islandOf) != g.p {
		panic(fmt.Sprintf("comm: SetIslands: map covers %d ranks, group has %d", len(islandOf), g.p))
	}
	m := make([]int, g.p)
	copy(m, islandOf)
	g.islandOf.Store(&m)
}

// SetTracer attaches an obs tracer to the group: bucketed comm workers
// record queue-dwell and allreduce spans on per-rank comm tracks, and
// receives measure mailbox blocking time. Call before the learner
// goroutines start; a nil tracer (the default) leaves every probe on
// its nil-check-only fast path.
func (g *Group) SetTracer(tr *obs.Tracer) {
	g.tracer = tr
	g.traceOn = tr != nil
}

// Tracer returns the attached tracer (nil when tracing is off).
func (g *Group) Tracer() *obs.Tracer { return g.tracer }

// AlgoStats is the traffic charged to one collective algorithm. The
// JSON tags fix the wire shape the live /debug/obs endpoint serves
// (obs.LiveSnapshot.Stats carries a Stats value through interface{}).
type AlgoStats struct {
	Words    int64 `json:"words"`    // float64 payload words
	Messages int64 `json:"messages"` // point-to-point messages
}

// FaultStats are the fault-injection and membership counters of a run.
// All-zero without an attached FaultPlan. Drops and Retries come from
// the link daemons (dropped delivery attempts, and ack-timeout
// retransmissions — Timeouts counts the expiries, which the
// stop-and-wait protocol maps 1:1 onto retransmissions); Evictions,
// Reforms and Crashes come from the membership ledger.
type FaultStats struct {
	Drops     int64 `json:"drops"`     // injected message-drop events (per delivery attempt)
	Retries   int64 `json:"retries"`   // retransmissions after an ack timeout
	Timeouts  int64 `json:"timeouts"`  // ack-timeout expiries
	Evictions int64 `json:"evictions"` // ranks evicted by the failure detector
	Reforms   int64 `json:"reforms"`   // survivor group re-formations
	Crashes   int64 `json:"crashes"`   // scheduled learner crashes executed
}

// Sum returns the total event count, the delta signal the metrics fleet
// collector uses to emit fault events exactly when something happened.
func (f FaultStats) Sum() int64 {
	return f.Drops + f.Retries + f.Timeouts + f.Evictions + f.Reforms + f.Crashes
}

// Active reports whether any fault or membership event occurred.
func (f FaultStats) Active() bool {
	return f.Drops != 0 || f.Retries != 0 || f.Timeouts != 0 ||
		f.Evictions != 0 || f.Reforms != 0 || f.Crashes != 0
}

// Stats is a snapshot of the group's communication counters. Safe to
// take mid-run (atomics only); exact once the learners have quiesced.
type Stats struct {
	Words    int64 `json:"words"`    // total float64 words moved, all algorithms
	Messages int64 `json:"messages"` // total point-to-point messages
	Bytes    int64 `json:"bytes"`    // Words at the 8-byte float64 wire representation

	// CrossWords is the subset of Words whose sender and receiver sit in
	// different interconnect islands (zero unless SetIslands attached a
	// map) — the traffic the hierarchical schedule tries to minimize.
	CrossWords int64 `json:"cross_words"`

	// PerAlgo is the traffic by collective algorithm (zero rows omitted);
	// the hintra/hinter rows separate the hierarchical schedule's cheap
	// intra-island sub-collectives from the uplink-crossing exchange.
	PerAlgo map[string]AlgoStats `json:"per_algo,omitempty"`

	MailboxWait time.Duration `json:"mailbox_wait_ns,omitempty"` // total recv-side blocking (tracer-gated; 0 untraced)

	// Bucketed-allreduce pipeline, summed over ranks. Occupancy is the
	// mean over active ranks of busy/(last completion − first pickup):
	// 1.0 means the worker never idled between buckets. Timings are
	// tracer-gated; BucketOps counts regardless.
	BucketOps         int64         `json:"bucket_ops,omitempty"`
	QueueDwell        time.Duration `json:"queue_dwell_ns,omitempty"`
	WorkerBusy        time.Duration `json:"worker_busy_ns,omitempty"`
	PipelineOccupancy float64       `json:"pipeline_occupancy,omitempty"`

	// Faults holds the fault-injection and membership counters (all zero
	// without an attached FaultPlan). When the membership layer re-forms
	// groups mid-run, the fabric — and so this block — spans the whole
	// run regardless of which group's Stats() is asked.
	Faults FaultStats `json:"faults"`
}

// Stats returns the current counter snapshot.
func (g *Group) Stats() Stats {
	var s Stats
	s.PerAlgo = make(map[string]AlgoStats, numAlgos)
	var occSum float64
	var occN int
	for r := range g.stats {
		st := &g.stats[r]
		for a := algo(0); a < numAlgos; a++ {
			w, m := st.words[a].Load(), st.msgs[a].Load()
			if w == 0 && m == 0 {
				continue
			}
			as := s.PerAlgo[algoNames[a]]
			as.Words += w
			as.Messages += m
			s.PerAlgo[algoNames[a]] = as
			s.Words += w
			s.Messages += m
		}
		s.CrossWords += st.crossWords.Load()
		s.MailboxWait += time.Duration(st.mailboxWaitNs.Load())
		s.BucketOps += st.bucketOps.Load()
		s.QueueDwell += time.Duration(st.queueDwellNs.Load())
		busy := st.workerBusyNs.Load()
		s.WorkerBusy += time.Duration(busy)
		if first := st.firstBusyNs.Load(); first != 0 {
			if span := st.lastDoneNs.Load() - (first - 1); span > 0 {
				occSum += float64(busy) / float64(span)
				occN++
			}
		}
	}
	if occN > 0 {
		s.PipelineOccupancy = occSum / float64(occN)
	}
	s.Bytes = 8 * s.Words
	if g.fab != nil {
		s.Faults = g.fab.faultCounts()
	}
	return s
}

// MergeTraffic folds another snapshot's traffic, wait and pipeline
// counters into s. The membership layer uses it to aggregate across the
// groups of a re-formed run; the Faults block is intentionally NOT
// merged (the fabric is shared, so each group already reports the
// run-wide counts — adding them would double-count). Occupancy merges
// as the bucket-op-weighted mean.
func (s *Stats) MergeTraffic(o Stats) {
	if s.BucketOps+o.BucketOps > 0 {
		s.PipelineOccupancy = (s.PipelineOccupancy*float64(s.BucketOps) +
			o.PipelineOccupancy*float64(o.BucketOps)) / float64(s.BucketOps+o.BucketOps)
	}
	s.Words += o.Words
	s.Messages += o.Messages
	s.Bytes += o.Bytes
	s.CrossWords += o.CrossWords
	for name, as := range o.PerAlgo {
		if s.PerAlgo == nil {
			s.PerAlgo = make(map[string]AlgoStats, len(o.PerAlgo))
		}
		cur := s.PerAlgo[name]
		cur.Words += as.Words
		cur.Messages += as.Messages
		s.PerAlgo[name] = cur
	}
	s.MailboxWait += o.MailboxWait
	s.BucketOps += o.BucketOps
	s.QueueDwell += o.QueueDwell
	s.WorkerBusy += o.WorkerBusy
}

// WordsSent returns the total number of float64 words sent through the
// group so far (point-to-point only; server traffic is accounted by the
// server). Equivalent to Stats().Words; kept as the compact accessor
// the traffic-pinned tests use.
func (g *Group) WordsSent() int64 {
	var w int64
	for r := range g.stats {
		for a := algo(0); a < numAlgos; a++ {
			w += g.stats[r].words[a].Load()
		}
	}
	return w
}

// TrafficTotals sums the group's traffic counters without building the
// Stats map: total words, the cross-island subset, and the hierarchical
// intra/inter-island rows. The metrics fleet collector samples it at
// every aggregation boundary, so unlike Stats() it must not allocate.
func (g *Group) TrafficTotals() (words, cross, hintra, hinter int64) {
	for r := range g.stats {
		st := &g.stats[r]
		for a := algo(0); a < numAlgos; a++ {
			words += st.words[a].Load()
		}
		cross += st.crossWords.Load()
		hintra += st.words[algoHIntra].Load()
		hinter += st.words[algoHInter].Load()
	}
	return words, cross, hintra, hinter
}

// FaultCounts returns the fabric's fault-injection and membership
// counters (zero value when the group has no fault fabric). Alloc-free,
// boundary-rate safe, unlike the full Stats() snapshot.
func (g *Group) FaultCounts() FaultStats {
	if g.fab == nil {
		return FaultStats{}
	}
	return g.fab.faultCounts()
}

// ResetStats zeroes every counter (traffic, mailbox wait, pipeline),
// so a caller can scope accounting to a phase of a run. Must not race
// with in-flight collectives.
func (g *Group) ResetStats() {
	for r := range g.stats {
		st := &g.stats[r]
		for a := algo(0); a < numAlgos; a++ {
			st.words[a].Store(0)
			st.msgs[a].Store(0)
		}
		st.crossWords.Store(0)
		st.mailboxWaitNs.Store(0)
		st.bucketOps.Store(0)
		st.queueDwellNs.Store(0)
		st.workerBusyNs.Store(0)
		st.firstBusyNs.Store(0)
		st.lastDoneNs.Store(0)
	}
}

// String renders the snapshot as an aligned table (internal/metrics
// style), one row per algorithm plus a totals row, followed by the
// pipeline lines when the bucketed path ran.
func (s Stats) String() string {
	tab := metrics.Table{
		Title:  "comm traffic",
		Header: []string{"algo", "words", "messages", "bytes"},
	}
	for a := algo(0); a < numAlgos; a++ {
		as, ok := s.PerAlgo[algoNames[a]]
		if !ok {
			continue
		}
		tab.AddRow(algoNames[a], fmt.Sprint(as.Words), fmt.Sprint(as.Messages), fmt.Sprint(8*as.Words))
	}
	tab.AddRow("total", fmt.Sprint(s.Words), fmt.Sprint(s.Messages), fmt.Sprint(s.Bytes))
	out := tab.String()
	if s.CrossWords > 0 {
		out += fmt.Sprintf("cross-island words: %d\n", s.CrossWords)
	}
	if s.MailboxWait > 0 {
		out += fmt.Sprintf("mailbox wait: %v\n", s.MailboxWait)
	}
	if s.BucketOps > 0 {
		out += fmt.Sprintf("bucketed pipeline: %d ops, dwell %v, busy %v, occupancy %.2f\n",
			s.BucketOps, s.QueueDwell, s.WorkerBusy, s.PipelineOccupancy)
	}
	if f := s.Faults; f.Active() {
		out += fmt.Sprintf("faults: %d drops, %d retries, %d timeouts, %d crashes, %d evictions, %d re-forms\n",
			f.Drops, f.Retries, f.Timeouts, f.Crashes, f.Evictions, f.Reforms)
	}
	return out
}
