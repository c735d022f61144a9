package comm

import (
	"fmt"
	"sync/atomic"
	"time"

	"sasgd/internal/obs"
)

// Unified communication statistics. Every send is charged to the
// collective algorithm that issued it: each public collective entry
// point labels its rank with an algorithm id on entry, and each send
// charges the message's words to that rank's (algorithm) counter. The
// counters are per-rank — each rank's label and counters are touched
// only by the goroutine currently driving that rank (its learner, or
// its Runner; the two never run a collective concurrently) — so
// the hot path takes no locks and shares no cache lines across ranks.
// They are atomics anyway so a Stats snapshot taken from another
// goroutine is race-free.
//
// Wire-size convention: one "word" is one float64 payload element, the
// unit the fabric cost model charges (XferTime) and the unit the
// paper's O(m log p) vs O(mp) traffic comparison counts. Sparse
// collectives ship encoded (index, value) pairs, so a k-entry sparse
// message is 2k words, charged by the same
// len(payload) rule as the dense paths; the exact-pin tests in
// stats_test.go keep the two accountings consistent.

// algo identifies the collective algorithm a send is charged to.
type algo uint32

const (
	algoP2P    algo = iota // bare Send/Recv outside any collective
	algoTree               // binomial tree (allreduce/reduce)
	algoSparse             // sparse (index+value) binomial tree
	algoBcast              // binomial-tree broadcast
	algoQuant              // quantized (packed int8/int16) binomial tree
	algoHIntra             // hierarchical intra-island sub-group collectives
	algoHInter             // hierarchical inter-island exchange (leader tree + island fan-out)
	numAlgos
)

var algoNames = [numAlgos]string{
	"p2p", "tree", "sparse", "bcast", "quant", "hintra", "hinter",
}

// rankStats is one rank's counters. cur is the algorithm label set by
// the collective entry points; the rest accumulate for the group's life.
// The trailing pad keeps adjacent ranks' hot counters off one cache
// line.
type rankStats struct {
	cur   atomic.Uint32
	words [numAlgos]atomic.Int64
	msgs  [numAlgos]atomic.Int64

	crossWords atomic.Int64 // words sent across an island boundary (SetIslands)

	mailboxWaitNs atomic.Int64 // recv-side blocking time (tracer-gated)

	// In-flight exchange accounting (Runner).
	launches     atomic.Int64
	queueDwellNs atomic.Int64
	workerBusyNs atomic.Int64
	firstBusyNs  atomic.Int64 // first launch pickup (tracer clock), +1 to distinguish from unset
	lastDoneNs   atomic.Int64 // latest launch completion (tracer clock)

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
// happens per rank at spawn, while peers are already charging traffic)
// — a send observes either the old or the new map, never a torn one.
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

// SetTracer attaches an obs tracer to the group: Runners record
// queue-dwell and allreduce spans on per-rank comm tracks, and
// receives measure mailbox blocking time. Call before the learner
// goroutines start; a nil tracer (the default) leaves every probe on
// its nil-check-only fast path.
func (g *Group) SetTracer(tr *obs.Tracer) {
	g.tracer = tr
	g.traceOn = tr != nil
}

// AlgoStats is the traffic charged to one collective algorithm. The
// JSON tags fix the shape `experiments -json` writes (core.Result
// carries a Stats value).
type AlgoStats struct {
	Words    int64 `json:"words"`    // float64 payload words
	Messages int64 `json:"messages"` // point-to-point messages
}

// Stats is a snapshot of the group's communication counters. Safe to
// take mid-run (atomics only); exact once the learners have quiesced.
type Stats struct {
	Words    int64 `json:"words"`    // total float64 words moved, all algorithms
	Messages int64 `json:"messages"` // total point-to-point messages

	// CrossWords is the subset of Words whose sender and receiver sit in
	// different interconnect islands (zero unless SetIslands attached a
	// map) — the traffic the hierarchical schedule tries to minimize.
	CrossWords int64 `json:"cross_words"`

	// PerAlgo is the traffic by collective algorithm (zero rows omitted);
	// the hintra/hinter rows separate the hierarchical schedule's cheap
	// intra-island sub-collectives from the uplink-crossing exchange.
	PerAlgo map[string]AlgoStats `json:"per_algo,omitempty"`

	MailboxWait time.Duration `json:"mailbox_wait_ns,omitempty"` // total recv-side blocking (tracer-gated; 0 untraced)

	// In-flight exchanges (Runner launches), summed over ranks.
	// Occupancy is the mean over active ranks of busy/(last completion −
	// first pickup): 1.0 means the runner never idled between launches.
	// Timings are tracer-gated; Launches counts regardless.
	Launches          int64         `json:"launches,omitempty"`
	QueueDwell        time.Duration `json:"queue_dwell_ns,omitempty"`
	WorkerBusy        time.Duration `json:"worker_busy_ns,omitempty"`
	PipelineOccupancy float64       `json:"pipeline_occupancy,omitempty"`
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
		s.Launches += st.launches.Load()
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
	return s
}
