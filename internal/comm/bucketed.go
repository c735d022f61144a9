package comm

import (
	"fmt"
	"runtime"
	"sync"

	"sasgd/internal/obs"
)

// Bucketed, asynchronous allreduce: the communication half of SASGD's
// backward-overlapped aggregation. The flat gradient buffer is split at
// fixed layer boundaries into buckets; as the backward pass finalizes a
// bucket (layers finalize in reverse order, so the buckets near the end
// of the buffer are ready while the first layers are still
// backpropagating), the learner hands it to a per-rank communication
// worker and keeps computing. Each bucket is reduced with the existing
// pooled tree machinery over the same Group, so all of PR 2's guarantees
// carry over: zero steady-state allocations, per-directed-link
// serialization in the fabric simulation, and — because every bucket
// replays the monolithic binomial tree's per-element summation order on
// its own slice — a concatenated result that is bitwise identical to a
// single whole-buffer "tree"/"ptree" allreduce at every bucket partition.
//
// Ordering discipline. A Group's collectives require every rank to walk
// the same collectives in the same order. BucketedAllreduce preserves
// that with ONE worker goroutine per rank draining a FIFO queue: callers
// must Begin buckets in the same order on every rank (SASGD's backward
// pass does — the bucket plan and the layer finalization order are
// identical across replicas), and the worker then executes them in that
// shared order. Buckets are therefore *pipelined*, not interleaved: the
// overlap is between communication and the rest of the backward pass
// (and, within a bucket, between the chunked tree's reduce and broadcast
// streams), never between two buckets' wire schedules — which also
// matches the physical platform, where one PCIe link per learner would
// serialize concurrent bucket transfers anyway, and keeps simulated
// times and mailbox matching deterministic.
//
// Deadlock freedom extends PR 2's argument unchanged: the global message
// order gains a major key (bucket index, then chunk, then tree level)
// that every rank walks identically, so the receive-dependency graph
// stays acyclic; mailboxes still see at most one collective's traffic at
// a time per pair *per position in the order*, and a rank running ahead
// into later buckets can only block on a full mailbox whose receiver is
// draining strictly earlier traffic.

// Segment is one contiguous [Off, Off+Len) range of a flat buffer — a
// bucket of the bucketed allreduce. Core builds these from
// nn.ParamSegments by grouping adjacent layers.
type Segment struct {
	Off int
	Len int
}

// Handle tracks one in-flight bucket allreduce. It is a value type so
// steady-state Begin/Wait cycles allocate nothing.
type Handle struct {
	done chan struct{}
}

// Wait blocks until the bucket's allreduce has completed. The bucket's
// slice then holds the global sum on every rank (once every rank's
// matching Wait returns).
func (h Handle) Wait() { <-h.done }

// op identifiers for the worker.
const (
	opTree = iota // chunked pipelined binomial tree (bitwise tree order)
	opComp        // compression codec collective (Compressor.Allreduce)
	opHier        // hierarchical inter-island exchange (Hier.AllreduceInter)
)

// bucketOp is one submitted bucket; ops are preallocated per bucket and
// recycled every interval, keeping steady state allocation-free.
type bucketOp struct {
	buf   []float64
	res   []float64  // compressed ops: the bucket's residual slice
	comp  Compressor // compressed ops: the learner's codec
	ratio float64    // compressed ops: sparsity knob
	hier  *Hier      // hierarchical ops: the inter-island schedule
	chunk int
	ready float64
	kind  int
	idx   int32     // bucket index, the span argument on the comm track
	subAt obs.Stamp // submission stamp (queue-dwell span start; 0 untraced)
	done  chan struct{}
}

// BucketedAllreduce runs asynchronous per-bucket allreduces for one rank
// of a group. All ranks must create workers over the same segments and
// Begin buckets in the same order.
type BucketedAllreduce struct {
	g    *Group
	rank int
	segs []Segment
	ops  []bucketOp
	// queue feeds the worker; its capacity is the inflight window, so a
	// Begin beyond it applies backpressure to the submitting (compute)
	// goroutine instead of queueing unboundedly.
	queue chan *bucketOp
	wg    sync.WaitGroup
	// tk is the rank's comm-worker trace track (nil when the group has
	// no tracer — every probe is then a nil check).
	tk *obs.Track
	// deferred, when set, routes the clock syncs of every op the worker
	// executes into a DeferSync sink instead of the rank's clock (see
	// SetDeferSync).
	deferred *DeferSync
}

// NewBucketedAllreduce returns the per-rank worker for a fixed bucket
// partition of a flat buffer. segments must be identical on every rank
// (they are a pure function of the model and the bucket knob).
// maxInflight bounds how many buckets may be pending — submitted and not
// yet finished — before Begin blocks; values < 1 select len(segments)
// (backward never stalls on communication).
func NewBucketedAllreduce(g *Group, rank int, segments []Segment, maxInflight int) *BucketedAllreduce {
	if len(segments) == 0 {
		panic("comm: NewBucketedAllreduce with no segments")
	}
	for i, s := range segments {
		if s.Len <= 0 || s.Off < 0 {
			panic(fmt.Sprintf("comm: NewBucketedAllreduce segment %d invalid: %+v", i, s))
		}
	}
	if maxInflight < 1 {
		maxInflight = len(segments)
	}
	b := &BucketedAllreduce{
		g:     g,
		rank:  rank,
		segs:  segments,
		ops:   make([]bucketOp, len(segments)),
		queue: make(chan *bucketOp, maxInflight),
		tk:    g.tracer.CommWorker(rank),
	}
	for i := range b.ops {
		b.ops[i].done = make(chan struct{}, 1)
		b.ops[i].idx = int32(i)
	}
	b.wg.Add(1)
	go b.worker()
	return b
}

// worker drains buckets in submission order — the fixed global order all
// ranks share — and signals each op's handle. With a tracer attached it
// records each bucket's queue dwell (submit → pickup) and collective
// execution as spans on the rank's comm track and feeds the group's
// pipeline-occupancy counters; the bucket-op count is kept regardless.
func (b *BucketedAllreduce) worker() {
	defer b.wg.Done()
	st := &b.g.stats[b.rank]
	for op := range b.queue {
		pick := b.tk.Now()
		b.tk.Span(obs.PhaseQueueDwell, op.idx, op.subAt, pick)
		if b.deferred != nil {
			b.g.setSink(b.rank, b.deferred)
		}
		switch op.kind {
		case opComp:
			op.comp.Allreduce(b.g, b.rank, op.buf, op.res, op.ratio, op.ready, b.tk, op.idx)
		case opHier:
			op.hier.AllreduceInter(b.rank, op.buf, op.chunk, op.ready)
		default:
			b.g.AllreduceTreeChunkedFrom(b.rank, op.buf, op.chunk, op.ready)
		}
		if b.deferred != nil {
			b.g.setSink(b.rank, nil)
		}
		st.bucketOps.Add(1)
		if b.tk != nil {
			end := b.tk.Now()
			b.tk.Span(obs.PhaseAllreduce, op.idx, pick, end)
			st.queueDwellNs.Add(int64(pick - op.subAt))
			st.workerBusyNs.Add(int64(end - pick))
			st.firstBusyNs.CompareAndSwap(0, int64(pick)+1)
			st.lastDoneNs.Store(int64(end))
		}
		op.done <- struct{}{}
	}
}

// Begin submits bucket i of buf (the full flat buffer; the bucket's
// segment is sliced internally) for a chunked pipelined tree allreduce
// and returns its handle. chunkWords ≤ 0 selects DefaultChunkWords;
// pass the segment length for a monolithic per-bucket tree. ready is
// the simulated time the bucket's data became final (the layer's
// backward-completion time); it stamps the wire schedule only and is
// ignored without a simulation. A bucket must not be begun again until
// its previous handle has been waited on, and every rank must issue the
// same sequence of Begin calls.
func (b *BucketedAllreduce) Begin(i int, buf []float64, chunkWords int, ready float64) Handle {
	return b.submit(i, buf, opTree, chunkWords, ready)
}

// BeginCompressed submits bucket i for a compressed allreduce through
// comp: the codec folds the bucket's residual slice into its gradient
// slice, ships the encoded form over its own collective, and leaves the
// dense global compressed aggregate in the bucket (see Compressor). buf
// and res are the full flat gradient and residual buffers — the
// bucket's segment is sliced internally — and ratio is the codec's
// sparsity knob. Every rank must submit the same codec type and ratio
// in the same bucket order; ready stamps the codec's first sends, as in
// Begin.
func (b *BucketedAllreduce) BeginCompressed(i int, buf, res []float64, comp Compressor, ratio, ready float64) Handle {
	s := b.segs[i]
	if s.Off+s.Len > len(res) {
		panic(fmt.Sprintf("comm: bucket %d segment %+v exceeds residual length %d", i, s, len(res)))
	}
	op := &b.ops[i]
	op.res = res[s.Off : s.Off+s.Len]
	op.comp = comp
	op.ratio = ratio
	return b.submit(i, buf, opComp, 0, ready)
}

// BeginHierInter submits bucket i for a hierarchical inter-island
// exchange (Hier.AllreduceInter): the delayed-application path uses
// this to push the outer-boundary aggregate through the worker so the
// cross-island exchange hides behind the next round's compute. Same
// ordering contract as Begin; every rank must pass the same Hier.
func (b *BucketedAllreduce) BeginHierInter(i int, buf []float64, h *Hier, chunkWords int, ready float64) Handle {
	b.ops[i].hier = h
	return b.submit(i, buf, opHier, chunkWords, ready)
}

// SetDeferSync makes the worker capture receive-side clock syncs into d
// instead of applying them to the rank's simulated clock. The
// delayed-application engine installs a sink once, before any Begin:
// its collectives run while the learner's clock is advancing through
// the NEXT round's compute, and Sync/Advance do not commute, so
// applying arrivals live would make simulated times depend on the real
// goroutine interleaving. The learner folds the sink in with
// DeferSync.Join at each boundary, after waiting on every handle.
func (b *BucketedAllreduce) SetDeferSync(d *DeferSync) { b.deferred = d }

func (b *BucketedAllreduce) submit(i int, buf []float64, kind, chunkWords int, ready float64) Handle {
	s := b.segs[i]
	if s.Off+s.Len > len(buf) {
		panic(fmt.Sprintf("comm: bucket %d segment %+v exceeds buffer length %d", i, s, len(buf)))
	}
	op := &b.ops[i]
	op.buf = buf[s.Off : s.Off+s.Len]
	op.chunk = chunkWords
	op.ready = ready
	op.kind = kind
	op.subAt = b.tk.Now()
	b.queue <- op
	// Yield so the worker (parked on the queue, now in the scheduler's
	// run-next slot) picks the bucket up and starts its collective
	// immediately. Without this, on hosts with fewer cores than
	// goroutines the submitting compute goroutine runs to its next
	// blocking point (the end of backward) before the worker ever runs,
	// and the overlap the bucketing exists for never starts. Values are
	// unaffected — scheduling never changes the summation order.
	runtime.Gosched()
	return Handle{done: op.done}
}

// Close shuts the worker down after all submitted buckets have drained.
// The BucketedAllreduce must not be used afterwards.
func (b *BucketedAllreduce) Close() {
	close(b.queue)
	b.wg.Wait()
}
