package comm

import (
	"errors"
	"fmt"
	"runtime"
	"sync"

	"sasgd/internal/obs"
)

// Bucketed, asynchronous allreduce: the exchange of SASGD's codec and
// delayed-application boundaries. The flat gradient buffer is split at
// fixed layer boundaries into buckets; the learner hands each to a
// per-rank communication worker and either waits on the handles (a
// codec runs one collective per bucket) or keeps computing (a delayed
// launch stays in flight across the next interval). Each bucket is
// reduced by the dense engine over the same Group, so all of its guarantees carry over: zero
// steady-state allocations, per-directed-link serialization in the
// fabric simulation, and — because every bucket replays the binomial
// tree's per-element summation order on its own slice — a concatenated
// result that is bitwise identical to a single whole-buffer "tree"
// allreduce at every bucket partition.
//
// Ordering discipline. A Group's collectives require every rank to walk
// the same collectives in the same order. BucketedAllreduce preserves
// that with ONE worker goroutine per rank draining a FIFO queue: callers
// must Begin buckets in the same order on every rank (SASGD's boundary
// does — the bucket plan and the launch order are identical across
// replicas), and the worker then executes them in that shared order.
// Buckets are therefore *pipelined*, not interleaved: the overlap is
// between communication and the learner's compute, never between two
// buckets' wire schedules — which also matches the
// physical platform, where one PCIe link per learner would serialize
// concurrent bucket transfers anyway, and keeps simulated times and
// mailbox matching deterministic.
//
// Deadlock freedom extends the engine's argument (mailboxCap) unchanged:
// the global message order gains a major key (bucket index, then tree
// level) that every rank walks identically, so the receive-dependency
// graph stays acyclic; mailboxes still see at most one collective's
// traffic at a time per pair *per position in the order*, and a rank
// running ahead into later buckets can only block on a full mailbox
// whose receiver is draining strictly earlier traffic.

// Segment is one contiguous [Off, Off+Len) range of a flat buffer — a
// bucket of the bucketed allreduce. Core builds one per parameterized
// layer from nn.ParamSegments.
type Segment struct {
	Off int
	Len int
}

// Handle tracks one in-flight bucket allreduce. It is a value type so
// steady-state Begin/Wait cycles allocate nothing.
type Handle struct {
	b  *BucketedAllreduce
	op *bucketOp
}

// Wait blocks until the bucket's allreduce has completed, then syncs the
// rank's simulated clock to where the op's own clock ended (sim.go) —
// one rule for eager waits and delayed drains, whatever the worker and
// the learner's interleaving; call it from the learner. The bucket's
// slice then holds the global sum on every rank (once every rank's
// matching Wait returns).
func (h Handle) Wait() {
	<-h.op.done
	if h.op.err != nil {
		panic(h.op.err)
	}
	h.b.g.syncOwn(h.b.rank, h.op.end)
}

// op identifiers for the worker.
const (
	opTree = iota // the dense engine over the flat tree, charged to "tree"
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
	ready float64    // the op's clock starts here, and ends at end
	end   float64
	kind  int
	idx   int32     // bucket index, the span argument on the comm track
	subAt obs.Stamp // submission stamp (queue-dwell span start; 0 untraced)
	err   error     // why the op could not complete: an ErrClosed the transport raised
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
	// queue feeds the worker; it holds every bucket, so backward never
	// stalls on communication.
	queue chan *bucketOp
	wg    sync.WaitGroup
	// tk is the rank's comm-worker trace track (nil when the group has
	// no tracer — every probe is then a nil check).
	tk *obs.Track
}

// NewBucketedAllreduce returns the per-rank worker for a fixed bucket
// partition of a flat buffer. segments must be identical on every rank
// (they are a pure function of the model and the bucket knob).
func NewBucketedAllreduce(g *Group, rank int, segments []Segment) *BucketedAllreduce {
	g.checkRank(rank)
	if len(segments) == 0 {
		panic("comm: NewBucketedAllreduce with no segments")
	}
	ops := make([]bucketOp, len(segments))
	for i, s := range segments {
		if s.Len <= 0 || s.Off < 0 {
			panic(fmt.Sprintf("comm: NewBucketedAllreduce segment %d invalid: %+v", i, s))
		}
		ops[i].done = make(chan struct{}, 1)
		ops[i].idx = int32(i)
	}
	b := &BucketedAllreduce{
		g:     g,
		rank:  rank,
		segs:  segments,
		ops:   ops,
		queue: make(chan *bucketOp, len(ops)),
		tk:    g.tracer.CommWorker(rank),
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
	var err error
	for op := range b.queue {
		if err == nil {
			err = b.run(op)
		}
		op.err = err
		op.done <- struct{}{}
	}
}

// run executes one op. A panic that is ErrClosed — the transport closed,
// or a link ended — is returned: the worker fails this op and every later
// one with it, unrun, and Wait raises it on the learner.
func (b *BucketedAllreduce) run(op *bucketOp) (err error) {
	defer func() {
		if r := recover(); r != nil {
			if err, _ = r.(error); !errors.Is(err, ErrClosed) {
				panic(r)
			}
		}
	}()
	st := &b.g.stats[b.rank]
	pick := b.tk.Now()
	b.tk.Span(obs.PhaseQueueDwell, op.idx, op.subAt, pick)
	opened := b.g.beginOp(b.rank, op.ready)
	switch op.kind {
	case opComp:
		op.comp.Allreduce(b.g, b.rank, op.buf, op.res, op.ratio, op.ready, b.tk, op.idx)
	case opHier:
		op.hier.AllreduceInter(b.rank, op.buf)
	default:
		// The learner may still be in backward: no lending.
		b.g.setAlgo(b.rank, algoTree)
		b.g.allreduce(&b.g.tree[b.rank], op.buf, false)
	}
	if opened {
		op.end = b.g.endOp(b.rank)
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
	return nil
}

// Begin submits bucket i of buf (the full flat buffer; the bucket's
// segment is sliced internally) for a tree allreduce and returns its
// handle. ready is the simulated time the bucket's data became final
// (the layer's backward-completion time), which can be well before the
// learner's clock, already at the end of the minibatch — so a late
// layer's bucket departs on the simulated fabric while the early layers
// are still backpropagating. It is the op's entry stamp and is ignored
// without a simulation. A bucket must not be begun again until
// its previous handle has been waited on, and every rank must issue the
// same sequence of Begin calls.
func (b *BucketedAllreduce) Begin(i int, buf []float64, ready float64) Handle {
	return b.submit(i, buf, opTree, ready)
}

// BeginCompressed submits bucket i for a compressed allreduce through
// comp: the codec folds the bucket's residual slice into its gradient
// slice, ships the encoded form over its own collective, and leaves the
// dense global compressed aggregate in the bucket (see Compressor). buf
// and res are the full flat gradient and residual buffers — the
// bucket's segment is sliced internally — and ratio is the codec's
// sparsity knob. Every rank must submit the same codec type and ratio
// in the same bucket order; ready is as in Begin.
func (b *BucketedAllreduce) BeginCompressed(i int, buf, res []float64, comp Compressor, ratio, ready float64) Handle {
	s := b.segs[i]
	if s.Off+s.Len > len(res) {
		panic(fmt.Sprintf("comm: bucket %d segment %+v exceeds residual length %d", i, s, len(res)))
	}
	op := &b.ops[i]
	op.res = res[s.Off : s.Off+s.Len]
	op.comp = comp
	op.ratio = ratio
	return b.submit(i, buf, opComp, ready)
}

// BeginHierInter submits bucket i for a hierarchical inter-island
// exchange (Hier.AllreduceInter): the delayed-application path uses
// this to push the outer-boundary aggregate through the worker so the
// cross-island exchange hides behind the next round's compute. Same
// ordering contract as Begin; every rank must pass the same Hier.
func (b *BucketedAllreduce) BeginHierInter(i int, buf []float64, h *Hier, ready float64) Handle {
	b.ops[i].hier = h
	return b.submit(i, buf, opHier, ready)
}

func (b *BucketedAllreduce) submit(i int, buf []float64, kind int, ready float64) Handle {
	s := b.segs[i]
	if s.Off+s.Len > len(buf) {
		panic(fmt.Sprintf("comm: bucket %d segment %+v exceeds buffer length %d", i, s, len(buf)))
	}
	op := &b.ops[i]
	op.buf = buf[s.Off : s.Off+s.Len]
	op.ready = ready
	op.kind = kind
	op.subAt = b.tk.Now()
	b.queue <- op
	// Yield so the worker (parked on the queue, now in the scheduler's
	// run-next slot) picks the bucket up and starts its collective
	// immediately. Without this, on hosts with fewer cores than
	// goroutines the submitting compute goroutine runs to its next
	// blocking point (the next boundary) before the worker ever runs,
	// and the delayed launch hides nothing. Values are
	// unaffected — scheduling never changes the summation order.
	runtime.Gosched()
	return Handle{b: b, op: op}
}

// Close shuts the worker down after all submitted buckets have drained.
// The BucketedAllreduce must not be used afterwards.
func (b *BucketedAllreduce) Close() {
	close(b.queue)
	b.wg.Wait()
}
