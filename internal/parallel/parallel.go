// Package parallel provides the shared worker pool that the tensor and
// nn kernels use to spread per-minibatch compute across cores. The paper's
// learners each drive a GPU, so per-minibatch compute is fast relative to
// aggregation; this package plays the same role for the pure-Go
// reproduction by squeezing the available cores, so that the timing
// figures measure communication behaviour rather than serial compute.
//
// The central primitive is For(n, grain, fn), which partitions the index
// range [0, n) into at most Workers() contiguous shards of at least grain
// items each and runs fn on every shard. Shard boundaries are a pure
// function of (n, shard count): they never depend on scheduling, so a
// kernel whose shards write disjoint output ranges (and whose per-element
// accumulation order is unchanged from the serial loop) produces bitwise
// identical results at every worker count, including 1. Below the grain
// threshold For degenerates to a plain serial call with no dispatch
// overhead.
//
// Execution uses a small pool of persistent worker goroutines (one per
// GOMAXPROCS at first use) plus the calling goroutine. Work is claimed
// from an atomic counter, and the caller always participates in draining
// its own call, so For never deadlocks even when invoked from inside a
// worker (nested parallelism degrades to inline execution instead of
// blocking).
//
// The effective worker budget is a process-wide setting: it defaults to
// the SASGD_WORKERS environment variable, falling back to GOMAXPROCS, and
// can be adjusted at runtime with SetWorkers. The training drivers in
// internal/core lower it to ⌊budget / learners hosted by this process⌋,
// never below 1 (core.workersPerLearner), while those learner goroutines
// are running, so that p learners × w workers never oversubscribe the
// machine.
//
// Two places hand a working learner the workers of learners that are
// parked waiting on it, ⌊budget / learners⌋ × learners shards in all:
// the evaluation between the epoch-edge barriers (core, through
// ForWorkers' cap argument, spent as sample shards that each run serial
// kernels under a budget of 1 set while no other learner runs a kernel),
// and the root's last fold of a monolithic tree allreduce (internal/comm,
// through the same cap, while every other member waits for the sum).
package parallel

import (
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
)

// Body is a loop body over one shard [lo, hi) of an index range. A
// pointer to a value the caller keeps converts to a Body without
// allocating, which is what lets ForWorkers run allocation-free where a
// closure handed to For escapes to the heap.
type Body interface{ Range(shard, lo, hi int) }

// shardFunc is ForShards' closure as a Body.
type shardFunc func(shard, lo, hi int)

func (f shardFunc) Range(shard, lo, hi int) { f(shard, lo, hi) }

// forCall is one dispatched loop: a fixed shard plan plus an atomic
// cursor that the caller and any helping workers claim shards from.
// Records are recycled through records: refs counts the goroutines still
// holding one — the caller, and every worker it was handed to, which may
// pick it up only after the caller has run every shard and returned —
// and the last of them to let go returns it.
type forCall struct {
	n      int
	shards int
	body   Body
	next   atomic.Int32
	wg     sync.WaitGroup // shards not yet run
	refs   atomic.Int32
}

// run claims and executes shards until none remain. It is invoked by the
// calling goroutine and by any pool worker that picks the call up; which
// goroutine runs a shard never affects the shard's output.
func (c *forCall) run() {
	for {
		s := int(c.next.Add(1)) - 1
		if s >= c.shards {
			return
		}
		lo, hi := shardRange(c.n, c.shards, s)
		c.body.Range(s, lo, hi)
		c.wg.Done()
	}
}

// drop lets go of c; the last holder recycles it.
func (c *forCall) drop() {
	if c.refs.Add(-1) == 0 {
		c.body = nil
		select {
		case records <- c:
		default:
		}
	}
}

// shardRange returns the half-open index range of shard s when [0, n) is
// split into the given number of contiguous shards. The first n%shards
// shards are one element longer, so the partition is a pure function of
// (n, shards).
func shardRange(n, shards, s int) (lo, hi int) {
	base, rem := n/shards, n%shards
	lo = s * base
	if s < rem {
		lo += s
	} else {
		lo += rem
	}
	hi = lo + base
	if s < rem {
		hi++
	}
	return lo, hi
}

var (
	poolOnce sync.Once
	calls    chan *forCall
	// records is the free list of call records, filled when the pool
	// starts. A channel rather than a sync.Pool: the last holder is often
	// a pool worker, and a sync.Pool keeps what a goroutine puts back in
	// that goroutine's P, out of the caller's reach. Filled rather than
	// grown, because a worker the scheduler leaves queued holds its
	// records for as long as it waits, and the ones a caller then lacks
	// would be allocated mid-run. Its size covers the records held at
	// once: up to cap(calls) offers queued, one per worker, one per
	// concurrent caller; past that a call allocates, and a record the full
	// list has no room for is left to the collector.
	records chan *forCall
	// budget is the per-call shard cap (the "worker count" SetWorkers
	// controls). It may exceed the number of pool goroutines — extra
	// shards are simply drained by the caller — which keeps worker-count
	// sweeps meaningful on small machines.
	budget atomic.Int32
)

func init() {
	budget.Store(int32(defaultWorkers()))
}

// defaultWorkers returns the initial worker budget: SASGD_WORKERS when
// set to a positive integer, otherwise GOMAXPROCS.
func defaultWorkers() int {
	if s := os.Getenv("SASGD_WORKERS"); s != "" {
		if v, err := strconv.Atoi(s); err == nil && v > 0 {
			return v
		}
	}
	return runtime.GOMAXPROCS(0)
}

// startPool lazily launches the persistent worker goroutines. The pool is
// sized to GOMAXPROCS once; SetWorkers changes only the per-call shard
// budget, never the goroutine count, so raising and lowering the budget
// is free.
func startPool() {
	n := runtime.GOMAXPROCS(0)
	calls = make(chan *forCall, 4*n)
	records = make(chan *forCall, 8*n)
	for range cap(records) {
		records <- new(forCall)
	}
	for i := 0; i < n; i++ {
		go func() {
			for c := range calls {
				c.run()
				c.drop()
			}
		}()
	}
}

// Workers returns the current worker budget: the maximum number of shards
// a single For call is split into.
func Workers() int { return int(budget.Load()) }

// SetWorkers sets the worker budget and returns the previous value.
// Values below 1 are clamped to 1 (fully serial execution). It is safe to
// call concurrently; in-flight For calls keep the plan they started with.
func SetWorkers(n int) (prev int) {
	if n < 1 {
		n = 1
	}
	return int(budget.Swap(int32(n)))
}

// For runs fn over the index range [0, n), split into at most Workers()
// contiguous shards of at least grain items each. fn receives half-open
// [lo, hi) bounds and must only write state that is disjoint between
// shards. When the range is too small to split (or the budget is 1), fn
// runs once, inline, with the full range — the exact serial path.
func For(n, grain int, fn func(lo, hi int)) {
	ForShards(n, grain, func(_, lo, hi int) { fn(lo, hi) })
}

// Shards returns the number of shards a For/ForShards call with these
// parameters would use under the current worker budget. A result ≤ 1
// means the call runs inline on the caller's goroutine.
//
// Hot, allocation-sensitive loops use this to branch to a hand-written
// serial loop instead of calling For: the parallel dispatch path stores
// fn in a call record shared with the workers, so escape analysis makes
// every closure handed to For heap-allocated — even when the call would
// run inline. Branching in the caller keeps the closure literal on the
// cold path, so the serial path touches no heap at all (the tensor
// update path's zero-alloc pin depends on this). A loop that must not
// allocate when it does shard is a Body handed to ForWorkers.
func Shards(n, grain int) int { return plan(n, grain, Workers()) }

// plan is the shard count of a loop over n items at the given grain
// under a cap of workers shards.
func plan(n, grain, workers int) int {
	if n <= 0 {
		return 0
	}
	if grain < 1 {
		grain = 1
	}
	return min(n/grain, workers)
}

// ForAligned is For with shard boundaries constrained to multiples of
// align (except hi of the last shard, which is n): it shards the
// ⌈n/align⌉ aligned blocks instead of the raw indices, so fn always
// receives [lo, hi) with lo ≡ 0 (mod align). Tiled kernels use it to
// hand every shard whole microkernel tiles — tile ownership is then
// per-shard, with no partial tiles shared across goroutines. grain is
// still expressed in items; it is rounded up to whole blocks.
func ForAligned(n, align, grain int, fn func(lo, hi int)) {
	if align < 1 {
		align = 1
	}
	blocks := (n + align - 1) / align
	bGrain := (grain + align - 1) / align
	For(blocks, bGrain, func(blo, bhi int) {
		lo, hi := blo*align, bhi*align
		if hi > n {
			hi = n
		}
		fn(lo, hi)
	})
}

// ShardsAligned returns the shard count a ForAligned call with these
// parameters would use — the aligned analogue of Shards, for the same
// serial-branch purpose.
func ShardsAligned(n, align, grain int) int {
	if align < 1 {
		align = 1
	}
	return Shards((n+align-1)/align, (grain+align-1)/align)
}

// ForShards is For with the shard index exposed, so callers can maintain
// per-shard scratch buffers. The shard count (its return value) is a pure
// function of (n, grain, Workers()), making scratch reuse across repeated
// identically-shaped calls allocation-free. Shard 0 always covers the
// full range when the call is serial.
func ForShards(n, grain int, fn func(shard, lo, hi int)) (shards int) {
	return ForWorkers(n, grain, Workers(), shardFunc(fn))
}

// ForWorkers is ForShards with the shard cap an argument instead of the
// process-wide budget, and a Body instead of a closure. The cap is for a
// caller that knows other learners' workers are idle because those
// learners are parked waiting on it: it spends their share as well as
// its own without a SetWorkers save/restore, which would interleave with
// any other goroutine's. With body a pointer, a steady-state call
// allocates nothing — the call record is recycled.
func ForWorkers(n, grain, workers int, body Body) (shards int) {
	shards = plan(n, grain, workers)
	if shards <= 1 {
		if n <= 0 {
			return 0
		}
		body.Range(0, 0, n)
		return 1
	}
	poolOnce.Do(startPool)
	var c *forCall
	select {
	case c = <-records:
	default:
		c = new(forCall)
	}
	c.n, c.shards, c.body = n, shards, body
	c.next.Store(0)
	c.refs.Store(1)
	c.wg.Add(shards)
	// Offer the call to up to shards-1 idle workers; if the queue is full
	// the caller drains the remainder itself, so submission never blocks.
submit:
	for i := 1; i < shards; i++ {
		c.refs.Add(1)
		select {
		case calls <- c:
		default:
			c.refs.Add(-1)
			break submit
		}
	}
	c.run()
	c.wg.Wait()
	c.drop()
	return shards
}
