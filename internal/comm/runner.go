package comm

import (
	"errors"
	"runtime"

	"sasgd/internal/obs"
)

// Runner carries one rank's in-flight exchange: DaSGD's delayed
// aggregate (PAPERS.md), launched at one boundary and waited out at the
// next while the learner computes the interval between. One persistent
// goroutine runs one exchange at a time, so the rank's collectives keep
// the single order every rank walks: the learner runs none of its own
// between a Launch and its Wait, and every rank launches the same
// exchanges in the same order.
//
// The exchange runs on an operation clock of its own, opened at the
// launch's ready stamp (sim.go); Wait syncs the rank's own clock to
// where it ended, so on a simulated fabric the transfer hides behind
// whatever compute the learner charged meanwhile.
type Runner struct {
	g    *Group
	rank int
	run  func(buf []float64, ready float64, tk *obs.Track)
	tk   *obs.Track // the rank's comm track (nil untraced)

	buf        []float64
	ready, end float64
	subAt      obs.Stamp // the launch (queue-dwell span start; 0 untraced)
	err        error     // an ErrClosed the transport raised: this launch and every later one fail with it
	start      chan struct{}
	done       chan struct{}
}

// NewRunner starts rank's runner over g. run is the exchange a launch
// runs: it gets the launch's buffer and ready stamp and the runner's
// comm track, for any span it records.
func NewRunner(g *Group, rank int, run func(buf []float64, ready float64, tk *obs.Track)) *Runner {
	g.checkRank(rank)
	r := &Runner{
		g: g, rank: rank, run: run, tk: g.tracer.CommWorker(rank),
		start: make(chan struct{}, 1), done: make(chan struct{}, 1),
	}
	go r.loop()
	return r
}

func (r *Runner) loop() {
	for range r.start {
		if r.err == nil {
			r.err = r.exchange()
		}
		r.done <- struct{}{}
	}
	close(r.done)
}

// exchange runs one launch. A panic that is ErrClosed — the transport
// closed, or a link ended — is returned for Wait to raise on the
// learner.
func (r *Runner) exchange() (err error) {
	defer func() {
		if p := recover(); p != nil {
			if err, _ = p.(error); !errors.Is(err, ErrClosed) {
				panic(p)
			}
		}
	}()
	pick := r.tk.Now()
	r.tk.Span(obs.PhaseQueueDwell, 0, r.subAt, pick)
	opened := r.g.beginOp(r.rank, r.ready)
	r.run(r.buf, r.ready, r.tk)
	if opened {
		r.end = r.g.endOp(r.rank)
	}
	st := &r.g.stats[r.rank]
	st.launches.Add(1)
	if r.tk != nil {
		end := r.tk.Now()
		r.tk.Span(obs.PhaseAllreduce, 0, pick, end)
		st.queueDwellNs.Add(int64(pick - r.subAt))
		st.workerBusyNs.Add(int64(end - pick))
		st.firstBusyNs.CompareAndSwap(0, int64(pick)+1)
		st.lastDoneNs.Store(int64(end))
	}
	return nil
}

// Launch starts the exchange over buf and returns at once. ready is the
// learner's simulated clock, the exchange's entry stamp (ignored
// unsimulated). Each launch must be waited out before the next.
func (r *Runner) Launch(buf []float64, ready float64) {
	r.buf, r.ready, r.subAt = buf, ready, r.tk.Now()
	r.start <- struct{}{}
	// Yield so the runner (parked on start, now in the scheduler's
	// run-next slot) starts the exchange at once. Without this, on hosts
	// with fewer cores than goroutines the learner runs on to its next
	// blocking point — the next boundary — before the runner ever does,
	// and the launch hides nothing. Values are unaffected.
	runtime.Gosched()
}

// Wait blocks until the launch has run, then syncs the rank's simulated
// clock to where the exchange's ended; buf then holds its result. Call
// it from the learner.
func (r *Runner) Wait() {
	<-r.done
	if r.err != nil {
		panic(r.err)
	}
	r.g.syncOwn(r.rank, r.end)
}

// Close stops the runner once its last launch has run. The Runner must
// not be used afterwards.
func (r *Runner) Close() {
	close(r.start)
	for range r.done {
	}
}
