package comm

import (
	"errors"
	"runtime/debug"
	"testing"
	"time"

	"sasgd/internal/obs"
	"sasgd/internal/parallel"
)

// treeRunners returns one Runner per rank of g whose launch is the tree
// allreduce, each bound once.
func treeRunners(g *Group) []*Runner {
	rs := make([]*Runner, g.Size())
	for r := range rs {
		rs[r] = NewRunner(g, r, func(buf []float64, _ float64, _ *obs.Track) { g.AllreduceTree(r, buf) })
	}
	return rs
}

// TestRunnerSteadyStateAllocs pins a launch/wait cycle — the delayed
// boundary's in-flight exchange — at zero allocations once warm: the
// runner's channels and its bound exchange are built once, and the
// collective runs on the group's pooled buffers. Methodology follows
// TestAllreduceSteadyStateAllocs.
func TestRunnerSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; allocs/op is pinned in non-race builds")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer parallel.SetWorkers(parallel.SetWorkers(1))

	const p, m = 8, 1003
	g := NewGroup(p)
	bufs := make([][]float64, p)
	for r := range bufs {
		bufs[r] = make([]float64, m)
		for i := range bufs[r] {
			bufs[r][i] = float64(r + i)
		}
	}
	rs := treeRunners(g)
	rankRound := func(r int) {
		rs[r].Launch(bufs[r], 0)
		rs[r].Wait()
	}
	start := make([]chan struct{}, p)
	done := make(chan struct{}, p)
	for r := 1; r < p; r++ {
		start[r] = make(chan struct{})
		go func(r int) {
			for range start[r] {
				rankRound(r)
				done <- struct{}{}
			}
		}(r)
	}
	round := func() {
		for r := 1; r < p; r++ {
			start[r] <- struct{}{}
		}
		rankRound(0)
		for r := 1; r < p; r++ {
			<-done
		}
	}
	for i := 0; i < 5; i++ {
		round()
	}
	// The peak number of wire buffers in flight at once depends on the
	// ranks' interleaving: pre-provision the size class up to the
	// mailbox bound, so the pin measures steady state, not the discovery
	// of a new peak.
	prefill := make([]*poolBuf, p*(p-1)*mailboxCap+4*p)
	for i := range prefill {
		prefill[i] = g.acquire(m)
	}
	for _, pb := range prefill {
		g.releaseMsg(Frame{pb: pb})
	}
	if avg := testing.AllocsPerRun(10, round); avg != 0 {
		t.Errorf("%.1f allocs per steady-state launch/wait round, want 0", avg)
	}
	for r := 1; r < p; r++ {
		close(start[r])
	}
	for _, r := range rs {
		r.Close()
	}
}

// TestRunnerWaitUnwindsOnClose: a transport closed under an in-flight
// launch unwinds the learner blocked in Wait with ErrClosed — the
// runner's goroutine survives to report it — and a later launch fails
// with the same error without running.
func TestRunnerWaitUnwindsOnClose(t *testing.T) {
	for _, tc := range transportCases() {
		t.Run(tc.name, func(t *testing.T) {
			g := tc.make(t, 2)
			rs := treeRunners(g)
			defer rs[0].Close()
			defer rs[1].Close()
			wait := func() (err error) {
				defer func() { err, _ = recover().(error) }()
				rs[0].Wait()
				return nil
			}
			// Rank 1 never launches: rank 0's tree waits on it until Close.
			rs[0].Launch(make([]float64, 5), 0)
			unwound := make(chan error, 1)
			go func() { unwound <- wait() }()
			time.Sleep(10 * time.Millisecond)
			g.Close()
			select {
			case err := <-unwound:
				if !errors.Is(err, ErrClosed) {
					t.Fatalf("Wait unwound with %v, want ErrClosed", err)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("Wait still blocked after Close")
			}
			rs[0].Launch(make([]float64, 5), 0)
			if err := wait(); !errors.Is(err, ErrClosed) {
				t.Fatalf("launch after the failure: Wait raised %v, want ErrClosed", err)
			}
		})
	}
}

// TestRunnerHidesExchangeBehindCompute is the simulated-fabric payoff
// of an in-flight launch: the exchange runs on its own clock from the
// launch, so a learner that computes C seconds before it waits ends at
// max(C, exchange), where running the exchange in line and then
// computing ends at exchange + C. With C long the exchange vanishes;
// with C short Wait brings the learner to where the exchange ended.
func TestRunnerHidesExchangeBehindCompute(t *testing.T) {
	const p, m, long = 4, 1 << 10, 1 << 14 // long ≫ the 2·log2(p)·m-second tree
	run := func(inFlight bool, compute float64) []float64 {
		clocks := make([]Clock, p)
		for i := range clocks {
			clocks[i] = &simpleClock{}
		}
		g := NewSimGroup(p, clocks, wordCost{})
		rs := treeRunners(g)
		bufs := make([][]float64, p)
		for r := range bufs {
			bufs[r] = make([]float64, m)
		}
		runGroup(p, g, func(r int) {
			if inFlight {
				rs[r].Launch(bufs[r], clocks[r].Now())
				clocks[r].Advance(compute)
				rs[r].Wait()
			} else {
				g.AllreduceTree(r, bufs[r])
				clocks[r].Advance(compute)
			}
			rs[r].Close()
		})
		ends := make([]float64, p)
		for r, c := range clocks {
			ends[r] = c.Now()
		}
		return ends
	}
	inline, hidden := run(false, long), run(true, long)
	for r := range hidden {
		if hidden[r] != long {
			t.Errorf("rank %d: in-flight launch ends at %g simulated seconds, want the compute's %d", r, hidden[r], long)
		}
		if inline[r] <= long {
			t.Errorf("rank %d: in-line exchange ends at %g, want past the compute's %d", r, inline[r], long)
		}
	}
	inline, hidden = run(false, 1), run(true, 1)
	for r := range hidden {
		if want := inline[r] - 1; hidden[r] != want {
			t.Errorf("rank %d: in-flight launch past a 1 s compute ends at %g, want the exchange's end %g", r, hidden[r], want)
		}
	}
}
