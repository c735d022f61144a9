package core

import (
	"fmt"
	"sync"
)

// Virtual-time execution for the asynchronous algorithms.
//
// Downpour and EAMSGD are genuinely asynchronous: by default
// their gradient staleness comes from the host's goroutine scheduling,
// like the paper's (whose staleness came from the testbed's relative
// learner speeds). That realism costs reproducibility — two runs of the
// same configuration interleave differently. Config.VirtualTime trades
// the realism back: a gate serializes learner steps in virtual-clock
// order (the fabric simulator's clocks when Config.Sim is set, otherwise
// a per-learner step counter), so the interleaving — and therefore the
// entire run — is a deterministic function of the configuration.
// Staleness still emerges (at T = 1 with balanced clocks every learner
// sees the other p−1 updates between its pull and push); it is just the
// same staleness every run.

// virtualGate admits one learner at a time, always the one with the
// smallest virtual clock (ties broken by rank). Learners call Acquire
// before a step, Release with their advanced clock after it, and Done
// when they finish so the others stop waiting on them. A nil gate —
// virtual time off — admits everyone at once: its methods do nothing.
type virtualGate struct {
	mu     sync.Mutex
	cond   *sync.Cond
	clock  []float64
	done   []bool
	holder int
}

func newVirtualGate(p int) *virtualGate {
	g := &virtualGate{clock: make([]float64, p), done: make([]bool, p), holder: -1}
	g.cond = sync.NewCond(&g.mu)
	return g
}

// isMinLocked reports whether rank has the smallest clock among learners
// that are not done (ties to the lower rank). Caller holds g.mu.
func (g *virtualGate) isMinLocked(rank int) bool {
	for r := range g.clock {
		if r == rank || g.done[r] {
			continue
		}
		if g.clock[r] < g.clock[rank] || (g.clock[r] == g.clock[rank] && r < rank) {
			return false
		}
	}
	return true
}

// Acquire blocks until rank is the next learner in virtual-time order
// and the gate is free.
func (g *virtualGate) Acquire(rank int) {
	if g == nil {
		return
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.done[rank] {
		panic(fmt.Sprintf("core: virtual gate Acquire after Done (rank %d)", rank))
	}
	for g.holder != -1 || !g.isMinLocked(rank) {
		g.cond.Wait()
	}
	g.holder = rank
}

// Release ends rank's step, recording its advanced clock.
func (g *virtualGate) Release(rank int, clock float64) {
	if g == nil {
		return
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.holder != rank || clock < g.clock[rank] {
		panic(fmt.Sprintf("core: virtual gate Release out of order (rank %d, holder %d, clock %g -> %g)",
			rank, g.holder, g.clock[rank], clock))
	}
	g.clock[rank] = clock
	g.holder = -1
	g.cond.Broadcast()
}

// Done removes rank from scheduling; the remaining learners no longer
// wait on it. Safe to call whether or not rank holds the gate.
func (g *virtualGate) Done(rank int) {
	if g == nil {
		return
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	g.done[rank] = true
	if g.holder == rank {
		g.holder = -1
	}
	g.cond.Broadcast()
}
