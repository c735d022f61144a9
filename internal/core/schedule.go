package core

import (
	"math"

	"sasgd/internal/comm"
)

// The T-scheduler: a per-learner state machine deciding how many local
// steps separate communication boundaries. All learners run identical
// scheduler state — the static mode never moves, and the adaptive mode
// bases every decision on allreduced (hence globally identical)
// quantities — so the schedule never needs to be negotiated and runs
// stay deterministic, mirroring the adaptive-k controller.
//
// Adaptive mode measures the replica-drift norm: at a boundary, after
// the reference has absorbed the global aggregate but before the
// replicas reset to it, x̄ = ref exactly (with γp = γ/p the aggregation
// step IS model averaging), so d_i = ‖x_i − x̄‖² is computable locally.
// The learners allreduce [Σd_i, Σ‖ref‖²] — two words piggybacked on the
// boundary — and form the relative RMS drift
//
//	rel = sqrt(Σd_i / p) / (1 + sqrt(Σ‖ref‖² / p))
//
// (the reference norm enters as an RMS across ranks because under the
// hierarchical schedule each island's working reference differs; the
// RMS is globally identical where a local norm would not be). Low
// drift means the replicas agree and communication is wasted — widen
// T; high drift means the replicas are separating — narrow it.
const (
	// driftLow/driftHigh bound the adaptive controller's dead band on
	// the relative RMS drift; outside it T doubles or halves.
	driftLow  = 0.02
	driftHigh = 0.10
	// tAdaptSpan clamps adaptive T to [max(1, T0/span), T0·span].
	tAdaptSpan = 8
)

// tScheduler owns one learner's communication-period state. Not
// concurrency-safe; each learner holds its own and they stay in
// lockstep by construction.
type tScheduler struct {
	adaptive bool
	t        int // current period in local steps
	t0       int // configured Interval: the adaptive mode's start and clamp centre
	buf      [2]float64
}

func newTScheduler(cfg Config) tScheduler {
	return tScheduler{adaptive: cfg.TSched == TSchedAdaptive, t: cfg.Interval, t0: cfg.Interval}
}

// restore rewinds the scheduler to a checkpointed period. Only the
// adaptive mode has a period to restore (curT 0 — a checkpoint from
// before the scheduler existed — keeps the start period).
func (s *tScheduler) restore(curT int) {
	if s.adaptive && curT > 0 {
		s.t = curT
	}
}

// T returns the current communication period (local steps until the
// next boundary).
func (s *tScheduler) T() int { return s.t }

// advance runs one controller step at a communication boundary. params
// is the local replica BEFORE its reset, ref the reference it is about
// to reset to (the island working reference under a hierarchical
// schedule, the global reference otherwise), and p the live learner
// count. The static mode touches no wire; adaptive mode allreduces its
// two-word drift statistic over group — a learner-driven collective
// every rank must reach in the same order relative to the boundary's
// other collectives.
func (s *tScheduler) advance(group *comm.Group, rank, p int, params, ref []float64) {
	if !s.adaptive {
		return
	}
	d, r := 0.0, 0.0
	for i, v := range params {
		dv := v - ref[i]
		d += dv * dv
		r += ref[i] * ref[i]
	}
	s.buf[0], s.buf[1] = d, r
	group.AllreduceTree(rank, s.buf[:])
	fp := float64(p)
	rel := math.Sqrt(s.buf[0]/fp) / (1 + math.Sqrt(s.buf[1]/fp))
	lo := s.t0 / tAdaptSpan
	if lo < 1 {
		lo = 1
	}
	hi := s.t0 * tAdaptSpan
	switch {
	case rel < driftLow && s.t*2 <= hi:
		s.t *= 2
	case rel > driftHigh && s.t/2 >= lo:
		s.t /= 2
	}
}
