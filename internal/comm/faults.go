package comm

import (
	"fmt"
	"strconv"
	"strings"
	"time"
)

// Fault injection. SASGD is bulk-synchronous, so the only faults that
// change a run are a learner that computes slowly and a learner that
// dies. A FaultPlan names both: per-rank compute slowdowns, and
// fail-stop crashes at scheduled aggregation boundaries. A crash ends
// the run with its error; recovery is a second run resumed from the last
// boundary checkpoint over the survivors (core's ResumeFrom and
// ResumeRanks). Messages are never lost or delayed: the transport below
// stays the reliable FIFO it is.

// FaultPlan configures deterministic fault injection for one run. The
// zero value injects nothing; fields compose freely.
type FaultPlan struct {
	// Slow maps a physical rank to a compute slowdown factor k ≥ 1: the
	// learner's simulated minibatch time is multiplied by k and the
	// training loop sleeps (k-1)·SlowSleep of real time per minibatch so
	// straggling is real, not only simulated.
	Slow map[int]float64

	// CrashAt maps a physical rank to the aggregation boundary at which
	// it dies: the rank participates in aggregations 0..b-1 and then
	// fails before it sends anything at boundary b.
	CrashAt map[int]int

	// SlowSleep is the real-time unit of straggling: a rank slowed ×k
	// sleeps (k-1)·SlowSleep per minibatch (default 100µs).
	SlowSleep time.Duration
}

// defaultSlowSleep is SlowSleep's zero-value default.
const defaultSlowSleep = 100 * time.Microsecond

// SlowFactor returns the compute slowdown for a physical rank (1 when
// the rank is not slowed). Nil-safe.
func (p *FaultPlan) SlowFactor(rank int) float64 {
	if p == nil || p.Slow == nil {
		return 1
	}
	if k, ok := p.Slow[rank]; ok && k > 1 {
		return k
	}
	return 1
}

// SlowSleepFor returns the real sleep a slowed rank owes per minibatch.
func (p *FaultPlan) SlowSleepFor(rank int) time.Duration {
	k := p.SlowFactor(rank)
	if k <= 1 {
		return 0
	}
	unit := p.SlowSleep
	if unit <= 0 {
		unit = defaultSlowSleep
	}
	return time.Duration(float64(unit) * (k - 1))
}

// CrashBoundary returns the aggregation boundary at which the rank is
// scheduled to crash, or -1. Nil-safe.
func (p *FaultPlan) CrashBoundary(rank int) int {
	if p == nil || p.CrashAt == nil {
		return -1
	}
	if b, ok := p.CrashAt[rank]; ok {
		return b
	}
	return -1
}

// ParseFaultPlan parses the compact comma-separated spec the -faults
// flag carries:
//
//	slow=R:K          slow rank R by factor K (repeatable)
//	crash=R@B         crash rank R at aggregation boundary B (repeatable)
//
// Example: "slow=3:4,crash=5@8".
func ParseFaultPlan(spec string) (*FaultPlan, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, nil
	}
	plan := &FaultPlan{}
	for _, clause := range strings.Split(spec, ",") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		key, val, ok := strings.Cut(clause, "=")
		if !ok {
			return nil, fmt.Errorf("comm: fault clause %q: want key=value", clause)
		}
		var err error
		switch key {
		case "slow":
			r, k, okc := strings.Cut(val, ":")
			if !okc {
				err = fmt.Errorf("want slow=RANK:FACTOR")
				break
			}
			var rank int
			var factor float64
			if rank, err = strconv.Atoi(r); err != nil {
				break
			}
			if factor, err = strconv.ParseFloat(k, 64); err != nil {
				break
			}
			if plan.Slow == nil {
				plan.Slow = map[int]float64{}
			}
			plan.Slow[rank] = factor
		case "crash":
			r, b, okc := strings.Cut(val, "@")
			if !okc {
				err = fmt.Errorf("want crash=RANK@BOUNDARY")
				break
			}
			var rank, boundary int
			if rank, err = strconv.Atoi(r); err != nil {
				break
			}
			if boundary, err = strconv.Atoi(b); err != nil {
				break
			}
			if plan.CrashAt == nil {
				plan.CrashAt = map[int]int{}
			}
			plan.CrashAt[rank] = boundary
		default:
			err = fmt.Errorf("unknown fault key %q", key)
		}
		if err != nil {
			return nil, fmt.Errorf("comm: fault clause %q: %v", clause, err)
		}
	}
	return plan, nil
}
