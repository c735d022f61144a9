package comm

import "sasgd/internal/obs"

// Accessors only the tests use: none has a caller in the library, the
// commands or bench/, so none is part of the package's API.

// WordsSent returns the total number of float64 words sent through the
// group so far (point-to-point only; server traffic is accounted by the
// server): Stats().Words as one number.
func (g *Group) WordsSent() int64 {
	var w int64
	for r := range g.stats {
		for a := algo(0); a < numAlgos; a++ {
			w += g.stats[r].words[a].Load()
		}
	}
	return w
}

// ResetStats zeroes every counter (traffic, mailbox wait, pipeline), so
// a test can scope accounting to a phase. Must not race with in-flight
// collectives.
func (g *Group) ResetStats() {
	for r := range g.stats {
		st := &g.stats[r]
		for a := algo(0); a < numAlgos; a++ {
			st.words[a].Store(0)
			st.msgs[a].Store(0)
		}
		st.crossWords.Store(0)
		st.mailboxWaitNs.Store(0)
		st.launches.Store(0)
		st.queueDwellNs.Store(0)
		st.workerBusyNs.Store(0)
		st.firstBusyNs.Store(0)
		st.lastDoneNs.Store(0)
	}
}

// NewHier partitions the group into `groups` contiguous islands (see
// BlockIslands) and returns the hierarchical collective schedule.
func NewHier(g *Group, groups int) *Hier {
	return NewHierOf(g, BlockIslands(g.Size(), groups))
}

// Islands returns the number of (non-empty) islands.
func (h *Hier) Islands() int { return len(h.islands) }

// NumShards returns the shard count.
func (s *ParamServer) NumShards() int { return len(s.shards) }

// Updates returns the total update generation summed over shards.
func (s *ParamServer) Updates() int64 {
	var n int64
	for _, sh := range s.shards {
		sh.mu.Lock()
		n += sh.updates
		sh.mu.Unlock()
	}
	return n
}

// IslandOf returns rank's island id.
func (h *Hier) IslandOf(rank int) int { return h.islandOf[rank] }

// Snapshot returns a copy of the full parameter vector (not charged to
// any clock).
func (s *ParamServer) Snapshot() []float64 {
	out := make([]float64, s.m)
	for _, sh := range s.shards {
		sh.mu.Lock()
		copy(out[sh.lo:sh.hi], sh.params)
		sh.mu.Unlock()
	}
	return out
}

// Tracer returns the attached tracer (nil when tracing is off).
func (g *Group) Tracer() *obs.Tracer { return g.tracer }
