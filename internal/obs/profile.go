package obs

import (
	"slices"
	"sort"
	"time"
)

// PhaseSum is one phase summed over a set of tracks. Count and Total
// are the tracks' live aggregates, exact however small the rings; the
// percentiles are nearest-rank over the Kept spans the rings retained,
// fewer than Count once a ring has wrapped.
type PhaseSum struct {
	Count, Kept          int64
	Total, P50, P95, P99 time.Duration
}

// phaseSums sums every phase over tracks whose writers have quiesced,
// and counts the learner tracks among them.
func phaseSums(tracks []*Track) (sums [NumPhases]PhaseSum, learners int) {
	var durs [NumPhases][]int64
	for _, t := range tracks {
		if t.pid == pidLearner {
			learners++
		}
		for ph := range sums {
			sums[ph].Count += t.agg[ph].count.Load()
			sums[ph].Total += time.Duration(t.agg[ph].ns.Load())
		}
		for _, s := range t.retained() {
			durs[s.phase] = append(durs[s.phase], s.dur)
		}
	}
	for ph, d := range durs {
		slices.Sort(d)
		s := &sums[ph]
		s.Kept, s.P50, s.P95, s.P99 = int64(len(d)), pct(d, 50), pct(d, 95), pct(d, 99)
	}
	return sums, learners
}

// pct returns the nearest-rank q-th percentile of sorted ns durations.
func pct(sorted []int64, q int) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	return time.Duration(sorted[min(max((q*len(sorted)+99)/100, 1), len(sorted))-1])
}

// Sums returns every phase summed over the tracer's tracks, and the
// number of learner tracks among them. Must run after the recording
// goroutines have quiesced.
func (tr *Tracer) Sums() (sums [NumPhases]PhaseSum, learners int) {
	return phaseSums(tr.Tracks())
}

// PhaseProfile summarizes one phase on one track.
type PhaseProfile struct {
	Track   string
	Phase   Phase
	Count   int
	P50     time.Duration
	P95     time.Duration
	P99     time.Duration
	Total   time.Duration
	Dropped int // ring overwrites on the track (spread across phases)
}

// Profile returns one row per phase that recorded a span on each track,
// a PhaseSum of that track alone. Must run after the recording
// goroutines have quiesced.
func (tr *Tracer) Profile() []PhaseProfile {
	var out []PhaseProfile
	for _, t := range tr.Tracks() {
		sums, _ := phaseSums([]*Track{t})
		for ph, s := range sums {
			if s.Count > 0 {
				out = append(out, PhaseProfile{Track: t.name, Phase: Phase(ph), Count: int(s.Count),
					P50: s.P50, P95: s.P95, P99: s.P99, Total: s.Total, Dropped: t.Dropped()})
			}
		}
	}
	return out
}

// HiddenFraction measures, from the recorded spans, how much comm-worker
// allreduce time ran while the same rank's learner was computing —
// inside a forward, backward or local-step span — and returns that and
// the total allreduce time (wall clock; quiesced tracks only). Delayed
// application hides a transfer behind the whole next interval. The
// compute phases never overlap each other on a
// learner track — they are sequential stages of one goroutine — so
// summing per-window intersections does not double-count.
func (tr *Tracer) HiddenFraction() (hidden, total time.Duration) {
	// Compute windows per learner tid.
	type window struct{ start, end int64 }
	compute := map[int][]window{}
	for _, t := range tr.Tracks() {
		if t.pid != pidLearner {
			continue
		}
		for _, s := range t.retained() {
			if s.phase == PhaseForward || s.phase == PhaseBackward || s.phase == PhaseLocalStep {
				compute[t.tid] = append(compute[t.tid], window{s.start, s.start + s.dur})
			}
		}
	}
	for _, ws := range compute {
		sort.Slice(ws, func(i, j int) bool { return ws[i].start < ws[j].start })
	}
	for _, t := range tr.Tracks() {
		if t.pid != pidComm {
			continue
		}
		ws := compute[t.tid]
		for _, s := range t.retained() {
			if s.phase != PhaseAllreduce {
				continue
			}
			lo, hi := s.start, s.start+s.dur
			total += time.Duration(hi - lo)
			// Sum the intersection with this rank's compute windows.
			i := sort.Search(len(ws), func(i int) bool { return ws[i].end > lo })
			for ; i < len(ws) && ws[i].start < hi; i++ {
				if a, b := max(ws[i].start, lo), min(ws[i].end, hi); b > a {
					hidden += time.Duration(b - a)
				}
			}
		}
	}
	return hidden, total
}
