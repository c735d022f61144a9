package obs

import (
	"fmt"
	"sort"
	"time"

	"sasgd/internal/report"
)

// Phase-latency profiles: the post-run summary of a traced run, one row
// per (track, phase) with count, percentile latencies and the phase's
// total time, rendered in the internal/report table style the
// experiment drivers already print.

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

// Profile computes per-phase latency percentiles for every track from
// the retained spans. Must run after the recording goroutines have
// quiesced. Percentiles use the nearest-rank method on the retained
// window (the ring keeps the most recent Cap() spans).
func (tr *Tracer) Profile() []PhaseProfile {
	if tr == nil {
		return nil
	}
	var out []PhaseProfile
	for _, t := range tr.Tracks() {
		durs := make(map[Phase][]int64)
		var total [NumPhases]int64
		for _, s := range t.retained() {
			durs[s.phase] = append(durs[s.phase], s.dur)
			total[s.phase] += s.dur
		}
		phases := make([]Phase, 0, len(durs))
		for ph := range durs {
			phases = append(phases, ph)
		}
		sort.Slice(phases, func(i, j int) bool { return phases[i] < phases[j] })
		for _, ph := range phases {
			d := durs[ph]
			sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
			out = append(out, PhaseProfile{
				Track:   t.name,
				Phase:   ph,
				Count:   len(d),
				P50:     time.Duration(pct(d, 50)),
				P95:     time.Duration(pct(d, 95)),
				P99:     time.Duration(pct(d, 99)),
				Total:   time.Duration(total[ph]),
				Dropped: t.Dropped(),
			})
		}
	}
	return out
}

// pct returns the nearest-rank q-th percentile of sorted ns durations.
func pct(sorted []int64, q int) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := (q*len(sorted) + 99) / 100
	if i < 1 {
		i = 1
	}
	if i > len(sorted) {
		i = len(sorted)
	}
	return sorted[i-1]
}

// ProfileTable renders the profile as an aligned text table.
func (tr *Tracer) ProfileTable(title string) string {
	tab := report.Table{
		Title:  title,
		Header: []string{"track", "phase", "count", "p50", "p95", "p99", "total"},
	}
	for _, p := range tr.Profile() {
		tab.AddRow(p.Track, p.Phase.String(), fmt.Sprint(p.Count),
			fmtDur(p.P50), fmtDur(p.P95), fmtDur(p.P99), fmtDur(p.Total))
	}
	return tab.String()
}

// fmtDur formats a duration with three significant figure-ish units so
// columns of mixed µs/ms/s magnitudes stay readable.
func fmtDur(d time.Duration) string {
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.3fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.3fms", float64(d)/1e6)
	default:
		return fmt.Sprintf("%.1fµs", float64(d)/1e3)
	}
}

// OverlapFraction measures, from the recorded spans, the fraction of
// comm-worker allreduce time that ran while the same rank's learner
// track was inside a backward span — the quantity the paper's §V cost
// model says the backward-overlapped aggregation should maximize. It
// returns the overlapped and total allreduce durations (wall clock;
// quiesced tracks only).
func (tr *Tracer) OverlapFraction() (overlapped, total time.Duration) {
	return tr.commComputeOverlap(PhaseBackward)
}

// HiddenFraction generalizes OverlapFraction to the delayed-application
// schedule: the fraction of comm-worker allreduce time that ran while
// the same rank's learner was computing at all — inside a forward,
// backward, or local-step span. Backward-overlap can hide a transfer
// only behind the tail of one backward pass; delayed application hides
// it behind the entire next communication round, and this is the
// fraction that measures it.
func (tr *Tracer) HiddenFraction() (hidden, total time.Duration) {
	return tr.commComputeOverlap(PhaseForward, PhaseBackward, PhaseLocalStep)
}

// commComputeOverlap intersects each rank's comm-worker allreduce spans
// with the union of the given learner-track phases on the same rank,
// returning the intersected and total allreduce durations (wall clock;
// quiesced tracks only). The listed phases never overlap each other on
// a learner track — they are sequential stages of one goroutine — so
// summing per-window intersections does not double-count.
func (tr *Tracer) commComputeOverlap(phases ...Phase) (overlapped, total time.Duration) {
	if tr == nil {
		return 0, 0
	}
	var want [NumPhases]bool
	for _, ph := range phases {
		want[ph] = true
	}
	// Compute windows per learner tid.
	type window struct{ start, end int64 }
	backward := map[int][]window{}
	for _, t := range tr.Tracks() {
		if t.pid != pidLearner {
			continue
		}
		for _, s := range t.retained() {
			if want[s.phase] {
				backward[t.tid] = append(backward[t.tid], window{s.start, s.start + s.dur})
			}
		}
	}
	for _, ws := range backward {
		sort.Slice(ws, func(i, j int) bool { return ws[i].start < ws[j].start })
	}
	for _, t := range tr.Tracks() {
		if t.pid != pidComm {
			continue
		}
		ws := backward[t.tid]
		for _, s := range t.retained() {
			if s.phase != PhaseAllreduce {
				continue
			}
			lo, hi := s.start, s.start+s.dur
			total += time.Duration(hi - lo)
			// Sum the intersection with this rank's backward windows.
			i := sort.Search(len(ws), func(i int) bool { return ws[i].end > lo })
			for ; i < len(ws) && ws[i].start < hi; i++ {
				a, b := ws[i].start, ws[i].end
				if a < lo {
					a = lo
				}
				if b > hi {
					b = hi
				}
				if b > a {
					overlapped += time.Duration(b - a)
				}
			}
		}
	}
	return overlapped, total
}
