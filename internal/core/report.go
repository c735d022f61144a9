package core

import (
	"fmt"
	"io"
	"sort"
	"time"

	"sasgd/internal/comm"
	"sasgd/internal/obs"
	"sasgd/internal/report"
)

// learnerPhases are the spans a learner goroutine records one after
// another; none encloses another, so with "other" they partition the
// learners' time.
var learnerPhases = [...]obs.Phase{obs.PhaseBcast, obs.PhaseForward, obs.PhaseBackward,
	obs.PhaseLocalStep, obs.PhaseAggWait, obs.PhaseAggApply, obs.PhaseEval}

// stepRow is one row of the step decomposition; share is in tenths of a
// percent of the learners' time, −1 for a phase outside the sum.
type stepRow struct {
	name string
	obs.PhaseSum
	share int64
}

// decompose returns the step decomposition of a run that took wall on
// tr's learner tracks: one row per learner phase, "other" (the rest of
// learners × wall), then every other phase that recorded a span. A
// tracer without learner tracks (an asynchronous run) gives no rows.
func decompose(tr *obs.Tracer, wall time.Duration) (rows []stepRow, learners int) {
	sums, learners := tr.Sums()
	if learners == 0 {
		return nil, 0
	}
	total := time.Duration(learners) * wall
	other := obs.PhaseSum{Total: total}
	for _, ph := range learnerPhases {
		rows = append(rows, stepRow{name: ph.String(), PhaseSum: sums[ph]})
		other.Total -= sums[ph].Total
		sums[ph] = obs.PhaseSum{} // listed: not again below the total
	}
	rows = append(rows, stepRow{name: "other", PhaseSum: other})
	// Shares round the running sum, so each is within a tenth of its
	// exact value and together they make exactly 100.0 %.
	var cum time.Duration
	var prev int64
	for i := range rows {
		cum += rows[i].Total
		next := int64((cum*1000 + total/2) / total)
		rows[i].share, prev = next-prev, next
	}
	for ph, s := range sums {
		if s.Count > 0 {
			rows = append(rows, stepRow{obs.Phase(ph).String(), s, -1})
		}
	}
	return rows, learners
}

// WriteReport writes the end-of-run report of a run Run returned res
// for: the step decomposition of the learner tracks cfg.Tracer holds
// (the ones this process drove), the traffic of res.Comm, and the ranks
// of res.Fleet (DESIGN §8).
func WriteReport(w io.Writer, cfg Config, res *Result) {
	if cfg.Tracer != nil {
		writeSteps(w, cfg.Tracer, res)
	}
	if res.Comm.Words > 0 {
		writeTraffic(w, cfg.Transport, res.Comm, int64(res.Boundaries))
	}
	if res.Fleet != nil {
		writeRanks(w, res.Fleet, cfg.Sim != nil)
	}
}

func writeSteps(w io.Writer, tr *obs.Tracer, res *Result) {
	rows, learners := decompose(tr, res.Wall)
	if rows == nil {
		fmt.Fprintf(w, "step decomposition: none, the asynchronous %s loop records no spans\n", res.Algo)
		return
	}
	tab := report.Table{
		Title:  fmt.Sprintf("step decomposition: %d learners × wall %v", learners, res.Wall.Round(time.Millisecond)),
		Header: []string{"phase", "count", "total(ms)", "share", "p50(µs)", "p99(µs)"},
	}
	ms := func(d time.Duration) string { return fmt.Sprintf("%.3f", float64(d)/1e6) }
	partial := false
	for i, r := range rows {
		count, share, p50, p99 := fmt.Sprint(r.Count), "nested", "-", "-"
		if r.share >= 0 {
			share = fmt.Sprintf("%d.%d%%", r.share/10, r.share%10)
		}
		if r.name == "other" {
			count = "-"
		}
		if r.Kept > 0 {
			p50, p99 = fmt.Sprintf("%.1f", float64(r.P50)/1e3), fmt.Sprintf("%.1f", float64(r.P99)/1e3)
		}
		if r.Kept > 0 && r.Kept < r.Count {
			p50, p99, partial = p50+"*", p99+"*", true
		}
		tab.AddRow(r.name, count, ms(r.Total), share, p50, p99)
		if i == len(learnerPhases) {
			tab.AddRow("total", "-", ms(time.Duration(learners)*res.Wall), "100.0%", "-", "-")
		}
	}
	fmt.Fprint(w, tab.String())
	if partial {
		fmt.Fprintln(w, "* percentiles of the spans the rings kept; counts and totals are exact")
	}
	if hid, all := tr.HiddenFraction(); all > 0 {
		fmt.Fprintf(w, "allreduce hidden inside compute: %.1f%% of %v (forward+backward+local_step)\n",
			100*float64(hid)/float64(all), all.Round(time.Microsecond))
	} else {
		fmt.Fprintln(w, "allreduce hidden inside compute: none, no comm worker ran an allreduce")
	}
}

// writeTraffic renders s over nb boundaries.
func writeTraffic(w io.Writer, tr comm.Transport, s comm.Stats, nb int64) {
	per := func(v int64) string {
		if nb == 0 {
			return "-"
		}
		return fmt.Sprintf("%.1f", float64(v)/float64(nb))
	}
	tab := report.Table{
		Title:  fmt.Sprintf("traffic: %d boundaries", nb),
		Header: []string{"algo", "words", "messages", "words/boundary", "messages/boundary"},
	}
	names := make([]string, 0, len(s.PerAlgo))
	for name := range s.PerAlgo {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range append(names, "total") {
		a := comm.AlgoStats{Words: s.Words, Messages: s.Messages}
		if name != "total" {
			a = s.PerAlgo[name]
		}
		tab.AddRow(name, fmt.Sprint(a.Words), fmt.Sprint(a.Messages), per(a.Words), per(a.Messages))
	}
	fmt.Fprint(w, tab.String())
	if s.CrossWords > 0 {
		fmt.Fprintf(w, "cross-island words: %d\n", s.CrossWords)
	}
	if s.MailboxWait > 0 {
		fmt.Fprintf(w, "mailbox wait: %v\n", s.MailboxWait.Round(time.Microsecond))
	}
	if s.Launches > 0 {
		fmt.Fprintf(w, "in-flight exchanges: %d launches, dwell %v, busy %v, occupancy %.2f\n",
			s.Launches, s.QueueDwell.Round(time.Microsecond), s.WorkerBusy.Round(time.Microsecond), s.PipelineOccupancy)
	}
	if t, ok := tr.(*comm.TCPTransport); ok {
		ws := t.WireStats()
		fmt.Fprintf(w, "wire: %d bytes in %d frames sent (%s bytes, %s frames per boundary), framing overhead %.4f\n",
			ws.BytesOut, ws.FramesOut, per(ws.BytesOut), per(ws.FramesOut), float64(ws.BytesOut)/float64(8*s.Words)-1)
	}
}

// writeRanks renders the fleet view; the simulated split only when the
// run was simulated.
func writeRanks(w io.Writer, snap *obs.FleetSnap, sim bool) {
	tab := report.Table{Title: "ranks", Header: []string{"rank", "compute(ms)", "wall(ms)"}}
	if sim {
		tab.Header = append(tab.Header, "sim-comp(s)", "sim-comm(s)")
	}
	tab.Header = append(tab.Header, "z", "verdict")
	for _, r := range snap.Ranks {
		verdict := "ok"
		if r.Flagged {
			verdict = "STRAGGLER"
		}
		row := []string{fmt.Sprint(r.Rank), fmt.Sprintf("%.1f", r.TotComputeNs/1e6), fmt.Sprintf("%.1f", r.TotWallNs/1e6)}
		if sim {
			row = append(row, fmt.Sprintf("%.3f", r.TotSimCompute), fmt.Sprintf("%.3f", r.TotSimComm))
		}
		tab.AddRow(append(row, fmt.Sprintf("%.2f", r.Z), verdict)...)
	}
	fmt.Fprint(w, tab.String())
	fmt.Fprintf(w, "fleet: %d boundaries, T=%d, drift RMS %.4g, %d frame words on the wire\n",
		snap.Boundaries, snap.T, snap.DriftRMS, snap.Words)
	if len(snap.Anomalies) > 0 {
		fmt.Fprintf(w, "anomalies: ranks %v flagged as stragglers (leave-one-out z ≥ %g for %d+ boundaries)\n",
			snap.Anomalies, obs.DefaultZ, obs.DefaultStreak)
	}
}
