package core

import (
	"sasgd/internal/comm"
	"sasgd/internal/netsim"
	"sasgd/internal/obs"
)

// Fleet-health collection for the SASGD trainers. Each learner owns one
// fleetCollector. At every aggregation boundary it encodes its slot of a
// fixed-size health frame — drift, phase timings, the simulated
// compute/communication split, compression capture — at the head of the
// boundary's control frame (boundary.go); the sum of disjoint slots is
// their concatenation (obs/fleet.go). Rank 0 then writes the period
// decided from that same frame into every slot and ingests the fleet
// view: per-rank health, the drift RMS and the straggler detector. Run
// returns its final snapshot as Result.Fleet, and the end-of-run report
// prints it.
//
// The collector reads no clock of its own: an interval's wall time is
// the learner track's clock between two boundaries, its compute time the
// growth of the track's forward + backward totals. The frame never
// touches gradient state, so metrics cannot change training values
// (metrics_test.go); its words are charged to a simulated fabric like
// any other traffic. A nil collector (metrics off) makes every method a
// nil-check no-op.
type fleetCollector struct {
	fleet *obs.Fleet
	tk    *obs.Track // the learner's track: the interval's clock and compute time
	sim   *netsim.Sim
	rank  int // this collector's frame slot
	p     int // the frame's slot count

	driftSq       float64 // captured at boundaryStart, encoded at encode
	lastWallNs    int64   // track clock at the previous encode
	lastComputeNs int64   // track forward + backward total at the previous encode
	lastSimComp   float64
	lastSimComm   float64
}

// newFleetCollector builds rank's collector over its learner track, or
// nil when metrics are off. fleet is the shared fleet view (built once
// per run, before the learners start).
func newFleetCollector(cfg Config, rank, p int, fleet *obs.Fleet, tk *obs.Track) *fleetCollector {
	if !cfg.Metrics {
		return nil
	}
	return &fleetCollector{
		fleet:      fleet,
		tk:         tk,
		sim:        cfg.Sim,
		rank:       rank,
		p:          p,
		lastWallNs: int64(tk.Now()),
	}
}

// boundaryStart captures the interval's replica drift ‖x − ref‖². Called
// at boundary entry, BEFORE any of the boundary's collectives: ref (the
// global reference x′, or the island working reference w under a
// hierarchy) still holds the value params was reset to at the previous
// boundary, so the difference is exactly the drift the interval's local
// steps accumulated. Pure reads — the training state is untouched.
func (c *fleetCollector) boundaryStart(params, ref []float64) {
	if c != nil {
		c.driftSq, _ = drift(params, ref)
	}
}

// encode writes the rank's health frame over the first p·FrameWords
// words of the empty control frame ctl and returns it; a nil collector
// returns ctl as it is. The period is left to ingest.
func (c *fleetCollector) encode(ctl []float64, comp comm.Compressor) []float64 {
	if c == nil {
		return ctl
	}
	now := int64(c.tk.Now())
	compute := c.tk.PhaseNs(obs.PhaseForward) + c.tk.PhaseNs(obs.PhaseBackward)
	wallNs, computeNs := now-c.lastWallNs, compute-c.lastComputeNs
	c.lastWallNs, c.lastComputeNs = now, compute
	var dComp, dComm float64
	if c.sim != nil {
		sc, sm := c.sim.Clock(c.rank).Split()
		dComp, dComm = sc-c.lastSimComp, sm-c.lastSimComm
		c.lastSimComp, c.lastSimComm = sc, sm
	}
	var sent2, resid2 float64
	if comp != nil {
		// Totals, not TakeCapture: the adaptive controller consumes the
		// capture.
		sent2, resid2 = comp.Totals()
	}
	ctl = ctl[:c.p*obs.FrameWords]
	clear(ctl)
	obs.Frame{
		Rank:       c.rank,
		DriftSq:    c.driftSq,
		ComputeNs:  float64(computeNs),
		WallNs:     float64(wallNs),
		SimCompute: dComp,
		SimComm:    dComm,
		Sent2:      sent2,
		Resid2:     resid2,
	}.Encode(ctl)
	return ctl
}

// ingest writes the period t in effect after this boundary into every
// slot of the summed control frame and hands it to the fleet view, on
// rank 0.
func (c *fleetCollector) ingest(rank int, ctl []float64, t int) {
	if c == nil || rank != 0 {
		return
	}
	for r := 0; r < c.p; r++ {
		f := obs.DecodeFrame(ctl, r)
		f.T = t
		f.Encode(ctl)
	}
	c.fleet.Ingest(ctl)
}
