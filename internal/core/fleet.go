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
// their concatenation (obs/fleet.go). Virtual rank 0 of the current
// group then writes the period and top-k fraction decided from that
// same frame into the live slots and ingests the fleet view: per-rank
// health, the drift RMS and the straggler detector. Run returns its
// final snapshot as Result.Fleet, and the end-of-run report prints it.
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
	rank  int // run-physical rank: this collector's frame slot
	p     int // run-physical rank count: the frame's slot count

	boundary      int
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
// returns ctl as it is. The period and top-k fraction are left to ingest.
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
		Live:       true,
		Boundary:   c.boundary,
		DriftSq:    c.driftSq,
		ComputeNs:  float64(computeNs),
		WallNs:     float64(wallNs),
		SimCompute: dComp,
		SimComm:    dComm,
		Sent2:      sent2,
		Resid2:     resid2,
	}.Encode(ctl)
	c.boundary++
	return ctl
}

// ingest writes the period t and top-k fraction ratio in effect after
// this boundary into every live slot of the summed control frame and
// hands it to the fleet view, on virtual rank grank 0 of the current
// group (a survivor group under fault handling: dead ranks' slots stay
// zero).
func (c *fleetCollector) ingest(grank int, ctl []float64, t int, ratio float64) {
	if c == nil || grank != 0 {
		return
	}
	for r := 0; r < c.p; r++ {
		if f := obs.DecodeFrame(ctl, r); f.Live {
			f.T, f.Ratio = t, ratio
			f.Encode(ctl)
		}
	}
	c.fleet.Ingest(ctl)
}
