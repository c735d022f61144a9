package obs

import (
	"math"
	"sync"
)

// The fleet metrics frame: a fixed FrameWords-word-per-rank float64
// block that piggybacks on the training run's aggregation boundaries.
// Each rank zeroes the p×FrameWords head of the boundary's control frame,
// writes its own slot, and the group sums the control frame with the
// same tree allreduce the gradients use — summing disjoint slots is
// concatenation, so after the collective every rank holds the whole
// fleet's latest health block and rank 0 ingests it into the shared
// Fleet view. The exchange rides the existing Group (pooled buffers),
// and the Fleet counts the words it moves; it never touches gradient
// values, so enabling metrics leaves training bitwise identical.

// Frame field offsets within one rank's slot.
const (
	frameRank       = iota // rank id
	frameT                 // communication period in effect after this boundary
	frameDriftSq           // ‖x_i − ref‖² over the interval (pre-reset)
	frameComputeNs         // forward + backward span ns on the rank's learner track this interval
	frameWallNs            // ns of the whole interval on the learner track's clock
	frameSimCompute        // simulated compute seconds this interval
	frameSimComm           // simulated communication seconds this interval
	frameSent2             // cumulative codec ‖sent‖² (error-feedback ledger)
	frameResid2            // cumulative codec ‖residual‖²

	// FrameWords is the per-rank frame width in float64 words.
	FrameWords
)

// Frame is one rank's decoded health block.
type Frame struct {
	Rank       int
	T          int
	DriftSq    float64
	ComputeNs  float64
	WallNs     float64
	SimCompute float64
	SimComm    float64
	Sent2      float64
	Resid2     float64
}

// Encode writes f into its slot of a fleet buffer.
func (f Frame) Encode(buf []float64) {
	s := buf[f.Rank*FrameWords : (f.Rank+1)*FrameWords]
	s[frameRank] = float64(f.Rank)
	s[frameT] = float64(f.T)
	s[frameDriftSq] = f.DriftSq
	s[frameComputeNs] = f.ComputeNs
	s[frameWallNs] = f.WallNs
	s[frameSimCompute] = f.SimCompute
	s[frameSimComm] = f.SimComm
	s[frameSent2] = f.Sent2
	s[frameResid2] = f.Resid2
}

// DecodeFrame reads rank r's slot out of a fleet buffer.
func DecodeFrame(buf []float64, r int) Frame {
	s := buf[r*FrameWords : (r+1)*FrameWords]
	return Frame{
		Rank:       r,
		T:          int(s[frameT]),
		DriftSq:    s[frameDriftSq],
		ComputeNs:  s[frameComputeNs],
		WallNs:     s[frameWallNs],
		SimCompute: s[frameSimCompute],
		SimComm:    s[frameSimComm],
		Sent2:      s[frameSent2],
		Resid2:     s[frameResid2],
	}
}

// RankHealth is the fleet view's per-rank state: the latest frame plus
// cumulative totals and the anomaly detector's verdict.
type RankHealth struct {
	Frame
	TotComputeNs  float64
	TotWallNs     float64
	TotSimCompute float64
	TotSimComm    float64
	Z             float64 // latest leave-one-out z-score of the compute signal
	Flagged       bool    // straggler/anomaly verdict (sticky)
}

// Fleet is the cross-rank health view rank 0 maintains: the latest
// decoded frame per rank, cumulative per-rank totals, the fleet's
// replica-drift RMS and the straggler detector. Ingest runs at boundary
// cadence under a mutex — the hot path never touches it. A nil *Fleet
// (metrics off) makes every method a no-op.
type Fleet struct {
	p   int
	det *Detector

	mu         sync.Mutex
	boundaries int64
	words      int64 // control-frame words the boundaries' collectives moved
	lastT      int
	drift      float64 // replica-drift RMS at the last boundary
	ranks      []RankHealth
	sig        []float64 // detector scratch: per-rank compute signal
}

// NewFleet builds the fleet view for p ranks.
func NewFleet(p int) *Fleet {
	f := &Fleet{
		p:     p,
		det:   NewDetector(p, 0, 0, 0),
		ranks: make([]RankHealth, p),
		sig:   make([]float64, p),
	}
	for r := range f.ranks {
		f.ranks[r].Rank = r
	}
	return f
}

// Ingest decodes one boundary's summed control frame — p frame slots,
// then any other words that rode the same collective — updates the
// per-rank view and the drift RMS, and runs the straggler detector. It
// counts the words the frame's binomial-tree allreduce moved over the p
// ranks: 2(p−1) messages, reduce and broadcast legs, of len(buf) words.
// Called by rank 0 only.
func (f *Fleet) Ingest(buf []float64) {
	if f == nil {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.boundaries++

	t, driftSq := 0, 0.0
	for r := 0; r < f.p; r++ {
		fr := DecodeFrame(buf, r)
		h := &f.ranks[r]
		h.Frame = fr
		h.TotComputeNs += fr.ComputeNs
		h.TotWallNs += fr.WallNs
		h.TotSimCompute += fr.SimCompute
		h.TotSimComm += fr.SimComm
		driftSq += fr.DriftSq
		t = max(t, fr.T)
		// The straggler signal: simulated compute when the fabric
		// simulator priced the interval (deterministic, straggler
		// slowdowns included), wall compute otherwise.
		if fr.SimCompute > 0 {
			f.sig[r] = fr.SimCompute
		} else {
			f.sig[r] = fr.ComputeNs
		}
	}
	f.drift = math.Sqrt(driftSq / float64(f.p))
	f.words += int64(2*(f.p-1)) * int64(len(buf))
	f.lastT = t

	f.det.Observe(f.sig)
	for r := range f.ranks {
		f.ranks[r].Z = f.det.Z(r)
		f.ranks[r].Flagged = f.det.Flagged(r)
	}
}

// FleetSnap is a copy of the fleet view.
type FleetSnap struct {
	Boundaries int64
	Words      int64 // control-frame words on the wire
	T          int
	DriftRMS   float64
	Ranks      []RankHealth
	Anomalies  []int // flagged ranks, ascending
}

// Snapshot returns the current fleet view (nil on nil fleet). Safe at
// any time — Ingest holds the same mutex.
func (f *Fleet) Snapshot() *FleetSnap {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	s := &FleetSnap{
		Boundaries: f.boundaries,
		Words:      f.words,
		T:          f.lastT,
		DriftRMS:   f.drift,
		Ranks:      append([]RankHealth(nil), f.ranks...),
		Anomalies:  []int{},
	}
	for r := range f.ranks {
		if f.ranks[r].Flagged {
			s.Anomalies = append(s.Anomalies, r)
		}
	}
	return s
}

// The straggler/anomaly detector: a leave-one-out z-score band over the
// fleet's per-rank compute signal. At each boundary, rank i's signal is
// compared against the mean and standard deviation of its peers
// (everyone but i): z_i = (v_i − mean_peers) / max(std_peers, floor).
// Leaving i out matters at small fleets — with p = 8 and one 4×
// straggler, a plain z-score dilutes the mean and inflates the std with
// the outlier itself and never clears z = 3; the leave-one-out form
// compares the straggler against its seven healthy peers directly.
//
// The std floor guards the degenerate (and, under the deterministic
// fabric simulator, common) case of identical peers: std 0 would make
// any difference infinitely significant, so the floor is EpsFrac of the
// peer mean — a rank must run at least ~Z·EpsFrac slower than its peers
// to score, i.e. ~15% at the defaults. A rank is flagged only after
// Streak consecutive out-of-band boundaries, so one slow GC pause or
// page fault does not page anyone; the flag is sticky for the run.

// Detector defaults.
const (
	// DefaultZ is the z-score band: |z| beyond it is out of band.
	DefaultZ = 3.0
	// DefaultStreak is how many consecutive out-of-band boundaries flag
	// a rank.
	DefaultStreak = 3
	// DefaultEpsFrac floors the peer std at this fraction of the peer
	// mean.
	DefaultEpsFrac = 0.05
)

// Detector holds the per-rank streaks and flags. Not concurrency-safe;
// the Fleet drives it under its own mutex.
type Detector struct {
	z       float64
	streakN int
	epsFrac float64

	streak  []int
	flagged []bool
	zs      []float64
}

// NewDetector builds a detector for p ranks. Zero thresholds select the
// defaults.
func NewDetector(p int, z float64, streak int, epsFrac float64) *Detector {
	if z <= 0 {
		z = DefaultZ
	}
	if streak <= 0 {
		streak = DefaultStreak
	}
	if epsFrac <= 0 {
		epsFrac = DefaultEpsFrac
	}
	return &Detector{
		z: z, streakN: streak, epsFrac: epsFrac,
		streak:  make([]int, p),
		flagged: make([]bool, p),
		zs:      make([]float64, p),
	}
}

// Observe scores one boundary's per-rank signal (vals[r], one per rank)
// and returns the ranks newly flagged this boundary, ascending.
func (d *Detector) Observe(vals []float64) (newlyFlagged []int) {
	n := min(len(d.streak), len(vals))
	// Totals over every rank, so each rank's peer stats are one
	// subtraction away (leave-one-out without a second pass).
	sum, sum2 := 0.0, 0.0
	for r := 0; r < n; r++ {
		sum += vals[r]
		sum2 += vals[r] * vals[r]
	}
	for r := 0; r < n; r++ {
		d.zs[r] = 0
		peers := n - 1
		if peers < 2 {
			// One or two ranks: no peer distribution to test against.
			d.streak[r] = 0
			continue
		}
		v := vals[r]
		pm := (sum - v) / float64(peers)
		pvar := (sum2-v*v)/float64(peers) - pm*pm
		if pvar < 0 {
			pvar = 0
		}
		std := math.Sqrt(pvar)
		if floor := d.epsFrac * math.Abs(pm); std < floor {
			std = floor
		}
		if std == 0 {
			// All-zero peers (e.g. wall probes disabled): nothing to score.
			d.streak[r] = 0
			continue
		}
		z := (v - pm) / std
		d.zs[r] = z
		if math.Abs(z) > d.z {
			d.streak[r]++
			if d.streak[r] >= d.streakN && !d.flagged[r] {
				d.flagged[r] = true
				newlyFlagged = append(newlyFlagged, r)
			}
		} else {
			d.streak[r] = 0
		}
	}
	return newlyFlagged
}

// Z returns rank r's latest z-score.
func (d *Detector) Z(r int) float64 { return d.zs[r] }

// Flagged reports whether rank r is flagged.
func (d *Detector) Flagged(r int) bool { return d.flagged[r] }
