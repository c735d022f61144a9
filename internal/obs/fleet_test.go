package obs

import (
	"math"
	"testing"
)

func TestFrameEncodeDecodeRoundTrip(t *testing.T) {
	buf := frameBuf(4)
	f := Frame{
		Rank: 2, T: 8,
		DriftSq: 0.5, ComputeNs: 1e6, WallNs: 2e6,
		SimCompute: 0.25, SimComm: 0.125,
		Sent2: 3, Resid2: 1,
	}
	f.Encode(buf)
	got := DecodeFrame(buf, 2)
	if got != f {
		t.Fatalf("round trip: got %+v, want %+v", got, f)
	}
	// Other slots stay zero.
	for _, r := range []int{0, 1, 3} {
		if got := DecodeFrame(buf, r); got != (Frame{Rank: r}) {
			t.Fatalf("rank %d decoded %+v from an empty slot", r, got)
		}
	}
}

// Summing per-rank buffers with disjoint filled slots must equal
// concatenation — the property that lets the fleet frame ride a plain
// sum-allreduce.
func TestFrameSumIsConcatenation(t *testing.T) {
	const p = 3
	sum := frameBuf(p)
	for r := 0; r < p; r++ {
		own := frameBuf(p)
		Frame{Rank: r, T: 2, DriftSq: float64(r) + 0.5}.Encode(own)
		for i := range sum {
			sum[i] += own[i]
		}
	}
	for r := 0; r < p; r++ {
		f := DecodeFrame(sum, r)
		if f.Rank != r || f.T != 2 || f.DriftSq != float64(r)+0.5 {
			t.Fatalf("rank %d after sum: %+v", r, f)
		}
	}
}

// frameBuf returns a zeroed fleet buffer for p ranks.
func frameBuf(p int) []float64 { return make([]float64, p*FrameWords) }

// TestFleetCountsFrameWords: each ingest counts the words its tree
// allreduce moved — (p−1) reduce and (p−1) broadcast messages, each the
// whole buffer long, controller words after the slots included.
func TestFleetCountsFrameWords(t *testing.T) {
	const p, extra, boundaries = 4, 4, 3
	f := NewFleet(p)
	for b := 0; b < boundaries; b++ {
		buf := make([]float64, p*FrameWords+extra)
		for r := 0; r < p; r++ {
			Frame{Rank: r}.Encode(buf)
		}
		f.Ingest(buf)
	}
	if got, want := f.Snapshot().Words, int64(boundaries*2*(p-1)*(p*FrameWords+extra)); got != want {
		t.Fatalf("fleet counted %d frame words, want %d", got, want)
	}
}

func TestFleetIngestAndSnapshot(t *testing.T) {
	const p = 4
	f := NewFleet(p)
	buf := frameBuf(p)
	for rank := 0; rank < p; rank++ {
		Frame{Rank: rank, T: 4, DriftSq: 0.01,
			SimCompute: 0.1, SimComm: 0.02}.Encode(buf)
	}
	f.Ingest(buf)

	snap := f.Snapshot()
	if snap.T != 4 || snap.Boundaries != 1 {
		t.Fatalf("snapshot = %+v", snap)
	}
	wantDrift := math.Sqrt(4 * 0.01 / 4)
	if math.Abs(snap.DriftRMS-wantDrift) > 1e-15 {
		t.Fatalf("drift rms = %g, want %g", snap.DriftRMS, wantDrift)
	}
	if len(snap.Anomalies) != 0 {
		t.Fatalf("anomalies = %v, want none", snap.Anomalies)
	}

	// The next boundary: the latest frame replaces the last, the totals
	// accumulate.
	buf2 := frameBuf(p)
	for rank := 0; rank < p; rank++ {
		Frame{Rank: rank, T: 8, DriftSq: 0.04,
			SimCompute: 0.1, SimComm: 0.02}.Encode(buf2)
	}
	f.Ingest(buf2)
	snap = f.Snapshot()
	if snap.T != 8 || snap.DriftRMS != 0.2 || snap.Boundaries != 2 {
		t.Fatalf("second snapshot = %+v", snap)
	}
	if snap.Ranks[0].TotSimCompute != 0.2 {
		t.Fatalf("cumulative sim compute = %g, want 0.2", snap.Ranks[0].TotSimCompute)
	}
}

// A nil fleet (metrics off) is a no-op.
func TestNilFleetIsSafeAndFree(t *testing.T) {
	var f *Fleet
	if allocs := testing.AllocsPerRun(100, func() { f.Ingest(nil) }); allocs != 0 {
		t.Errorf("nil fleet Ingest allocated %.1f per op, want 0", allocs)
	}
	if f.Snapshot() != nil {
		t.Fatal("nil fleet returned state")
	}
}

// A persistent straggler — one rank whose compute signal sits 4× above
// identical peers — must be flagged after DefaultStreak boundaries;
// healthy peers must not.
func TestFleetFlagsStraggler(t *testing.T) {
	const p, slow = 8, 2
	f := NewFleet(p)
	for b := 0; b < DefaultStreak+1; b++ {
		buf := frameBuf(p)
		for rank := 0; rank < p; rank++ {
			comp := 0.1
			if rank == slow {
				comp = 0.4
			}
			Frame{Rank: rank, T: 4, SimCompute: comp}.Encode(buf)
		}
		f.Ingest(buf)
	}
	snap := f.Snapshot()
	if len(snap.Anomalies) != 1 || snap.Anomalies[0] != slow {
		t.Fatalf("anomalies = %v, want [%d]", snap.Anomalies, slow)
	}
	if !snap.Ranks[slow].Flagged || snap.Ranks[slow].Z < DefaultZ {
		t.Fatalf("straggler rank health = %+v", snap.Ranks[slow])
	}
	for rank := 0; rank < p; rank++ {
		if rank != slow && snap.Ranks[rank].Flagged {
			t.Fatalf("healthy rank %d flagged", rank)
		}
	}
}

func TestDetectorLeaveOneOut(t *testing.T) {
	d := NewDetector(8, 0, 1, 0) // flag on the first out-of-band boundary
	vals := []float64{1, 1, 1, 1, 4, 1, 1, 1}
	newly := d.Observe(vals)
	if len(newly) != 1 || newly[0] != 4 {
		t.Fatalf("newly flagged = %v, want [4]", newly)
	}
	// Identical peers: the straggler's z comes from the eps·mean floor,
	// (4−1)/(0.05·1) = 60.
	if z := d.Z(4); math.Abs(z-60) > 1e-9 {
		t.Fatalf("straggler z = %g, want 60", z)
	}
	// A healthy rank's peers include the straggler; its score must stay
	// inside the band.
	if z := d.Z(0); math.Abs(z) > DefaultZ {
		t.Fatalf("healthy rank z = %g, want |z| ≤ %g", z, DefaultZ)
	}
	for r := range vals {
		if d.Flagged(r) != (r == 4) {
			t.Fatalf("rank %d flagged = %v, want only rank 4 flagged", r, d.Flagged(r))
		}
	}
}

func TestDetectorStreakResets(t *testing.T) {
	d := NewDetector(4, 0, 3, 0)
	out := []float64{1, 1, 1, 4}
	in := []float64{1, 1, 1, 1}
	d.Observe(out)
	d.Observe(out)
	d.Observe(in) // back in band: streak resets
	if newly := d.Observe(out); len(newly) != 0 {
		t.Fatalf("flagged after reset: %v", newly)
	}
	d.Observe(out)
	if newly := d.Observe(out); len(newly) != 1 || newly[0] != 3 {
		t.Fatalf("three consecutive out-of-band boundaries: newly = %v, want [3]", newly)
	}
	// Sticky: observing in-band again does not unflag.
	d.Observe(in)
	if !d.Flagged(3) {
		t.Fatal("flag not sticky")
	}
}

func TestDetectorIgnoresTinyFleets(t *testing.T) {
	// Two ranks: no peer distribution, nobody flagged however far apart
	// they sit.
	d := NewDetector(2, 0, 1, 0)
	if newly := d.Observe([]float64{1, 100}); newly != nil || d.Z(1) != 0 {
		t.Fatalf("flagged with one peer: %v (z %g)", newly, d.Z(1))
	}
	// A signal shorter than the fleet scores only the ranks it covers.
	d2 := NewDetector(4, 0, 1, 0)
	if newly := d2.Observe([]float64{1, 100}); newly != nil {
		t.Fatalf("short signal scored: %v", newly)
	}
}

func BenchmarkFleetIngest(b *testing.B) {
	const p = 8
	f := NewFleet(p)
	buf := frameBuf(p)
	for rank := 0; rank < p; rank++ {
		Frame{Rank: rank, T: 4, SimCompute: 0.1}.Encode(buf)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		f.Ingest(buf)
	}
}
