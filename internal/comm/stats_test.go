package comm

import (
	"strings"
	"testing"

	"sasgd/internal/obs"
)

// Tests for the unified stats: per-algorithm attribution, the exact
// sparse index+value wire accounting, the Reset API and the
// tracer-gated pipeline counters.

// TestStatsPerAlgoAttribution runs one collective of each family on
// separate groups and checks every word lands in the right bucket.
func TestStatsPerAlgoAttribution(t *testing.T) {
	const p, n = 4, 64
	cases := []struct {
		algo string
		run  func(g *Group, rank int, buf []float64)
	}{
		{"tree", func(g *Group, r int, b []float64) { g.AllreduceTree(r, b) }},
		{"ptree", func(g *Group, r int, b []float64) { g.AllreduceTreeChunked(r, b, 16) }},
		{"bcast", func(g *Group, r int, b []float64) { g.BroadcastTree(r, b) }},
	}
	for _, tc := range cases {
		t.Run(tc.algo, func(t *testing.T) {
			g := NewGroup(p)
			bufs := make([][]float64, p)
			for r := range bufs {
				bufs[r] = make([]float64, n)
			}
			runGroup(p, g, func(rank int) { tc.run(g, rank, bufs[rank]) })
			s := g.Stats()
			if len(s.PerAlgo) != 1 {
				t.Fatalf("PerAlgo = %v, want traffic only under %q", s.PerAlgo, tc.algo)
			}
			as := s.PerAlgo[tc.algo]
			if as.Words != s.Words || as.Words != g.WordsSent() || as.Words == 0 {
				t.Errorf("%q words=%d stats total=%d WordsSent=%d; want all equal and nonzero",
					tc.algo, as.Words, s.Words, g.WordsSent())
			}
			if s.Messages != as.Messages || as.Messages == 0 {
				t.Errorf("%q messages=%d total=%d; want equal and nonzero", tc.algo, as.Messages, s.Messages)
			}
			if s.Bytes != 8*s.Words {
				t.Errorf("Bytes=%d, want 8·Words=%d", s.Bytes, 8*s.Words)
			}
		})
	}
}

// TestStatsSparseExactWireWords pins the top-k codec's wire accounting
// exactly: every message is an (index, value) pair stream, so the words
// charged are two per entry shipped — the same len(payload) rule as the
// dense paths — under the "sparse" label.
func TestStatsSparseExactWireWords(t *testing.T) {
	const n, k = 40, 5
	run := func(support func(rank, i int) int) Stats {
		g := NewGroup(2)
		runGroup(2, g, func(rank int) {
			seg := make([]float64, n)
			for i := 0; i < k; i++ {
				seg[support(rank, i)] = float64(i + 1)
			}
			NewCompressor("topk").Allreduce(g, rank, seg, make([]float64, n), float64(k)/n, 0, nil, 0)
		})
		return g.Stats()
	}
	// Identical supports of k entries: rank 1 ships 2k words up, the
	// merged result (same support) ships 2k words down.
	s := run(func(rank, i int) int { return 3 * i })
	if want := int64(2*k + 2*k); s.PerAlgo["sparse"].Words != want || s.Words != want {
		t.Errorf("identical supports: sparse words = %d (total %d), want exactly %d",
			s.PerAlgo["sparse"].Words, s.Words, want)
	}
	if want := int64(2); s.Messages != want {
		t.Errorf("identical supports: messages = %d, want %d", s.Messages, want)
	}
	// Disjoint supports (even coordinates on rank 0, odd on rank 1): the
	// up message is still 2k words and the merge holds 2k entries, which
	// the root cuts back to k before the broadcast — 2k words down.
	s = run(func(rank, i int) int { return 2*i + rank })
	if want, got := int64(2*k+2*k), s.PerAlgo["sparse"].Words; got != want {
		t.Errorf("disjoint supports: sparse words = %d, want exactly %d", got, want)
	}
}

// TestStatsReset pins the Reset API: counters go to zero and resume
// accumulating afterwards.
func TestStatsReset(t *testing.T) {
	const p, n = 4, 32
	g := NewGroup(p)
	bufs := make([][]float64, p)
	for r := range bufs {
		bufs[r] = make([]float64, n)
	}
	runGroup(p, g, func(rank int) { g.AllreduceTree(rank, bufs[rank]) })
	if g.WordsSent() == 0 {
		t.Fatal("no traffic recorded before reset")
	}
	g.ResetStats()
	s := g.Stats()
	if s.Words != 0 || s.Messages != 0 || len(s.PerAlgo) != 0 || g.WordsSent() != 0 {
		t.Errorf("after ResetStats: %+v, WordsSent=%d; want all zero", s, g.WordsSent())
	}
	runGroup(p, g, func(rank int) { g.AllreduceTreeChunked(rank, bufs[rank], 8) })
	s = g.Stats()
	if s.PerAlgo["ptree"].Words == 0 || s.Words != g.WordsSent() {
		t.Errorf("counters did not resume after reset: %+v", s)
	}
}

// TestStatsSendChargedToP2P keeps bare point-to-point traffic out of
// the collective buckets.
func TestStatsSendChargedToP2P(t *testing.T) {
	g := NewGroup(2)
	go g.Send(0, 1, make([]float64, 7))
	g.Recv(1, 0)
	s := g.Stats()
	if s.PerAlgo["p2p"].Words != 7 || s.Words != 7 || s.Messages != 1 {
		t.Errorf("p2p send accounted as %+v, want 7 words / 1 message under p2p", s.PerAlgo)
	}
}

// TestStatsBucketedPipelineCounters checks the tracer-gated pipeline
// accounting: with a tracer attached, the bucketed path reports its op
// count, dwell/busy times and an occupancy in (0, 1].
func TestStatsBucketedPipelineCounters(t *testing.T) {
	const p, n = 4, 1 << 12
	segs := []Segment{{0, n / 2}, {n / 2, n / 2}}
	g := NewGroup(p)
	g.SetTracer(obs.NewTracer(256))
	bufs := make([][]float64, p)
	for r := range bufs {
		bufs[r] = make([]float64, n)
	}
	runGroup(p, g, func(rank int) {
		b := NewBucketedAllreduce(g, rank, segs, 0)
		defer b.Close()
		const rounds = 3
		for it := 0; it < rounds; it++ {
			h0 := b.Begin(0, bufs[rank], 0, 0)
			h1 := b.Begin(1, bufs[rank], 0, 0)
			h0.Wait()
			h1.Wait()
		}
	})
	s := g.Stats()
	if want := int64(p * 3 * len(segs)); s.BucketOps != want {
		t.Errorf("BucketOps = %d, want %d", s.BucketOps, want)
	}
	if s.WorkerBusy <= 0 {
		t.Errorf("WorkerBusy = %v, want > 0 with tracer attached", s.WorkerBusy)
	}
	if s.PipelineOccupancy <= 0 || s.PipelineOccupancy > 1 {
		t.Errorf("PipelineOccupancy = %v, want in (0, 1]", s.PipelineOccupancy)
	}
	if s.MailboxWait <= 0 {
		t.Errorf("MailboxWait = %v, want > 0 with tracer attached", s.MailboxWait)
	}
	// The worker tracks recorded queue_dwell and allreduce spans.
	var dwell, exec int
	for _, pr := range g.Tracer().Profile() {
		switch pr.Phase {
		case obs.PhaseQueueDwell:
			dwell += pr.Count
		case obs.PhaseAllreduce:
			exec += pr.Count
		}
	}
	if want := p * 3 * len(segs); dwell != want || exec != want {
		t.Errorf("traced %d dwell / %d allreduce spans, want %d each", dwell, exec, want)
	}
}

// TestStatsBucketedUntracedKeepsOpCount: without a tracer the timing
// stats stay zero (no clock reads on the hot path) but the op count is
// still maintained.
func TestStatsBucketedUntracedKeepsOpCount(t *testing.T) {
	const p, n = 2, 256
	segs := []Segment{{0, n}}
	g := NewGroup(p)
	bufs := make([][]float64, p)
	for r := range bufs {
		bufs[r] = make([]float64, n)
	}
	runGroup(p, g, func(rank int) {
		b := NewBucketedAllreduce(g, rank, segs, 0)
		defer b.Close()
		b.Begin(0, bufs[rank], 0, 0).Wait()
	})
	s := g.Stats()
	if s.BucketOps != p {
		t.Errorf("BucketOps = %d, want %d", s.BucketOps, p)
	}
	if s.WorkerBusy != 0 || s.QueueDwell != 0 || s.MailboxWait != 0 || s.PipelineOccupancy != 0 {
		t.Errorf("untraced run recorded timings: %+v, want zeros", s)
	}
}

// TestStatsStringRendersTable sanity-checks the text rendering.
func TestStatsStringRendersTable(t *testing.T) {
	const p, n = 2, 16
	g := NewGroup(p)
	bufs := make([][]float64, p)
	for r := range bufs {
		bufs[r] = make([]float64, n)
	}
	runGroup(p, g, func(rank int) { g.AllreduceTree(rank, bufs[rank]) })
	out := g.Stats().String()
	for _, want := range []string{"comm traffic", "tree", "total", "words"} {
		if !strings.Contains(out, want) {
			t.Errorf("Stats.String() missing %q:\n%s", want, out)
		}
	}
}
