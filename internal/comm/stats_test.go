package comm

import (
	"testing"

	"sasgd/internal/obs"
)

// Tests for the unified stats: per-algorithm attribution, the exact
// sparse index+value wire accounting, the Reset API and the
// tracer-gated pipeline counters.

// TestStatsPerAlgoAttribution runs one collective of each family on
// separate groups and checks every word lands in the right bucket. A
// Runner's launch of per-bucket dense sums is the tree's traffic.
func TestStatsPerAlgoAttribution(t *testing.T) {
	const p, n = 4, 64
	cases := []struct {
		name, algo string
		run        func(g *Group, rank int, buf []float64)
	}{
		{"tree", "tree", func(g *Group, r int, b []float64) { g.AllreduceTree(r, b) }},
		{"bcast", "bcast", func(g *Group, r int, b []float64) { g.BroadcastTree(r, b) }},
		{"bucketed", "tree", func(g *Group, r int, b []float64) {
			run := NewRunner(g, r, func(buf []float64, _ float64, _ *obs.Track) {
				g.AllreduceTree(r, buf[n/2:])
				g.AllreduceTree(r, buf[:n/2])
			})
			defer run.Close()
			run.Launch(b, 0)
			run.Wait()
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
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
	runGroup(p, g, func(rank int) { g.AllreduceTree(rank, bufs[rank]) })
	s = g.Stats()
	if s.PerAlgo["tree"].Words == 0 || s.Words != g.WordsSent() {
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

// TestStatsRunnerCounters checks the in-flight exchange accounting:
// with a tracer attached, the Runner reports its launch count,
// dwell/busy times and an occupancy in (0, 1], and records one
// queue_dwell and one allreduce span per launch on its comm track;
// without one the timings stay zero (no clock reads on the hot path)
// but launches are still counted.
func TestStatsRunnerCounters(t *testing.T) {
	const p, n, rounds = 4, 1 << 12, 3
	for _, traced := range []bool{true, false} {
		g := NewGroup(p)
		if traced {
			g.SetTracer(obs.NewTracer(256))
		}
		bufs := make([][]float64, p)
		for r := range bufs {
			bufs[r] = make([]float64, n)
		}
		runGroup(p, g, func(rank int) {
			run := NewRunner(g, rank, func(buf []float64, _ float64, _ *obs.Track) { g.AllreduceTree(rank, buf) })
			defer run.Close()
			for it := 0; it < rounds; it++ {
				run.Launch(bufs[rank], 0)
				run.Wait()
			}
		})
		s := g.Stats()
		if s.Launches != p*rounds {
			t.Errorf("traced=%v: Launches = %d, want %d", traced, s.Launches, p*rounds)
		}
		if !traced {
			if s.WorkerBusy != 0 || s.QueueDwell != 0 || s.MailboxWait != 0 || s.PipelineOccupancy != 0 {
				t.Errorf("untraced run recorded timings: %+v, want zeros", s)
			}
			continue
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
		var dwell, exec int
		for _, pr := range g.Tracer().Profile() {
			switch pr.Phase {
			case obs.PhaseQueueDwell:
				dwell += pr.Count
			case obs.PhaseAllreduce:
				exec += pr.Count
			}
		}
		if want := p * rounds; dwell != want || exec != want {
			t.Errorf("traced %d dwell / %d allreduce spans, want %d each", dwell, exec, want)
		}
	}
}
