package comm

import (
	"testing"
	"time"
)

func TestParseFaultPlan(t *testing.T) {
	plan, err := ParseFaultPlan("seed=7,drop=0.05,delay=0.1~0.02,slow=3:4,crash=5@8,burst=0>1@10+5,evict=80ms")
	if err != nil {
		t.Fatal(err)
	}
	if plan.Seed != 7 || plan.Drop != 0.05 || plan.DelayMean != 0.1 || plan.DelayJitter != 0.02 {
		t.Errorf("scalar fields wrong: %+v", plan)
	}
	if plan.Slow[3] != 4 {
		t.Errorf("slow = %v, want rank 3 ×4", plan.Slow)
	}
	if plan.CrashAt[5] != 8 {
		t.Errorf("crash = %v, want rank 5 @ boundary 8", plan.CrashAt)
	}
	if len(plan.Bursts) != 1 || plan.Bursts[0] != (Burst{From: 0, To: 1, Start: 10, N: 5}) {
		t.Errorf("bursts = %v", plan.Bursts)
	}
	if plan.EvictAfter != 80*time.Millisecond {
		t.Errorf("evict = %v, want 80ms", plan.EvictAfter)
	}

	// String must round-trip through the parser.
	plan2, err := ParseFaultPlan(plan.String())
	if err != nil {
		t.Fatalf("round-trip parse of %q: %v", plan.String(), err)
	}
	if plan2.String() != plan.String() {
		t.Errorf("round trip changed the plan: %q vs %q", plan2.String(), plan.String())
	}

	if p, err := ParseFaultPlan(""); p != nil || err != nil {
		t.Errorf("empty spec should be (nil, nil), got (%v, %v)", p, err)
	}
	for _, bad := range []string{"drop", "drop=x", "drop=1.5", "slow=3", "crash=5", "burst=0>1", "nope=1",
		"timeout=5ms", "retries=9"} {
		if _, err := ParseFaultPlan(bad); err == nil {
			t.Errorf("spec %q should fail to parse", bad)
		}
	}
}

// allreduceInSegments runs one tree allreduce per w-word slice of buf:
// bitwise the whole-buffer tree, in ⌈m/w⌉ times the messages — traffic
// for the fault plans below to drop.
func allreduceInSegments(g *Group, rank int, buf []float64, w int) {
	for lo := 0; lo < len(buf); lo += w {
		g.AllreduceTree(rank, buf[lo:min(lo+w, len(buf))])
	}
}

// TestFaultyAllreduceCorrect: with per-attempt message drops active,
// every collective must still complete with bitwise the fault-free
// result — faults cost traffic, never bits.
func TestFaultyAllreduceCorrect(t *testing.T) {
	var totalDrops int64
	for _, p := range []int{2, 4, 5} {
		m := 37
		orig, want := makeBufs(p, m, int64(900+p))

		got := cloneBufs(orig)
		g := NewGroup(p)
		g.InjectFaults(&FaultPlan{Seed: 42, Drop: 0.3})
		runGroup(p, g, func(rank int) { allreduceInSegments(g, rank, got[rank], 8) })
		g.Close()

		for r := 0; r < p; r++ {
			for i := range want {
				if got[r][i] != want[i] {
					t.Fatalf("p=%d rank=%d[%d]: faulty %g != fault-free %g (must be bitwise)",
						p, r, i, got[r][i], want[i])
				}
			}
		}
		totalDrops += g.Stats().Faults.Drops
	}
	if totalDrops == 0 {
		t.Error("drop=0.3 runs recorded no drops at all")
	}
}

// TestFaultDeterminism: the fault schedule is a pure function of the
// plan, so two identical runs must record identical drop counters.
func TestFaultDeterminism(t *testing.T) {
	run := func(seed int64) FaultStats {
		p, m := 4, 64
		orig, _ := makeBufs(p, m, 77)
		got := cloneBufs(orig)
		g := NewGroup(p)
		g.InjectFaults(&FaultPlan{Seed: seed, Drop: 0.2})
		runGroup(p, g, func(rank int) { allreduceInSegments(g, rank, got[rank], 16) })
		g.Close()
		return g.Stats().Faults
	}
	a, b := run(11), run(11)
	if a.Drops != b.Drops {
		t.Errorf("same plan, different drop counts: %d vs %d", a.Drops, b.Drops)
	}
	if c := run(12); c.Drops == a.Drops {
		t.Logf("note: seeds 11 and 12 coincidentally matched (%+v)", c)
	}
}

// TestRetryAccountingProperty: replaying the plan's drop hash over every
// link's consumed sequence range predicts the fault counters exactly.
// Each message's fate is decided at its send — its leading dropped
// attempts, then one delivered copy — so Drops is the replayed count,
// and every dropped attempt adds its words and one message to the
// fault-free traffic.
func TestRetryAccountingProperty(t *testing.T) {
	const p, m, w = 4, 128, 16
	run := func(plan *FaultPlan) *Group {
		orig, _ := makeBufs(p, m, 13)
		got := cloneBufs(orig)
		g := NewGroup(p)
		g.InjectFaults(plan)
		for round := 0; round < 3; round++ {
			runGroup(p, g, func(rank int) { allreduceInSegments(g, rank, got[rank], w) })
		}
		g.Close()
		return g
	}
	clean := run(nil).Stats()
	if clean.Words != w*clean.Messages {
		t.Fatalf("fault-free run moved %d words in %d messages, want %d-word messages", clean.Words, clean.Messages, w)
	}
	g := run(&FaultPlan{Seed: 31, Drop: 0.3})

	var wantDrops int64
	fab := g.fab
	for from := 0; from < p; from++ {
		for to := 0; to < p; to++ {
			for seq := int64(0); seq < fab.seq[fab.linkIdx(from, to)].Load(); seq++ {
				for attempt := 0; fab.dropAttempt(from, to, seq, attempt); attempt++ {
					wantDrops++
				}
			}
		}
	}
	st := g.Stats()
	if wantDrops == 0 {
		t.Fatal("drop=0.3 plan replays no drops")
	}
	if st.Faults.Drops != wantDrops {
		t.Errorf("Drops = %d, hash replay predicts %d", st.Faults.Drops, wantDrops)
	}
	if want := clean.Words + w*wantDrops; st.Words != want {
		t.Errorf("Words = %d, want fault-free %d + %d dropped words = %d", st.Words, clean.Words, w*wantDrops, want)
	}
	if want := clean.Messages + wantDrops; st.Messages != want {
		t.Errorf("Messages = %d, want fault-free %d + %d dropped = %d", st.Messages, clean.Messages, wantDrops, want)
	}
}

// TestDropBurst: a scheduled outage drops the first attempt of each
// sequence in its window; the resend passes.
func TestDropBurst(t *testing.T) {
	p, m := 2, 40
	orig, want := makeBufs(p, m, 14)
	got := cloneBufs(orig)
	g := NewGroup(p)
	g.InjectFaults(&FaultPlan{
		Seed:   1,
		Bursts: []Burst{{From: 1, To: 0, Start: 0, N: 3}},
	})
	runGroup(p, g, func(rank int) { allreduceInSegments(g, rank, got[rank], 8) })
	g.Close()
	for r := 0; r < p; r++ {
		for i := range want {
			if got[r][i] != want[i] {
				t.Fatalf("rank=%d[%d]: burst run %g != fault-free %g", r, i, got[r][i], want[i])
			}
		}
	}
	if st := g.Stats().Faults; st.Drops != 3 {
		t.Errorf("burst of 3 sequences recorded %d drops, want exactly 3", st.Drops)
	}
}

// TestInjectedDelayShowsInSimulatedTime: injected latency must land on
// the receiving learner's simulated clock.
func TestInjectedDelayShowsInSimulatedTime(t *testing.T) {
	run := func(plan *FaultPlan) float64 {
		p, m := 4, 32
		clocks := make([]Clock, p)
		for i := range clocks {
			clocks[i] = &simpleClock{}
		}
		g := NewSimGroup(p, clocks, wordCost{})
		if plan != nil {
			g.InjectFaults(plan)
		}
		bufs := make([][]float64, p)
		for r := range bufs {
			bufs[r] = make([]float64, m)
		}
		runGroup(p, g, func(rank int) { g.AllreduceTree(rank, bufs[rank]) })
		g.Close()
		max := 0.0
		for _, c := range clocks {
			if c.Now() > max {
				max = c.Now()
			}
		}
		return max
	}
	clean := run(nil)
	delayed := run(&FaultPlan{Seed: 3, DelayMean: 100})
	if delayed < clean+100 {
		t.Errorf("injected 100s mean delay moved completion only %.0f → %.0f simulated seconds", clean, delayed)
	}
}
