package comm

import (
	"testing"
	"time"
)

func TestParseFaultPlan(t *testing.T) {
	plan, err := ParseFaultPlan("seed=7,drop=0.05,delay=0.1~0.02,slow=3:4,crash=5@8,burst=0>1@10+5,timeout=5ms,retries=9,evict=80ms")
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
	if plan.RetryTimeout != 5*time.Millisecond || plan.MaxRetries != 9 || plan.EvictAfter != 80*time.Millisecond {
		t.Errorf("protocol knobs wrong: %+v", plan)
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
	for _, bad := range []string{"drop", "drop=x", "drop=1.5", "slow=3", "crash=5", "burst=0>1", "nope=1"} {
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

// TestFaultyAllreduceCorrect: with per-attempt message drops active, the
// acknowledged-delivery protocol must still complete every collective
// with bitwise the fault-free result — faults cost retries, never bits.
func TestFaultyAllreduceCorrect(t *testing.T) {
	var totalDrops, totalRetries int64
	for _, p := range []int{2, 4, 5} {
		m := 37
		orig, want := makeBufs(p, m, int64(900+p))

		got := cloneBufs(orig)
		g := NewGroup(p)
		g.InjectFaults(&FaultPlan{Seed: 42, Drop: 0.3, RetryTimeout: 20 * time.Millisecond})
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
		st := g.Stats()
		totalDrops += st.Faults.Drops
		totalRetries += st.Faults.Retries
	}
	if totalDrops == 0 {
		t.Error("drop=0.3 runs recorded no drops at all")
	}
	if totalRetries == 0 {
		t.Error("dropped messages recorded no retries")
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
		g.InjectFaults(&FaultPlan{Seed: seed, Drop: 0.2, RetryTimeout: 20 * time.Millisecond})
		runGroup(p, g, func(rank int) { allreduceInSegments(g, rank, got[rank], 16) })
		g.Close()
		return g.Stats().Faults
	}
	a, b := run(11), run(11)
	if a.Drops != b.Drops {
		t.Errorf("same plan, different drop counts: %d vs %d", a.Drops, b.Drops)
	}
	if c := run(12); c.Drops == a.Drops && c.Retries == a.Retries {
		t.Logf("note: seeds 11 and 12 coincidentally matched (%+v)", c)
	}
}

// TestRetryAccountingProperty: replaying the plan's drop hash over every
// link's consumed sequence range predicts the retransmission counters.
// Every message must survive its leading dropped attempts, so the
// replayed count is an exact lower bound; spurious ack timeouts (a
// receiver descheduled past the window) add retransmissions — and those
// extra attempts can themselves be dropped — so both counters get a
// bounded upward slack.
func TestRetryAccountingProperty(t *testing.T) {
	p, m := 4, 128
	plan := &FaultPlan{Seed: 31, Drop: 0.3, RetryTimeout: 120 * time.Millisecond}
	orig, _ := makeBufs(p, m, 13)
	got := cloneBufs(orig)
	g := NewGroup(p)
	g.InjectFaults(plan)
	for round := 0; round < 3; round++ {
		runGroup(p, g, func(rank int) { allreduceInSegments(g, rank, got[rank], 16) })
	}
	g.Close()

	var wantDrops, wantRetries int64
	fab := g.fab
	for from := 0; from < p; from++ {
		for to := 0; to < p; to++ {
			li := fab.linkIdx(from, to)
			for seq := int64(0); seq < fab.seq[li]; seq++ {
				attempt := 0
				for fab.dropAttempt(from, to, seq, attempt) {
					wantDrops++
					wantRetries++
					attempt++
				}
			}
		}
	}
	st := g.Stats().Faults
	slack := wantRetries/4 + 4
	if st.Drops < wantDrops || st.Drops > wantDrops+slack {
		t.Errorf("Drops = %d, hash replay predicts %d (exact lower bound, slack %d)",
			st.Drops, wantDrops, slack)
	}
	if st.Retries < wantRetries || st.Retries > wantRetries+slack {
		t.Errorf("Retries = %d, hash replay predicts %d (exact lower bound, slack %d)",
			st.Retries, wantRetries, slack)
	}
	if st.Timeouts != st.Retries {
		t.Errorf("stop-and-wait must map timeouts 1:1 onto retries: %d timeouts, %d retries",
			st.Timeouts, st.Retries)
	}
}

// TestDropBurst: a scheduled outage drops the first attempt of each
// sequence in its window; the retry machinery rides it out.
func TestDropBurst(t *testing.T) {
	p, m := 2, 40
	orig, want := makeBufs(p, m, 14)
	got := cloneBufs(orig)
	g := NewGroup(p)
	g.InjectFaults(&FaultPlan{
		Seed:         1,
		Bursts:       []Burst{{From: 1, To: 0, Start: 0, N: 3}},
		RetryTimeout: 10 * time.Millisecond,
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
	st := g.Stats().Faults
	// A burst only ever drops first attempts, so the drop count is exact;
	// retries get slack for spurious ack timeouts under a loaded scheduler.
	if st.Drops != 3 {
		t.Errorf("burst of 3 sequences recorded %d drops, want exactly 3", st.Drops)
	}
	if st.Retries < 3 || st.Retries > 6 {
		t.Errorf("burst recovery recorded %d retries, want 3 (+ spurious-timeout slack)", st.Retries)
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
