package comm

import (
	"math/rand"
	"runtime/debug"
	"testing"

	"sasgd/internal/parallel"
)

func fillRankBufs(p, m int, seed int64) [][]float64 {
	bufs := make([][]float64, p)
	for r := range bufs {
		rng := rand.New(rand.NewSource(seed + int64(r)))
		bufs[r] = make([]float64, m)
		for i := range bufs[r] {
			bufs[r][i] = rng.NormFloat64()
		}
	}
	return bufs
}

func TestBlockIslands(t *testing.T) {
	cases := []struct {
		p, groups int
		want      []int
	}{
		{8, 4, []int{0, 0, 1, 1, 2, 2, 3, 3}},
		{8, 1, []int{0, 0, 0, 0, 0, 0, 0, 0}},
		{8, 8, []int{0, 1, 2, 3, 4, 5, 6, 7}},
		{5, 2, []int{0, 0, 0, 1, 1}},
		{3, 2, []int{0, 0, 1}},
		{4, 0, []int{0, 0, 0, 0}}, // groups clamps up to 1
		{2, 99, []int{0, 1}},      // groups clamps down to p
		{7, 3, []int{0, 0, 0, 1, 1, 1, 2}},
	}
	for _, tc := range cases {
		got := BlockIslands(tc.p, tc.groups)
		for i := range got {
			if got[i] != tc.want[i] {
				t.Fatalf("BlockIslands(%d,%d) = %v, want %v", tc.p, tc.groups, got, tc.want)
			}
		}
	}
}

// TestHierSingleIslandBitwiseTree is the degenerate pin, and the
// differential for "one engine, any member list": the flat group, a
// hierarchy with one island, and an island scattered over the odd ranks
// of a larger group all lay the same binomial tree over p members, so
// they must leave bitwise-equal buffers and move the same words in the
// same number of messages, at every member count.
func TestHierSingleIslandBitwiseTree(t *testing.T) {
	const m = 61
	for _, p := range []int{1, 2, 3, 5, 8} {
		ref := fillRankBufs(p, m, 42)
		gRef := NewGroup(p)
		runGroup(p, gRef, func(r int) { gRef.AllreduceTree(r, ref[r]) })
		want := gRef.Stats()

		// One island holding every rank.
		one := fillRankBufs(p, m, 42)
		g := NewGroup(p)
		h := NewHier(g, 1)
		if h.Islands() != 1 {
			t.Fatalf("p=%d groups=1: %d islands", p, h.Islands())
		}
		runGroup(p, g, func(r int) { h.AllreduceIntra(r, one[r]) })

		// The same p members as ranks 1, 3, 5, … of a (2p+1)-rank
		// group whose other ranks are islands of their own.
		big := 2*p + 1
		islandOf := make([]int, big)
		for r := range islandOf {
			if r%2 == 0 {
				islandOf[r] = r + 1
			}
		}
		src := fillRankBufs(p, m, 42)
		sub := make([][]float64, big)
		for r := range sub {
			if sub[r] = make([]float64, m); r%2 == 1 {
				sub[r] = src[r/2]
			}
		}
		gs := NewGroup(big)
		hs := NewHierOf(gs, islandOf)
		if hs.IslandSize(1) != p {
			t.Fatalf("p=%d: scattered island has %d members", p, hs.IslandSize(1))
		}
		runGroup(big, gs, func(r int) { hs.AllreduceIntra(r, sub[r]) })

		for name, got := range map[string][][]float64{"one island": one, "scattered island": src} {
			for r := 0; r < p; r++ {
				for i := range got[r] {
					if got[r][i] != ref[r][i] {
						t.Fatalf("p=%d member=%d: %s not bitwise the flat tree at %d: %g vs %g",
							p, r, name, i, got[r][i], ref[r][i])
					}
				}
			}
		}
		for name, st := range map[string]Stats{"one island": g.Stats(), "scattered island": gs.Stats()} {
			if st.Words != want.Words || st.Messages != want.Messages {
				t.Errorf("p=%d: %s moved %d words in %d messages, the flat tree %d in %d",
					p, name, st.Words, st.Messages, want.Words, want.Messages)
			}
			if p > 1 && st.PerAlgo["hintra"].Words != st.Words {
				t.Errorf("p=%d: %s traffic %v, want all of it under hintra", p, name, st.PerAlgo)
			}
		}
	}
}

// TestHierIntraSumsIslandOnly checks that the intra collective sums
// exactly the members of each island and leaves other islands untouched.
func TestHierIntraSumsIslandOnly(t *testing.T) {
	const m = 100
	for _, tc := range []struct{ p, groups int }{{8, 4}, {8, 2}, {5, 2}, {3, 2}, {7, 3}} {
		bufs := fillRankBufs(tc.p, m, 7)
		want := make([][]float64, tc.p)
		isl := BlockIslands(tc.p, tc.groups)
		for r := 0; r < tc.p; r++ {
			want[r] = make([]float64, m)
			for q := 0; q < tc.p; q++ {
				if isl[q] == isl[r] {
					for i := range want[r] {
						want[r][i] += bufs[q][i]
					}
				}
			}
		}
		g := NewGroup(tc.p)
		h := NewHier(g, tc.groups)
		runGroup(tc.p, g, func(r int) { h.AllreduceIntra(r, bufs[r]) })
		for r := 0; r < tc.p; r++ {
			for i := range bufs[r] {
				if d := bufs[r][i] - want[r][i]; d > 1e-12 || d < -1e-12 {
					t.Fatalf("p=%d groups=%d rank=%d: intra sum off at %d: %g vs %g",
						tc.p, tc.groups, r, i, bufs[r][i], want[r][i])
				}
			}
		}
	}
}

// TestHierInterGlobalSum: after an intra round, the inter exchange must
// leave the sum of the island aggregates — one contribution per island —
// on every rank, leaders and non-leaders alike.
func TestHierInterGlobalSum(t *testing.T) {
	const m = 131
	for _, tc := range []struct{ p, groups int }{{8, 4}, {8, 2}, {6, 3}, {5, 2}, {4, 4}, {7, 3}} {
		bufs := fillRankBufs(tc.p, m, 19)
		want := make([]float64, m)
		for r := 0; r < tc.p; r++ {
			for i := range want {
				want[i] += bufs[r][i]
			}
		}
		g := NewGroup(tc.p)
		h := NewHier(g, tc.groups)
		runGroup(tc.p, g, func(r int) {
			h.AllreduceIntra(r, bufs[r])
			h.AllreduceInter(r, bufs[r])
		})
		for r := 0; r < tc.p; r++ {
			for i := range bufs[r] {
				if d := bufs[r][i] - want[i]; d > 1e-9 || d < -1e-9 {
					t.Fatalf("p=%d groups=%d rank=%d: global sum off at %d: %g vs %g",
						tc.p, tc.groups, r, i, bufs[r][i], want[i])
				}
			}
		}
	}
}

// TestHierOfNormalizesIds: explicit island maps with gaps in their ids
// normalize by first appearance, leaders are the
// lowest member of each island, and the group's cross-island accounting
// follows the new map.
func TestHierOfNormalizesIds(t *testing.T) {
	g := NewGroup(5)
	// Raw ids [0,0,3,7,7] compact to [0,0,1,2,2].
	h := NewHierOf(g, []int{0, 0, 3, 7, 7})
	if h.Islands() != 3 {
		t.Fatalf("islands = %d, want 3", h.Islands())
	}
	wantIsland := []int{0, 0, 1, 2, 2}
	for r, w := range wantIsland {
		if h.IslandOf(r) != w {
			t.Fatalf("IslandOf(%d) = %d, want %d", r, h.IslandOf(r), w)
		}
	}
	for r, lead := range map[int]bool{0: true, 1: false, 2: true, 3: true, 4: false} {
		if h.IsLeader(r) != lead {
			t.Fatalf("IsLeader(%d) = %v, want %v", r, h.IsLeader(r), lead)
		}
	}
	if h.IslandSize(2) != 1 || h.IslandSize(4) != 2 {
		t.Fatalf("island sizes: %d, %d", h.IslandSize(2), h.IslandSize(4))
	}
}

// TestHierTrafficSplit: intra traffic must never cross islands, so
// CrossWords counts only the inter phase's leader hops, and the hintra /
// hinter per-algorithm totals split the word count accordingly.
func TestHierTrafficSplit(t *testing.T) {
	const p, groups, m = 8, 4, 200
	bufs := fillRankBufs(p, m, 3)
	g := NewGroup(p)
	h := NewHier(g, groups)

	runGroup(p, g, func(r int) { h.AllreduceIntra(r, bufs[r]) })
	st := g.Stats()
	if st.CrossWords != 0 {
		t.Fatalf("intra phase crossed islands: %d cross words", st.CrossWords)
	}
	intra := st.Words
	if intra == 0 {
		t.Fatal("intra phase moved no words")
	}

	runGroup(p, g, func(r int) { h.AllreduceInter(r, bufs[r]) })
	st = g.Stats()
	if st.CrossWords == 0 {
		t.Fatal("inter phase reported no cross-island words")
	}
	// The island fan-out (leader → member) stays inside each island, so
	// cross words must be strictly fewer than the inter phase's total.
	inter := st.Words - intra
	if st.CrossWords >= inter {
		t.Fatalf("cross words %d ≥ inter words %d", st.CrossWords, inter)
	}
}

// TestHierSteadyStateAllocs pins the hierarchical collectives to zero
// steady-state allocations, like every other collective in the fabric:
// the scheduled path runs them every boundary for the whole training
// run.
func TestHierSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; allocs/op is pinned in non-race builds")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer parallel.SetWorkers(parallel.SetWorkers(1))

	const p, groups, m = 8, 4, 1003
	g := NewGroup(p)
	h := NewHier(g, groups)
	bufs := make([][]float64, p)
	for r := range bufs {
		bufs[r] = make([]float64, m)
		for i := range bufs[r] {
			bufs[r][i] = float64(r + i)
		}
	}
	start := make([]chan struct{}, p)
	done := make(chan struct{}, p)
	both := func(r int) {
		h.AllreduceIntra(r, bufs[r])
		h.AllreduceInter(r, bufs[r])
	}
	for r := 1; r < p; r++ {
		start[r] = make(chan struct{})
		go func(r int) {
			for range start[r] {
				both(r)
				done <- struct{}{}
			}
		}(r)
	}
	round := func() {
		for r := 1; r < p; r++ {
			start[r] <- struct{}{}
		}
		both(0)
		for r := 1; r < p; r++ {
			<-done
		}
	}
	for i := 0; i < 5; i++ {
		round()
	}
	if avg := testing.AllocsPerRun(10, round); avg != 0 {
		t.Errorf("%.1f allocs per steady-state hier round, want 0", avg)
	}
	for r := 1; r < p; r++ {
		close(start[r])
	}
}
