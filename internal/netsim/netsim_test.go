package netsim

import (
	"math"
	"sync"
	"testing"

	"sasgd/internal/comm"
)

func TestClockAdvanceAndSyncAccounting(t *testing.T) {
	c := &Clock{}
	c.Advance(2)
	c.Sync(5) // +3 of communication
	c.Sync(1) // in the past: ignored
	if c.Now() != 5 {
		t.Errorf("Now = %g, want 5", c.Now())
	}
	cp, cm := c.Split()
	if cp != 2 || cm != 3 {
		t.Errorf("Split = (%g, %g), want (2, 3)", cp, cm)
	}
}

func TestClockNegativeAdvancePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative Advance did not panic")
		}
	}()
	(&Clock{}).Advance(-1)
}

func TestClockConcurrentReads(t *testing.T) {
	c := &Clock{}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 1000; i++ {
			c.Advance(0.001)
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 1000; i++ {
			c.Split()
			c.Now()
		}
	}()
	wg.Wait()
}

func TestTreeHops(t *testing.T) {
	cases := []struct{ a, b, want int }{
		{0, 0, 0}, {0, 1, 2}, {2, 3, 2}, {0, 2, 4}, {1, 2, 4}, {0, 7, 6}, {3, 4, 6},
	}
	for _, c := range cases {
		if got := treeHops(c.a, c.b); got != c.want {
			t.Errorf("treeHops(%d, %d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
	// Symmetry.
	for a := 0; a < 8; a++ {
		for b := 0; b < 8; b++ {
			if treeHops(a, b) != treeHops(b, a) {
				t.Fatalf("treeHops not symmetric at (%d, %d)", a, b)
			}
		}
	}
}

func TestXferTimeScalesWithSizeAndDistance(t *testing.T) {
	s := New(8, DefaultConfig())
	cm := s.CostModel()
	near := cm.XferTime(0, 1, 1000)
	far := cm.XferTime(0, 7, 1000)
	if far <= near {
		t.Error("transfer to a distant leaf not slower")
	}
	small := cm.XferTime(0, 1, 1000)
	big := cm.XferTime(0, 1, 1_000_000)
	if big <= small {
		t.Error("bigger payload not slower")
	}
}

func TestWordFactorRescalesBytes(t *testing.T) {
	cfg := DefaultConfig()
	cfg.WordFactor = 10
	cfg.PeerLatency = 0
	s1 := New(2, DefaultConfig())
	s10 := New(2, cfg)
	base := DefaultConfig()
	base.PeerLatency = 0
	s1 = New(2, base)
	r1 := s1.CostModel().XferTime(0, 1, 1000)
	r10 := s10.CostModel().XferTime(0, 1, 1000)
	if math.Abs(r10/r1-10) > 1e-9 {
		t.Errorf("WordFactor scaling = %g, want 10", r10/r1)
	}
}

func TestServerOpTimeContention(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ServerContention = 0.5
	s := New(4, cfg)
	cm := s.CostModel()
	one := cm.ServerOpTime(1000, 4, 1)
	four := cm.ServerOpTime(1000, 4, 4)
	want := one * (1 + 0.5*3)
	if math.Abs(four-want) > 1e-12 {
		t.Errorf("contended op = %g, want %g", four, want)
	}
}

func TestChargeBatchJitterBounds(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ComputeJitter = 0.2
	s := New(1, cfg)
	base := 1e9/cfg.Flops + cfg.BatchOverhead
	prev := 0.0
	for i := 0; i < 200; i++ {
		s.ChargeBatch(0, 1e9)
		now := s.Clock(0).Now()
		dt := now - prev
		prev = now
		if dt < base*0.8-1e-12 || dt > base*1.2+1e-12 {
			t.Fatalf("jittered batch time %g outside ±20%% of %g", dt, base)
		}
	}
}

func TestChargeBatchDeterministicPerRank(t *testing.T) {
	a, b := New(2, DefaultConfig()), New(2, DefaultConfig())
	for i := 0; i < 50; i++ {
		a.ChargeBatch(0, 1e9)
		b.ChargeBatch(0, 1e9)
	}
	if a.Clock(0).Now() != b.Clock(0).Now() {
		t.Error("identical charge sequences produced different clocks")
	}
}

func TestMaxTime(t *testing.T) {
	s := New(3, DefaultConfig())
	s.Clock(1).Advance(5)
	s.Clock(2).Advance(3)
	if s.MaxTime() != 5 {
		t.Errorf("MaxTime = %g, want 5", s.MaxTime())
	}
}

// TestSimulatedCollectiveCostsGrowLogarithmically checks the headline
// complexity claim the figures rely on: the critical-path time of a tree
// allreduce grows like log p, not p.
func TestSimulatedCollectiveCostsGrowLogarithmically(t *testing.T) {
	epochTime := func(p int) float64 {
		cfg := DefaultConfig()
		cfg.ComputeJitter = 0
		sim := New(p, cfg)
		g := comm.NewSimGroup(p, sim.Clocks(), sim.CostModel())
		var wg sync.WaitGroup
		const words = 100000
		for r := 0; r < p; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				buf := make([]float64, words)
				g.AllreduceTree(r, buf)
			}(r)
		}
		wg.Wait()
		return sim.MaxTime()
	}
	t2 := epochTime(2)
	t4 := epochTime(4)
	t8 := epochTime(8)
	// log₂ scaling: time(8)/time(2) ≈ 3, far below the ×4 of linear
	// scaling in p.
	ratio := t8 / t2
	if ratio > 3.6 {
		t.Errorf("allreduce cost scales too fast: t2=%g t4=%g t8=%g (t8/t2=%.2f)", t2, t4, t8, ratio)
	}
	if t8 <= t4 || t4 <= t2 {
		t.Errorf("allreduce cost not increasing: %g %g %g", t2, t4, t8)
	}
}

func TestNewPanicsOnBadCount(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(0) did not panic")
		}
	}()
	New(0, DefaultConfig())
}

func TestFlatTopologyUniformLatency(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Topology = TopologyFlat
	s := New(8, cfg)
	cm := s.CostModel()
	near := cm.XferTime(0, 1, 1000)
	far := cm.XferTime(0, 7, 1000)
	if near != far {
		t.Errorf("flat topology not uniform: %g vs %g", near, far)
	}
	if self := cm.XferTime(3, 3, 1000); self >= near {
		t.Errorf("self transfer (%g) should skip switch hops (%g)", self, near)
	}
}

func TestTreeBeatsFlatForNeighbors(t *testing.T) {
	tree := New(8, DefaultConfig())
	flat := DefaultConfig()
	flat.Topology = TopologyFlat
	f := New(8, flat)
	// Adjacent leaves share a switch in both models (2 hops), but distant
	// leaves pay more on the tree.
	if tree.CostModel().XferTime(0, 1, 10) != f.CostModel().XferTime(0, 1, 10) {
		t.Error("neighbor cost should match across topologies")
	}
	if tree.CostModel().XferTime(0, 7, 10) <= f.CostModel().XferTime(0, 7, 10) {
		t.Error("distant leaves should cost more on the tree")
	}
}

func TestIslandOfFollowsIslandSize(t *testing.T) {
	s := New(8, DefaultConfig()) // IslandSize defaults to 2
	want := []int{0, 0, 1, 1, 2, 2, 3, 3}
	for r, w := range want {
		if got := s.IslandOf(r); got != w {
			t.Errorf("IslandOf(%d) = %d, want %d", r, got, w)
		}
	}
	cfg := DefaultConfig()
	cfg.IslandSize = 4
	s = New(8, cfg)
	if s.IslandOf(3) != 0 || s.IslandOf(4) != 1 {
		t.Errorf("IslandSize=4: IslandOf(3)=%d IslandOf(4)=%d, want 0, 1",
			s.IslandOf(3), s.IslandOf(4))
	}
}

// TestUplinkPricesCrossIslandOnly: a constrained uplink must slow only
// transfers that cross an island boundary; intra-island transfers keep
// the peer-link rate.
func TestUplinkPricesCrossIslandOnly(t *testing.T) {
	base := DefaultConfig()
	cfg := DefaultConfig()
	cfg.UplinkBandwidth = cfg.PeerBandwidth / 4
	sBase, sUp := New(8, base), New(8, cfg)
	const words = 100000
	// Ranks 0,1 share an island (IslandSize 2): same cost either way.
	if a, b := sBase.CostModel().XferTime(0, 1, words), sUp.CostModel().XferTime(0, 1, words); a != b {
		t.Errorf("intra-island transfer repriced: %g vs %g", a, b)
	}
	// Ranks 1,2 straddle the boundary: the constrained uplink is slower.
	if a, b := sBase.CostModel().XferTime(1, 2, words), sUp.CostModel().XferTime(1, 2, words); b <= a {
		t.Errorf("cross-island transfer not repriced: base %g, uplink %g", a, b)
	}
}

// TestUplinkZeroKeepsLegacyCosts pins backward compatibility: the
// default (zero) uplink must reproduce the pre-island cost model
// exactly, so every previously published epoch time stands.
func TestUplinkZeroKeepsLegacyCosts(t *testing.T) {
	s := New(8, DefaultConfig())
	cm := s.CostModel()
	for from := 0; from < 8; from++ {
		for to := 0; to < 8; to++ {
			cfgWords := 12345
			want := float64(treeHops(from, to))*DefaultConfig().PeerLatency +
				float64(cfgWords)*DefaultConfig().WordBytes/DefaultConfig().PeerBandwidth
			if got := cm.XferTime(from, to, cfgWords); math.Abs(got-want) > 1e-15*want {
				t.Fatalf("XferTime(%d,%d) = %g, want legacy %g", from, to, got, want)
			}
		}
	}
}
