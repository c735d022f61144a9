package chaos

import (
	"bytes"
	"fmt"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"

	"sasgd/internal/comm"
	"sasgd/internal/core"
	"sasgd/internal/data"
	"sasgd/internal/nn"
	"sasgd/internal/obs"
	"sasgd/internal/tensor"
)

// Scenario geometry shared by the whole table: 48 training samples,
// batch 4, T=2, 4 epochs. With p=4 (shards of 12, 3 batches/epoch) and
// p=5 (max shard 10, 3 batches/epoch) alike, that is 12 local steps and
// 6 aggregation boundaries (indices 0..5) per run.
const (
	chaosT          = 2
	chaosBatch      = 4
	chaosEpochs     = 4
	chaosSeed       = 21
	chaosBoundaries = 6
)

func chaosScenario(name, spec string, p int) Scenario {
	return Scenario{
		Name: name, Spec: spec, P: p,
		T: chaosT, Batch: chaosBatch, Epochs: chaosEpochs, Seed: chaosSeed,
	}
}

// mustEqualGrads asserts two runs' aggregated gradients are bitwise
// identical over boundaries [from, chaosBoundaries).
func mustEqualGrads(t *testing.T, got, want *GradLog, from int) {
	t.Helper()
	for b := from; b < chaosBoundaries; b++ {
		g, w := got.At(b), want.At(b)
		if g == nil || w == nil {
			t.Fatalf("boundary %d: missing aggregated gradient (got %v, want %v; recorded %v vs %v)",
				b, g != nil, w != nil, got.Boundaries(), want.Boundaries())
		}
		if len(g) != len(w) {
			t.Fatalf("boundary %d: gradient lengths %d vs %d", b, len(g), len(w))
		}
		for i := range g {
			if g[i] != w[i] {
				t.Fatalf("boundary %d: aggregated gradient differs at %d: %g vs %g (must be bitwise identical)",
					b, i, g[i], w[i])
			}
		}
	}
}

func mustEqualParams(t *testing.T, got, want []float64) {
	t.Helper()
	if len(got) == 0 || len(got) != len(want) {
		t.Fatalf("final parameter lengths %d vs %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("final parameters differ at %d: %g vs %g (must be bitwise identical)", i, got[i], want[i])
		}
	}
}

// TestChaosScenarios is the deterministic chaos table. Two compare
// modes:
//
//   - "clean": the degraded run (a straggler — no membership change)
//     must be bitwise identical to the same run with no fault
//     plan at all, at every aggregation boundary and in its final
//     parameters. Fault handling must be value-transparent.
//
//   - "survivors": a run that crashes rank R at boundary B must, from B
//     on, be bitwise identical to a fault-free run over the surviving
//     ranks resumed from the crashed run's own boundary-B checkpoint —
//     the strongest statement that eviction + re-form + γp rescaling
//     degrade gracefully rather than changing the algorithm.
func TestChaosScenarios(t *testing.T) { runChaosTable(t, false) }

// TestChaosScenariosTCP replays the whole chaos table with the degraded
// run's frames carried over a loopback TCP mesh — stragglers, crashes,
// evictions and survivor re-forms all play out over real sockets and
// the wire codec — while every reference run stays on the
// in-process channel fabric. The assertions are unchanged: that IS the
// cross-transport guarantee.
func TestChaosScenariosTCP(t *testing.T) { runChaosTable(t, true) }

func runChaosTable(t *testing.T, tcp bool) {
	cases := []struct {
		name      string
		spec      string
		p         int
		mode      string // "clean" | "survivors"
		crashRank int    // survivors mode
		crashB    int    // survivors mode
		traced    bool
	}{
		{
			name: "slow rank",
			spec: "slow=1:4,evict=2s",
			p:    4, mode: "clean",
		},
		{
			name: "dead rank",
			spec: "crash=2@3,evict=500ms",
			p:    4, mode: "survivors", crashRank: 2, crashB: 3,
		},
		{
			name: "dead root",
			spec: "crash=0@2,evict=500ms",
			p:    4, mode: "survivors", crashRank: 0, crashB: 2,
		},
		{
			name: "combined",
			spec: "slow=3:3,crash=4@2,evict=800ms",
			p:    5, mode: "survivors", crashRank: 4, crashB: 2,
			traced: true,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			prob := Synthetic(48, 24, 101)
			dir := t.TempDir()
			degraded := chaosScenario(tc.name, tc.spec, tc.p)
			degraded.TCP = tcp
			if tc.mode == "survivors" {
				degraded.Checkpoint = filepath.Join(dir, "ck-%d.ckpt")
			}
			var tr *obs.Tracer
			if tc.traced {
				tr = obs.NewTracer(1 << 12)
				degraded.Tracer = tr
			}
			res, log, err := degraded.Run(prob)
			if err != nil {
				t.Fatal(err)
			}

			// Completion: the run must finish with a recorded curve and
			// final parameters no matter what the plan injected.
			if len(res.Curve) == 0 || len(res.FinalParams) == 0 {
				t.Fatalf("degraded run did not complete: %d curve points, %d params",
					len(res.Curve), len(res.FinalParams))
			}

			switch tc.mode {
			case "clean":
				ref := chaosScenario(tc.name+" reference", "", tc.p)
				refRes, refLog, err := ref.Run(prob)
				if err != nil {
					t.Fatal(err)
				}
				mustEqualGrads(t, log, refLog, 0)
				mustEqualParams(t, res.FinalParams, refRes.FinalParams)
				if res.LiveP != tc.p {
					t.Fatalf("LiveP = %d, want %d (no evictions expected)", res.LiveP, tc.p)
				}
			case "survivors":
				f := res.Comm.Faults
				if f.Crashes != 1 || f.Evictions != 1 || f.Reforms != 1 {
					t.Fatalf("membership counters: %+v, want exactly 1 crash/eviction/re-form", f)
				}
				if res.LiveP != tc.p-1 {
					t.Fatalf("LiveP = %d, want %d", res.LiveP, tc.p-1)
				}
				var survivors []int
				for r := 0; r < tc.p; r++ {
					if r != tc.crashRank {
						survivors = append(survivors, r)
					}
				}
				ref := chaosScenario(tc.name+" reference", "", tc.p-1)
				ref.Resume = filepath.Join(dir, fmt.Sprintf("ck-%d.ckpt", tc.crashB))
				ref.ResumeRanks = survivors
				refRes, refLog, err := ref.Run(prob)
				if err != nil {
					t.Fatal(err)
				}
				mustEqualGrads(t, log, refLog, tc.crashB)
				mustEqualParams(t, res.FinalParams, refRes.FinalParams)
			}

			if tc.traced {
				var buf bytes.Buffer
				if err := tr.WriteTrace(&buf); err != nil {
					t.Fatal(err)
				}
				if _, err := obs.ValidateTrace(buf.Bytes()); err != nil {
					t.Fatalf("degraded-run trace failed schema validation: %v", err)
				}
				for _, name := range []string{"heartbeat", "evict", "reform", "crash"} {
					if !strings.Contains(buf.String(), `"`+name+`"`) {
						t.Errorf("trace export missing %q spans", name)
					}
				}
			}
		})
	}
}

// TestChaosDeterminism: the same scenario executed twice must reproduce
// final parameters and membership counters exactly — the property that
// makes chaos failures debuggable.
func TestChaosDeterminism(t *testing.T) {
	prob := Synthetic(48, 24, 101)
	run := func() ([]float64, comm.FaultStats) {
		dir := t.TempDir()
		s := chaosScenario("det", "crash=1@2,evict=500ms", 4)
		s.Checkpoint = filepath.Join(dir, "ck-%d.ckpt")
		res, _, err := s.Run(prob)
		if err != nil {
			t.Fatal(err)
		}
		return res.FinalParams, res.Comm.Faults
	}
	p1, f1 := run()
	p2, f2 := run()
	if want := (comm.FaultStats{Crashes: 1, Evictions: 1, Reforms: 1}); f1 != want || f2 != want {
		t.Fatalf("membership counters %+v and %+v across identical runs, want %+v each", f1, f2, want)
	}
	mustEqualParams(t, p1, p2)
}

// Synthetic builds a fast, separable 4-feature 3-class problem with a
// small two-layer model — deterministic in seed, cheap enough that a
// whole scenario table runs under the race detector in seconds.
func Synthetic(nTrain, nTest int, seed int64) *core.Problem {
	gen := func(n int, seed int64) *data.Dataset {
		rng := rand.New(rand.NewSource(seed))
		d := &data.Dataset{
			X:           tensor.New(n, 4),
			Y:           make([]int, n),
			SampleShape: []int{4},
			Classes:     3,
		}
		for i := 0; i < n; i++ {
			k := rng.Intn(3)
			d.Y[i] = k
			for j := 0; j < 4; j++ {
				v := rng.NormFloat64() * 0.4
				if j == k {
					v += 2
				}
				d.X.Data[i*4+j] = v
			}
		}
		return d
	}
	return &core.Problem{
		Name: "chaos-synthetic",
		Model: func(seed int64) *nn.Network {
			rng := rand.New(rand.NewSource(seed))
			return nn.NewNetwork([]int{4},
				nn.NewLinear(rng, 4, 8),
				nn.NewTanh(),
				nn.NewLinear(rng, 8, 3),
			)
		},
		Train: gen(nTrain, seed),
		Test:  gen(nTest, seed+1),
	}
}
