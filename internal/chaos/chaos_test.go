package chaos

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

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
// identical over boundaries [from, to).
func mustEqualGrads(t *testing.T, got, want *GradLog, from, to int) {
	t.Helper()
	for b := from; b < to; b++ {
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

// crashError is the error Run ends with when rank crashes at boundary b.
func crashError(rank, b int) string {
	return fmt.Sprintf("learner %d: core: rank %d crashed at boundary %d (fault plan)", rank, rank, b)
}

// survivorsOf lists the p ranks but dead.
func survivorsOf(p, dead int) []int {
	var out []int
	for r := 0; r < p; r++ {
		if r != dead {
			out = append(out, r)
		}
	}
	return out
}

// waitGoroutines waits for the goroutine count to fall back to base: a
// run that ended, crash included, leaves nothing running.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines left running, %d before the run:\n%s",
				runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestChaosScenarios is the deterministic chaos table. Two compare
// modes:
//
//   - "clean": the degraded run (a straggler — no crash) must be bitwise
//     identical to the same run with no fault plan at all, at every
//     aggregation boundary and in its final parameters. Fault handling
//     must be value-transparent.
//
//   - "survivors": a run that crashes rank R at boundary B must end with
//     R's error and leave nothing running, after writing the
//     checkpoints of boundaries 1..B byte for byte as a fault-free run
//     does, with the fault-free run's aggregates before B. The survivors
//     resumed from the boundary-B checkpoint are the recovery: from B
//     on, their aggregates and final parameters must be bitwise those of
//     the same restart on the channel fabric.
func TestChaosScenarios(t *testing.T) { runChaosTable(t, false) }

// TestChaosScenariosTCP replays the whole chaos table with the degraded
// run and the restart carried over a loopback TCP mesh — the straggler,
// the crash's unwinding and the survivors' resume all play out over
// real sockets and the wire codec — while every reference run stays on
// the in-process channel fabric. The assertions are unchanged: that IS
// the cross-transport guarantee.
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
			spec: "slow=1:4",
			p:    4, mode: "clean",
		},
		{
			name: "dead rank",
			spec: "crash=2@3",
			p:    4, mode: "survivors", crashRank: 2, crashB: 3,
		},
		{
			name: "dead root",
			spec: "crash=0@2",
			p:    4, mode: "survivors", crashRank: 0, crashB: 2,
		},
		{
			name: "combined",
			spec: "slow=3:3,crash=4@2",
			p:    5, mode: "survivors", crashRank: 4, crashB: 2,
			traced: true,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			prob := Synthetic(48, 24, 101)
			degraded := chaosScenario(tc.name, tc.spec, tc.p)
			degraded.TCP = tcp
			if tc.mode == "clean" {
				res, log, err := degraded.Run(prob)
				if err != nil {
					t.Fatal(err)
				}
				if len(res.Curve) == 0 || len(res.FinalParams) == 0 {
					t.Fatalf("degraded run did not complete: %d curve points, %d params",
						len(res.Curve), len(res.FinalParams))
				}
				ref := chaosScenario(tc.name+" reference", "", tc.p)
				refRes, refLog, err := ref.Run(prob)
				if err != nil {
					t.Fatal(err)
				}
				mustEqualGrads(t, log, refLog, 0, chaosBoundaries)
				mustEqualParams(t, res.FinalParams, refRes.FinalParams)
				return
			}

			// The crash.
			dir, refDir := t.TempDir(), t.TempDir()
			degraded.Checkpoint = filepath.Join(dir, "ck-%d.ckpt")
			var tr *obs.Tracer
			if tc.traced {
				tr = obs.NewTracer(1 << 12)
				degraded.Tracer = tr
			}
			base := runtime.NumGoroutine()
			res, log, err := degraded.Run(prob)
			if want := crashError(tc.crashRank, tc.crashB); res != nil || fmt.Sprint(err) != want {
				t.Fatalf("crash run returned (%v, %v), want the error %q", res, err, want)
			}
			waitGoroutines(t, base)

			// What it left: the fault-free run's checkpoints and aggregates
			// up to the crash, and nothing after.
			ref := chaosScenario(tc.name+" fault-free", "", tc.p)
			ref.Checkpoint = filepath.Join(refDir, "ck-%d.ckpt")
			if _, refLog, err := ref.Run(prob); err != nil {
				t.Fatal(err)
			} else {
				mustEqualGrads(t, log, refLog, 0, tc.crashB)
			}
			for b := 1; b <= tc.crashB; b++ {
				got, err := os.ReadFile(fmt.Sprintf(degraded.Checkpoint, b))
				if err != nil {
					t.Fatal(err)
				}
				want, err := os.ReadFile(fmt.Sprintf(ref.Checkpoint, b))
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("checkpoint %d differs from the fault-free run's", b)
				}
			}
			if _, err := os.Stat(fmt.Sprintf(degraded.Checkpoint, tc.crashB+1)); !os.IsNotExist(err) {
				t.Fatalf("checkpoint %d written past the crash (stat: %v)", tc.crashB+1, err)
			}

			// The restart, on the scenario's transport and on channels.
			restart := func(tcp bool) (*core.Result, *GradLog) {
				s := chaosScenario(tc.name+" restart", "", tc.p-1)
				s.TCP = tcp
				s.Resume = fmt.Sprintf(degraded.Checkpoint, tc.crashB)
				s.ResumeRanks = survivorsOf(tc.p, tc.crashRank)
				res, log, err := s.Run(prob)
				if err != nil {
					t.Fatal(err)
				}
				if len(res.Curve) == 0 || len(res.FinalParams) == 0 {
					t.Fatalf("restart did not complete: %d curve points, %d params", len(res.Curve), len(res.FinalParams))
				}
				return res, log
			}
			got, gotLog := restart(tcp)
			want, wantLog := restart(false)
			mustEqualGrads(t, gotLog, wantLog, tc.crashB, chaosBoundaries)
			mustEqualParams(t, got.FinalParams, want.FinalParams)

			if tc.traced {
				var buf bytes.Buffer
				if err := tr.WriteTrace(&buf); err != nil {
					t.Fatal(err)
				}
				if _, err := obs.ValidateTrace(buf.Bytes()); err != nil {
					t.Fatalf("crash-run trace failed schema validation: %v", err)
				}
			}
		})
	}
}

// TestChaosDeterminism: the same crash executed twice must end with the
// same error after the same checkpoints, and its restart reproduce the
// same final parameters exactly — the property that makes chaos
// failures debuggable.
func TestChaosDeterminism(t *testing.T) {
	prob := Synthetic(48, 24, 101)
	run := func() (string, []byte, []float64) {
		dir := t.TempDir()
		s := chaosScenario("det", "crash=1@2", 4)
		s.Checkpoint = filepath.Join(dir, "ck-%d.ckpt")
		_, _, err := s.Run(prob)
		ck, rerr := os.ReadFile(fmt.Sprintf(s.Checkpoint, 2))
		if rerr != nil {
			t.Fatal(rerr)
		}
		r := chaosScenario("det restart", "", 3)
		r.Resume, r.ResumeRanks = fmt.Sprintf(s.Checkpoint, 2), survivorsOf(4, 1)
		res, _, rerr := r.Run(prob)
		if rerr != nil {
			t.Fatal(rerr)
		}
		return fmt.Sprint(err), ck, res.FinalParams
	}
	e1, ck1, p1 := run()
	e2, ck2, p2 := run()
	if want := crashError(1, 2); e1 != want || e2 != want {
		t.Fatalf("crash errors %q and %q across identical runs, want %q each", e1, e2, want)
	}
	if !bytes.Equal(ck1, ck2) {
		t.Fatal("boundary-2 checkpoints differ across identical runs")
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
