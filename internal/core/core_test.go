package core

import (
	"errors"
	"math"
	"math/rand"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"sasgd/internal/comm"
	"sasgd/internal/data"
	"sasgd/internal/model"
	"sasgd/internal/netsim"
	"sasgd/internal/nn"
	"sasgd/internal/report"
	"sasgd/internal/tensor"
)

// tinyProblem builds a fast, easily separable 4-feature, 3-class problem
// with a one-layer linear model — enough structure for every algorithm
// to reach high accuracy in a few epochs, small enough that the whole
// core test suite runs in well under a second.
func tinyProblem(nTrain, nTest int, seed int64) *Problem {
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
	return &Problem{
		Name: "tiny",
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

func TestSGDLearnsTinyProblem(t *testing.T) {
	prob := tinyProblem(300, 100, 1)
	res := Train(Config{Algo: AlgoSGD, Gamma: 0.2, Batch: 10, Epochs: 15, Seed: 1}, prob)
	if res.FinalTest < 0.9 {
		t.Errorf("SGD final test accuracy %.3f, want > 0.9", res.FinalTest)
	}
	if res.Samples != 15*300 {
		t.Errorf("Samples = %d, want %d", res.Samples, 15*300)
	}
	if len(res.Curve) != 15 {
		t.Errorf("curve has %d points, want 15", len(res.Curve))
	}
	if res.P != 1 {
		t.Errorf("P = %d", res.P)
	}
}

func TestAllAlgorithmsLearn(t *testing.T) {
	prob := tinyProblem(300, 100, 2)
	for _, algo := range []Algorithm{AlgoSGD, AlgoSASGD, AlgoDownpour, AlgoEAMSGD} {
		res := Train(Config{Algo: algo, Learners: 4, Interval: 3, Gamma: 0.1, Batch: 10, Epochs: 15, Seed: 1}, prob)
		if res.FinalTest < 0.85 {
			t.Errorf("%s: final test accuracy %.3f, want > 0.85", algo, res.FinalTest)
		}
		if res.FinalParams == nil {
			t.Errorf("%s: FinalParams not captured", algo)
		}
	}
}

// sameBits is the bitwise equality the FinalParams checks mean: unlike
// ==, it tells −0 from +0.
func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func TestSGDDeterministic(t *testing.T) {
	prob := tinyProblem(100, 50, 3)
	cfg := Config{Algo: AlgoSGD, Gamma: 0.2, Batch: 10, Epochs: 5, Seed: 7}
	a := Train(cfg, prob)
	b := Train(cfg, prob)
	for i := range a.FinalParams {
		if !sameBits(a.FinalParams[i], b.FinalParams[i]) {
			t.Fatal("identical SGD configs produced different parameters")
		}
	}
	for i := range a.Curve {
		if a.Curve[i].Train != b.Curve[i].Train || a.Curve[i].Test != b.Curve[i].Test {
			t.Fatal("identical SGD configs produced different curves")
		}
	}
}

func TestSASGDDeterministic(t *testing.T) {
	// SASGD is bulk-synchronous: unlike the asynchronous baselines its
	// result must not depend on goroutine scheduling.
	prob := tinyProblem(120, 50, 4)
	cfg := Config{Algo: AlgoSASGD, Learners: 4, Interval: 2, Gamma: 0.1, Batch: 10, Epochs: 4, Seed: 5}
	a := Train(cfg, prob)
	b := Train(cfg, prob)
	for i := range a.FinalParams {
		if !sameBits(a.FinalParams[i], b.FinalParams[i]) {
			t.Fatal("SASGD result depends on scheduling")
		}
	}
}

// TestFusedApplyMatchesMaterialised: a flat eager dense boundary
// applies x′ ← x′ − γp·gs inside the tree walk (comm.AllreduceTreeApply)
// unless an AggHook asks for the aggregate, which keeps the run on the
// exchange-then-axpy path. A no-op hook must therefore change nothing:
// final parameters bitwise equal across group sizes with and without
// interior tree members, channel and TCP loopback (the epilogue in the
// root's fold and the parents' writes, against the adopts and the
// root's apply after the send), T = 1 (gs is the gradient buffer and,
// unmetered, x′ the replica) and T = 3, metrics on and off.
func TestFusedApplyMatchesMaterialised(t *testing.T) {
	prob := tinyProblem(48, 24, 5)
	for _, p := range []int{1, 2, 3, 5} {
		for _, transport := range []string{"chan", "tcp"} {
			for _, T := range []int{1, 3} {
				for _, metrics := range []bool{false, true} {
					run := func(hook bool) []float64 {
						cfg := Config{Algo: AlgoSASGD, Learners: p, Interval: T, Gamma: 0.05,
							Batch: 4, Epochs: 2, Seed: 9, Metrics: metrics}
						if transport == "tcp" {
							tr, err := comm.NewTCPLoopback(p)
							if err != nil {
								t.Fatal(err)
							}
							defer tr.Close()
							cfg.Transport = tr
						}
						if hook {
							cfg.AggHook = func(int, []float64) {}
						}
						return Train(cfg, prob).FinalParams
					}
					fused, materialised := run(false), run(true)
					if len(fused) == 0 || len(fused) != len(materialised) {
						t.Fatalf("p=%d %s T=%d metrics=%v: %d vs %d final parameters",
							p, transport, T, metrics, len(fused), len(materialised))
					}
					for i := range fused {
						if !sameBits(fused[i], materialised[i]) {
							t.Fatalf("p=%d %s T=%d metrics=%v: param %d fused %g != materialised %g (must be bitwise)",
								p, transport, T, metrics, i, fused[i], materialised[i])
						}
					}
				}
			}
		}
	}
}

// TestConfigIgnoresEnvironment: Config is the one configuration
// surface. With every variable the library once read as a Config default
// set to a value that would change the run, resolve must return the same
// Config and a tiny run the same final parameter bits as with them unset.
func TestConfigIgnoresEnvironment(t *testing.T) {
	prob := tinyProblem(40, 24, 5)
	cfg := Config{Algo: AlgoSASGD, Learners: 4, Interval: 2, Gamma: 0.05, Batch: 4, Epochs: 2, Seed: 3}
	run := func() (Config, []float64) {
		resolved, err := cfg.resolve()
		if err != nil {
			t.Fatal(err)
		}
		return resolved, Train(cfg, prob).FinalParams
	}
	wantCfg, want := run()
	for name, v := range map[string]string{
		"SASGD_OVERLAP":      "1",
		"SASGD_FAST_KERNELS": "1",
		"SASGD_COMPRESS":     "topk:0.05",
		"SASGD_TSCHED":       "adaptive",
		"SASGD_HIER_GROUPS":  "2",
		"SASGD_DELAYED":      "1",
		"SASGD_FAULTS":       "slow=1:4",
	} {
		t.Setenv(name, v)
	}
	gotCfg, got := run()
	if !reflect.DeepEqual(gotCfg, wantCfg) {
		t.Errorf("the environment changed the resolved Config:\n%+v\nwant\n%+v", gotCfg, wantCfg)
	}
	if len(got) != len(want) {
		t.Fatalf("%d final parameters, want %d", len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("the environment changed parameter %d: %g vs %g", i, got[i], want[i])
		}
	}
}

func TestSASGDStalenessIsZeroByConstruction(t *testing.T) {
	prob := tinyProblem(120, 40, 7)
	res := Train(Config{Algo: AlgoSASGD, Learners: 4, Interval: 5, Gamma: 0.1, Batch: 10, Epochs: 3, Seed: 1}, prob)
	if res.StalenessMean != 0 || res.StalenessMax != 0 {
		t.Errorf("SASGD reported staleness %.2f/%d", res.StalenessMean, res.StalenessMax)
	}
}

func TestDownpourObservesStaleness(t *testing.T) {
	// 8 learners each pushing after every 2-sample batch: thousands of
	// concurrent server updates. If not a single one observes a foreign
	// update in between, the staleness accounting is broken — unless the
	// host runs goroutines on a single core, where short learner bodies
	// legitimately serialize (the semantics themselves are covered
	// deterministically in comm's server tests).
	if runtime.GOMAXPROCS(0) == 1 {
		t.Skip("single-core host: learner goroutines serialize, no staleness to observe")
	}
	prob := tinyProblem(1600, 40, 8)
	res := Train(Config{Algo: AlgoDownpour, Learners: 8, Interval: 1, Gamma: 0.01, Batch: 2, Epochs: 5, Seed: 1}, prob)
	if res.StalenessMax == 0 {
		t.Error("8 concurrent Downpour learners observed no staleness at all")
	}
}

func TestSASGDWordsMovedMatchesCollectiveCount(t *testing.T) {
	prob := tinyProblem(80, 40, 9)
	p, T, batch, epochs := 4, 2, 10, 3
	res := Train(Config{Algo: AlgoSASGD, Learners: p, Interval: T, Gamma: 0.1, Batch: batch, Epochs: epochs, Seed: 1}, prob)
	m := len(res.FinalParams)
	// Per aggregation, the binomial allreduce moves 2(p−1)m words; the
	// initial broadcast moves (p−1)m.
	batchesPer := (80/p + batch - 1) / batch
	aggs := epochs * batchesPer / T
	want := int64((p - 1) * m * (2*aggs + 1))
	if res.WordsMoved != want {
		t.Errorf("WordsMoved = %d, want %d (%d aggregations)", res.WordsMoved, want, aggs)
	}
}

func TestGammaPDefaultIsModelAveraging(t *testing.T) {
	// With γp = γ/p (the default) and a single aggregation covering the
	// whole run, SASGD's final parameters must equal the average of what
	// p independent SGD runs over the same shards would produce. We
	// verify the arithmetic identity on a run with exactly one
	// aggregation interval spanning all batches.
	prob := tinyProblem(80, 40, 10)
	p, batch := 2, 10
	batchesPer := 80 / p / batch // 4
	cfg := Config{Algo: AlgoSASGD, Learners: p, Interval: batchesPer, Gamma: 0.1, Batch: batch, Epochs: 1, Seed: 3}
	res := Train(cfg, prob)

	// Replay: each learner trains alone (plain SGD) on its shard from the
	// broadcast initialization; average the displacements.
	shards := prob.Train.Partition(p)
	net0 := prob.Model(cfg.Seed + 0) // learner 0's replica (broadcast source)
	init := append([]float64(nil), net0.ParamData()...)
	avg := make([]float64, len(init))
	for rank := 0; rank < p; rank++ {
		net := prob.Model(cfg.Seed + int64(rank))
		net.SetParamData(init)
		sampler := data.NewEpochSampler(shards[rank].Len(), batch, cfg.Seed+int64(rank)*31+7)
		for b := 0; b < batchesPer; b++ {
			idx := sampler.Next()
			x, y := shards[rank].Batch(idx)
			net.Step(x, y)
			tensor.Axpy(-cfg.Gamma, net.GradData(), net.ParamData())
		}
		for i, v := range net.ParamData() {
			avg[i] += v / float64(p)
		}
	}
	for i := range avg {
		if math.Abs(res.FinalParams[i]-avg[i]) > 1e-9 {
			t.Fatalf("SASGD with default γp is not model averaging at %d: %g vs %g", i, res.FinalParams[i], avg[i])
		}
	}
}

func TestEvalEveryStridesCurve(t *testing.T) {
	prob := tinyProblem(100, 40, 11)
	res := Train(Config{Algo: AlgoSASGD, Learners: 2, Interval: 1, Gamma: 0.1, Batch: 10, Epochs: 6, Seed: 1, EvalEvery: 3}, prob)
	if len(res.Curve) != 2 {
		t.Fatalf("curve has %d points, want 2", len(res.Curve))
	}
	if res.Curve[0].Epoch != 3 || res.Curve[1].Epoch != 6 {
		t.Errorf("curve epochs %d, %d; want 3, 6", res.Curve[0].Epoch, res.Curve[1].Epoch)
	}
}

func TestSGDForcesSingleLearner(t *testing.T) {
	prob := tinyProblem(60, 20, 12)
	res := Train(Config{Algo: AlgoSGD, Learners: 8, Interval: 5, Gamma: 0.1, Batch: 10, Epochs: 2, Seed: 1}, prob)
	if res.Algo != AlgoSGD || res.P != 1 || res.T != 1 || res.FinalT != 1 {
		t.Errorf("SGD ran as %s with P = %d, T = %d, FinalT = %d; want sgd, 1, 1, 1", res.Algo, res.P, res.T, res.FinalT)
	}
	if res.WordsMoved != 0 || res.Comm.Messages != 0 {
		t.Errorf("a single learner moved %d words in %d messages", res.WordsMoved, res.Comm.Messages)
	}
}

func TestSimulatedRunProducesTimings(t *testing.T) {
	prob := tinyProblem(100, 40, 13)
	sim := netsim.New(2, netsim.DefaultConfig())
	res := Train(Config{
		Algo: AlgoSASGD, Learners: 2, Interval: 2, Gamma: 0.1, Batch: 10,
		Epochs: 3, Seed: 1, Sim: sim, FlopsPerSample: 1e8,
	}, prob)
	if res.SimTime <= 0 || res.SimCompute <= 0 {
		t.Errorf("simulated run reported SimTime=%g SimCompute=%g", res.SimTime, res.SimCompute)
	}
	if res.SimComm <= 0 {
		t.Errorf("SASGD with 2 learners reported zero communication time")
	}
	if res.EpochTime() <= 0 {
		t.Error("EpochTime not positive")
	}
}

// TestRunRejects: everything a Config, a Problem or a file named in a
// Config can get wrong comes back as Run's error, before or during the
// run, and never as a panic.
func TestRunRejects(t *testing.T) {
	wrongCkpt := filepath.Join(t.TempDir(), "wrong.ckpt")
	meta := checkpointMeta{OrigP: 2, Interval: 1, Batch: 4, Seed: 1, GammaP: 0.05}
	if err := writeCheckpoint(wrongCkpt, meta, []float64{1, 2}); err != nil {
		t.Fatal(err)
	}
	keep := func(*Problem) {}
	for _, tc := range []struct {
		name string
		cfg  Config
		mut  func(*Problem)
		want string
	}{
		{"unknown-algorithm", Config{Algo: "adamw", Gamma: 0.1}, keep, "unknown algorithm"},
		{"missing-data", Config{Algo: AlgoSGD, Gamma: 0.1}, func(p *Problem) { p.Train = nil }, "non-empty train and test datasets"},
		{"zero-gamma", Config{Algo: AlgoSGD}, keep, "Gamma must be positive"},
		{"nil-model", Config{Algo: AlgoSASGD, Learners: 2, Gamma: 0.1, Batch: 4},
			func(p *Problem) { p.Model = func(int64) *nn.Network { return nil } }, "model factory returned nil"},
		{"nil-model-async", Config{Algo: AlgoDownpour, Learners: 2, Gamma: 0.1, Batch: 4},
			func(p *Problem) { p.Model = func(int64) *nn.Network { return nil } }, "model factory returned nil"},
		{"checkpoint-param-count", Config{Algo: AlgoSASGD, Learners: 2, Interval: 1, Gamma: 0.1, Batch: 4, Seed: 1, ResumeFrom: wrongCkpt},
			keep, "checkpoint has 2 parameters, model has 67"},
		// A checkpoint is x′ and counters: a codec's error-feedback
		// residual and adapt-k's fraction would not survive a resume.
		{"checkpoint-codec", Config{Algo: AlgoSASGD, Learners: 2, Gamma: 0.1, Batch: 4, Compress: CodecTopK, CompressK: 0.2,
			CheckpointPath: filepath.Join(t.TempDir(), "ck-%d.ckpt")}, keep, "not with DelayedApply, HierGroups or a codec"},
		{"resume-codec", Config{Algo: AlgoSASGD, Learners: 2, Interval: 1, Gamma: 0.1, Batch: 4, Seed: 1, Compress: CodecQInt8,
			ResumeFrom: wrongCkpt}, keep, "not with DelayedApply, HierGroups or a codec"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			prob := tinyProblem(20, 10, 14)
			tc.mut(prob)
			res, err := Run(tc.cfg, prob)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Run returned %v, want an error containing %q", err, tc.want)
			}
			if res != nil {
				t.Errorf("Run returned a result beside its error")
			}
		})
	}
}

func TestEAMSGDMomentumDisable(t *testing.T) {
	prob := tinyProblem(200, 60, 17)
	// Momentum < 0 disables momentum; the run must still learn.
	res := Train(Config{Algo: AlgoEAMSGD, Learners: 2, Interval: 2, Gamma: 0.1, Batch: 10, Epochs: 10, Seed: 1, Momentum: -1}, prob)
	if res.FinalTest < 0.8 {
		t.Errorf("momentum-free EAMSGD test accuracy %.3f", res.FinalTest)
	}
}

func TestLearnerPanicPropagates(t *testing.T) {
	err := runLearnersOn(identity(3), nil, func(rank int) error {
		if rank == 1 {
			panic("boom")
		}
		return nil
	})
	if err == nil || err.Error() != "learner 1: boom" {
		t.Fatalf("runLearners returned %v, want learner 1's panic", err)
	}
	bad := errors.New("bad shard")
	err = runLearnersOn(identity(3), nil, func(rank int) error {
		if rank == 2 {
			return bad
		}
		return nil
	})
	if !errors.Is(err, bad) || !strings.HasPrefix(err.Error(), "learner 2: ") {
		t.Fatalf("runLearners returned %v, want learner 2's error", err)
	}
}

// TestLearnerPanicEndsTrain: a learner that panics at a boundary leaves
// its peer parked on it — in the next boundary's receive or at the
// epoch barrier. Run must still return, with
// the first failure, not the peers' unwinding. A transport the caller
// closes mid-run ends the run the same way, with comm.ErrClosed, and so
// does a peer endpoint whose transport closes: as the end of its link.
func TestLearnerPanicEndsTrain(t *testing.T) {
	boom := func(origin int, _ []float64) {
		if origin == 1 {
			panic("boom")
		}
	}
	for _, tc := range []struct {
		name   string
		nTrain int // 2 learners × batch 4: 6 batches an epoch at 48, 2 at 16
		mut    func(*Config)
	}{
		{"recv", 48, func(*Config) {}},
		{"barrier", 16, func(*Config) {}},
		{"sim-barrier", 16, func(c *Config) { c.Sim, c.FlopsPerSample = netsim.New(2, netsim.DefaultConfig()), 1e6 }},
		{"delayed", 48, func(c *Config) { c.DelayedApply = true }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{
				Algo: AlgoSASGD, Learners: 2, Interval: 1, Gamma: 0.05,
				Batch: 4, Epochs: 3, Seed: 1, AggHook: boom,
			}
			tc.mut(&cfg)
			err := runWithin(t, cfg, tinyProblem(tc.nTrain, 8, 2))
			if err == nil || !strings.HasPrefix(err.Error(), "learner ") || !strings.HasSuffix(err.Error(), ": boom") {
				t.Fatalf("Run returned %v, want the learner's panic", err)
			}
		})
	}
	t.Run("tcp-closed", func(t *testing.T) {
		base := runtime.NumGoroutine()
		tr, err := comm.NewTCPLoopback(2)
		if err != nil {
			t.Fatal(err)
		}
		defer tr.Close()
		// The hook parks virtual rank 0 inside boundary 1 until the caller
		// has closed the transport, so the close always lands mid-run.
		hooked, closed := make(chan struct{}), make(chan struct{})
		go func() {
			<-hooked
			tr.Close()
			close(closed)
		}()
		cfg := Config{
			Algo: AlgoSASGD, Learners: 2, Interval: 1, Gamma: 0.05,
			Batch: 4, Epochs: 3, Seed: 1, Transport: tr,
			AggHook: func(origin int, _ []float64) {
				if origin == 1 {
					close(hooked)
					<-closed
				}
			},
		}
		if err := runWithin(t, cfg, tinyProblem(48, 8, 2)); !errors.Is(err, comm.ErrClosed) {
			t.Fatalf("Run returned %v, want comm.ErrClosed", err)
		}
		deadline := time.Now().Add(10 * time.Second)
		for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
			time.Sleep(10 * time.Millisecond)
		}
		if n := runtime.NumGoroutine(); n > base {
			t.Errorf("%d goroutines 10 s after Run returned, %d before the transport was built", n, base)
		}
	})
	t.Run("tcp-peer-closed", func(t *testing.T) {
		base := runtime.NumGoroutine()
		trs := tcpEndpoints(t, 2)
		// Two endpoints, each with its own Run, as two processes. Virtual
		// rank 0 closes endpoint 1's transport inside boundary 1 and goes
		// on: endpoint 0 hears of it only as the end of link 1→0.
		closed := make(chan struct{})
		cfg := Config{
			Algo: AlgoSASGD, Learners: 2, Interval: 1, Gamma: 0.05,
			Batch: 4, Epochs: 3, Seed: 1, Workers: 1,
			AggHook: func(origin int, _ []float64) {
				if origin == 1 {
					go func() { trs[1].Close(); close(closed) }()
				}
			},
		}
		prob := tinyProblem(48, 8, 2)
		peerErr := make(chan error, 1)
		peer := cfg
		peer.Transport = trs[1]
		go func() {
			defer trs[1].Close()
			_, err := Run(peer, prob)
			peerErr <- err
		}()
		cfg.Transport = trs[0]
		err := runWithin(t, cfg, prob)
		trs[0].Close()
		t.Logf("endpoint 0: %v", err)
		if !errors.Is(err, comm.ErrClosed) || !strings.Contains(err.Error(), "link 1→0") {
			t.Fatalf("endpoint 0's Run returned %v, want comm.ErrClosed naming link 1→0", err)
		}
		select {
		case err := <-peerErr:
			if !errors.Is(err, comm.ErrClosed) {
				t.Errorf("endpoint 1's Run returned %v, want comm.ErrClosed", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("endpoint 1's Run had not returned 10 s after its transport closed")
		}
		<-closed
		deadline := time.Now().Add(10 * time.Second)
		for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
			time.Sleep(10 * time.Millisecond)
		}
		if n := runtime.NumGoroutine(); n > base {
			t.Errorf("%d goroutines 10 s after both Runs returned, %d before the endpoints were built", n, base)
		}
	})
}

// runWithin runs cfg and returns Run's error, failing the test if Run
// has not returned within 10 s.
func runWithin(t *testing.T, cfg Config, prob *Problem) error {
	t.Helper()
	done := make(chan error, 1)
	go func() {
		_, err := Run(cfg, prob)
		done <- err
	}()
	select {
	case err := <-done:
		return err
	case <-time.After(10 * time.Second):
		t.Fatal("Run had not returned 10 s after a learner failed")
		return nil
	}
}

// TestSASGDInterval1SingleLearnerMatchesSGDAtGammaP: with p = 1 and
// T = 1 every local step is discarded by the reset to the reference
// (x ← x′), so SASGD is plain SGD at rate γp — which is how sequential
// SGD runs: Algorithm 1 at p = 1, T = 1, γp = γ. The two runs share
// learner 0's replica and sample stream and must agree bit for bit.
func TestSASGDInterval1SingleLearnerMatchesSGDAtGammaP(t *testing.T) {
	prob := tinyProblem(100, 40, 18)
	gammaP := 0.07
	sasgd := Train(Config{Algo: AlgoSASGD, Learners: 1, Interval: 1, Gamma: 0.1, GammaP: gammaP, Batch: 10, Epochs: 3, Seed: 2}, prob)
	sgd := Train(Config{Algo: AlgoSGD, Gamma: gammaP, Batch: 10, Epochs: 3, Seed: 2}, prob)
	if goldenParams(sasgd.FinalParams) != goldenParams(sgd.FinalParams) || goldenCurve(sasgd) != goldenCurve(sgd) {
		t.Fatal("SASGD(p=1, T=1) is not bitwise SGD at γp")
	}
}

func TestSASGDCompressionStillLearns(t *testing.T) {
	prob := tinyProblem(300, 100, 20)
	res := Train(Config{
		Algo: AlgoSASGD, Learners: 4, Interval: 3, Gamma: 0.1,
		Batch: 10, Epochs: 15, Seed: 1, Compress: CodecTopK, CompressK: 0.1,
	}, prob)
	if res.FinalTest < 0.85 {
		t.Errorf("top-10%% compressed SASGD test accuracy %.3f, want > 0.85", res.FinalTest)
	}
}

func TestSASGDCompressionReducesTraffic(t *testing.T) {
	prob := tinyProblem(160, 40, 21)
	base := Config{Algo: AlgoSASGD, Learners: 4, Interval: 2, Gamma: 0.1, Batch: 10, Epochs: 4, Seed: 1}
	dense := Train(base, prob)
	compressed := base
	compressed.Compress, compressed.CompressK = CodecTopK, 0.05
	sparse := Train(compressed, prob)
	// Sparse messages carry index+value pairs, so at 5% density traffic
	// should drop by well over 2×. (The initial dense broadcast is common
	// to both.)
	if sparse.WordsMoved*2 >= dense.WordsMoved {
		t.Errorf("compressed run moved %d words vs dense %d", sparse.WordsMoved, dense.WordsMoved)
	}
}

func TestSASGDCompressionDeterministic(t *testing.T) {
	prob := tinyProblem(120, 40, 22)
	cfg := Config{Algo: AlgoSASGD, Learners: 4, Interval: 2, Gamma: 0.1, Batch: 10, Epochs: 3, Seed: 9, Compress: CodecTopK, CompressK: 0.2}
	a := Train(cfg, prob)
	b := Train(cfg, prob)
	for i := range a.FinalParams {
		if !sameBits(a.FinalParams[i], b.FinalParams[i]) {
			t.Fatal("compressed SASGD not deterministic")
		}
	}
}

func TestSASGDErrorFeedbackPreservesGradientMass(t *testing.T) {
	// With T covering the whole (tiny) run and k = 100%, compression is a
	// no-op: results must match the dense path bit-for-bit modulo
	// summation order. Use a single learner so the allreduce is trivial
	// and the comparison exact.
	prob := tinyProblem(40, 20, 23)
	base := Config{Algo: AlgoSASGD, Learners: 1, Interval: 2, Gamma: 0.1, Batch: 10, Epochs: 2, Seed: 4}
	dense := Train(base, prob)
	c := base
	c.Compress, c.CompressK = CodecTopK, 0.999999 // k = ⌈0.999999·n⌉ = n: keeps every entry
	full := Train(c, prob)
	// SparsityK rounds up, so a near-1 fraction keeps every entry of
	// every bucket; with p = 1 the codec's select→encode→decode round
	// trip is exact and the trajectories must match bitwise.
	for i := range dense.FinalParams {
		if !sameBits(dense.FinalParams[i], full.FinalParams[i]) {
			t.Fatalf("near-lossless compression diverged at %d: %g vs %g",
				i, dense.FinalParams[i], full.FinalParams[i])
		}
	}
}

func TestResultHelpers(t *testing.T) {
	r := &Result{
		Algo: AlgoSASGD, P: 4, T: 50,
		SimTime: 10,
		Curve:   report.Curve{{Epoch: 2}, {Epoch: 5}},
	}
	if got := r.EpochTime(); got != 2 {
		t.Errorf("EpochTime = %g, want 2", got)
	}
	if (&Result{}).EpochTime() != 0 {
		t.Error("EpochTime of empty result not zero")
	}
}

// TestRecorderAccuracy: the recorder's accuracies are the fraction of
// each set one whole-set Predict classifies correctly, whatever the chunk
// list's split into shards, and a deterministic function of the params.
func TestRecorderAccuracy(t *testing.T) {
	prob := tinyProblem(150, 70, 30)
	rec, err := newRecorder(prob)
	if err != nil {
		t.Fatal(err)
	}
	net := prob.Model(1)
	var want [2]float64
	for i, ds := range []*data.Dataset{prob.Train, prob.Test} {
		x, y := ds.Span(0, ds.Len())
		for k, c := range net.Predict(x) {
			if c == y[k] {
				want[i]++
			}
		}
		want[i] /= float64(ds.Len())
	}
	if want[0] <= 0 || want[0] >= 1 {
		t.Fatalf("train accuracy %g: pick a problem that tells a miscount", want[0])
	}
	for _, shards := range []int{1, 2, 3, 1} {
		if tr, te := rec.eval(net.ParamData(), shards); tr != want[0] || te != want[1] {
			t.Errorf("%d shards: accuracy %g/%g, whole-set Predict %g/%g", shards, tr, te, want[0], want[1])
		}
	}
}

func TestPaperScaleModelsTrainUnderHarness(t *testing.T) {
	// One SASGD epoch over a tiny sample set with the exact Table-I and
	// Table-II networks: verifies the full-scale architectures run under
	// the distributed harness (the figure suite uses reduced models).
	if testing.Short() {
		t.Skip("paper-scale step: skipped in -short")
	}
	imgCfg := data.SmallImageConfig()
	imgCfg.TrainN, imgCfg.TestN, imgCfg.Size = 16, 8, 32
	train, test := data.GenImages(imgCfg)
	prob := &Problem{
		Name: "paper-cifar",
		Model: func(seed int64) *nn.Network {
			return model.NewCIFARNet(rand.New(rand.NewSource(seed)), model.PaperCIFARConfig())
		},
		Train: train, Test: test,
	}
	res := Train(Config{Algo: AlgoSASGD, Learners: 2, Interval: 2, Gamma: 0.01, Batch: 4, Epochs: 1, Seed: 1}, prob)
	if res.Samples != 16 {
		t.Errorf("processed %d samples", res.Samples)
	}
	if len(res.FinalParams) != 506378 {
		t.Errorf("paper model has %d params", len(res.FinalParams))
	}

	txtCfg := data.SmallTextConfig()
	txtCfg.TrainN, txtCfg.TestN, txtCfg.EmbedDim, txtCfg.Classes = 16, 8, 100, 311
	ttrain, ttest := data.GenText(txtCfg)
	tprob := &Problem{
		Name: "paper-nlcf",
		Model: func(seed int64) *nn.Network {
			return model.NewNLCFNet(rand.New(rand.NewSource(seed)), model.PaperNLCFConfig())
		},
		Train: ttrain, Test: ttest,
	}
	tres := Train(Config{Algo: AlgoSASGD, Learners: 2, Interval: 4, Gamma: 0.01, Batch: 1, Epochs: 1, Seed: 1}, tprob)
	if len(tres.FinalParams) != 1733511 {
		t.Errorf("paper NLC-F model has %d params", len(tres.FinalParams))
	}
}

// TestVirtualTimeMakesDownpourDeterministic: under virtual time each
// asynchronous algorithm is a function of its configuration — final
// parameters, curve and staleness, run after run.
func TestVirtualTimeMakesDownpourDeterministic(t *testing.T) {
	prob := tinyProblem(40, 24, 5)
	for _, algo := range []Algorithm{AlgoDownpour, AlgoEAMSGD} {
		cfg := with(goldenBase(3, 2), func(c *Config) { c.Algo, c.VirtualTime = algo, true })
		a := Train(cfg, prob)
		for run := 1; run < 20; run++ {
			b := Train(cfg, prob)
			if goldenParams(a.FinalParams) != goldenParams(b.FinalParams) {
				t.Fatalf("virtual-time %s not deterministic: run %d's final parameters differ from run 0's", algo, run)
			}
			if goldenCurve(a) != goldenCurve(b) {
				t.Fatalf("virtual-time %s not deterministic: run %d's curve differs from run 0's", algo, run)
			}
			if a.StalenessMean != b.StalenessMean || a.StalenessMax != b.StalenessMax {
				t.Fatalf("virtual-time %s staleness not deterministic: %.3f/%d vs %.3f/%d",
					algo, a.StalenessMean, a.StalenessMax, b.StalenessMean, b.StalenessMax)
			}
		}
	}
}

func TestVirtualTimeStalenessEmergesRoundRobin(t *testing.T) {
	// With equal step-counter clocks the gate runs learners round-robin:
	// at T=1 every push observes the other p−1 learners' updates.
	prob := tinyProblem(160, 40, 41)
	p := 4
	res := Train(Config{Algo: AlgoDownpour, Learners: p, Interval: 1, Gamma: 0.05, Batch: 5, Epochs: 3, Seed: 2, VirtualTime: true}, prob)
	if res.StalenessMax == 0 {
		t.Fatal("virtual-time Downpour observed no staleness")
	}
	// Round-robin steady state: staleness ≈ p−1 (the first few steps see
	// less; the mean must land between 1 and p−1).
	if res.StalenessMean < 1 || res.StalenessMean > float64(p-1)+0.01 {
		t.Errorf("virtual-time staleness mean %.3f, want within [1, %d]", res.StalenessMean, p-1)
	}
}

func TestVirtualTimeAllAsyncAlgorithmsLearn(t *testing.T) {
	prob := tinyProblem(300, 100, 42)
	for _, algo := range []Algorithm{AlgoDownpour, AlgoEAMSGD} {
		res := Train(Config{Algo: algo, Learners: 4, Interval: 3, Gamma: 0.1, Batch: 10, Epochs: 15, Seed: 1, VirtualTime: true}, prob)
		if res.FinalTest < 0.85 {
			t.Errorf("%s under virtual time: final test %.3f", algo, res.FinalTest)
		}
	}
}

func TestVirtualGateOrdersByClock(t *testing.T) {
	g := newVirtualGate(3)
	var order []int
	var mu sync.Mutex
	var wg sync.WaitGroup
	// Learner r performs 3 steps, each advancing its clock by (r+1): the
	// gate must always admit the minimum-clock learner, giving a fully
	// determined admission order.
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			clock := 0.0
			for s := 0; s < 3; s++ {
				g.Acquire(r)
				mu.Lock()
				order = append(order, r)
				mu.Unlock()
				clock += float64(r + 1)
				g.Release(r, clock)
			}
			g.Done(r)
		}(r)
	}
	wg.Wait()
	// Replay the expected min-clock schedule.
	clocks := []float64{0, 0, 0}
	steps := []int{0, 0, 0}
	var want []int
	for len(want) < 9 {
		best := -1
		for r := 0; r < 3; r++ {
			if steps[r] >= 3 {
				continue
			}
			if best == -1 || clocks[r] < clocks[best] || (clocks[r] == clocks[best] && r < best) {
				best = r
			}
		}
		want = append(want, best)
		clocks[best] += float64(best + 1)
		steps[best]++
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("admission order %v, want %v", order, want)
		}
	}
}

func TestVirtualGateMisusePanics(t *testing.T) {
	g := newVirtualGate(2)
	defer func() {
		if recover() == nil {
			t.Fatal("Release by non-holder did not panic")
		}
	}()
	g.Release(0, 1)
}

// resolved is cfg with its defaults filled in, as Run sees it.
func resolved(t *testing.T, cfg Config) Config {
	t.Helper()
	c, err := cfg.resolve()
	if err != nil {
		t.Fatal(err)
	}
	return c
}
