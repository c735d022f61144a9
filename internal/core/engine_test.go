package core

import (
	"math/rand"
	"testing"

	"sasgd/internal/comm"
	"sasgd/internal/data"
	"sasgd/internal/model"
	"sasgd/internal/nn"
	"sasgd/internal/obs"
)

// cifarProblem and nlcfProblem build reduced-scale instances of the
// paper's two model families (Tables I and II shapes, shrunk) over tiny
// synthetic datasets — for the tests that need real multi-layer conv
// and temporal-conv stacks (a bucket per layer, dropout, codecs per
// layer), not the single-segment tiny linear model.
func cifarProblem(nTrain, nTest int) *Problem {
	cfg := data.SmallImageConfig()
	cfg.TrainN, cfg.TestN = nTrain, nTest
	train, test := data.GenImages(cfg)
	return &Problem{
		Name: "small-cifar",
		Model: func(seed int64) *nn.Network {
			return model.NewCIFARNet(rand.New(rand.NewSource(seed)), model.SmallCIFARConfig())
		},
		Train: train, Test: test,
	}
}

func nlcfProblem(nTrain, nTest int) *Problem {
	cfg := data.SmallTextConfig()
	cfg.TrainN, cfg.TestN = nTrain, nTest
	train, test := data.GenText(cfg)
	return &Problem{
		Name: "small-nlcf",
		Model: func(seed int64) *nn.Network {
			return model.NewNLCFNet(rand.New(rand.NewSource(seed)), model.SmallNLCFConfig())
		},
		Train: train, Test: test,
	}
}

// TestCompressKFullMatchesDense pins the degenerate "ship everything"
// compression: top-k with CompressK = 1 normalizes to no codec at all, so
// it must take the dense path and reproduce an uncompressed run bit for
// bit.
func TestCompressKFullMatchesDense(t *testing.T) {
	prob := cifarProblem(24, 12)
	base := Config{Algo: AlgoSASGD, Learners: 4, Interval: 2, Gamma: 0.05, Batch: 4, Epochs: 2, Seed: 5}
	dense := Train(base, prob)
	full := base
	full.Compress, full.CompressK = CodecTopK, 1
	fr := Train(full, prob)
	for i := range dense.FinalParams {
		if !sameBits(dense.FinalParams[i], fr.FinalParams[i]) {
			t.Fatalf("CompressK=1 not bitwise vs dense at %d: %g vs %g",
				i, dense.FinalParams[i], fr.FinalParams[i])
		}
	}
	// Traffic must also be dense-shaped: the degenerate compression
	// must not route through the sparse index+value collective.
	if fr.WordsMoved != dense.WordsMoved {
		t.Errorf("CompressK=1 moved %d words, dense moved %d", fr.WordsMoved, dense.WordsMoved)
	}
}

// TestT1GradientSumIsGradientBuffer: at static T = 1 with no drift
// consumer the interval's gradient sum is its one gradient, so a learner
// holds no m-word gs of its own — under every policy. A drift consumer
// (metrics, adaptive T) reads the replica, so it keeps its own gs, as
// does every T > 1.
func TestT1GradientSumIsGradientBuffer(t *testing.T) {
	prob := nlcfProblem(24, 12)
	for _, tc := range []struct {
		name  string
		mut   func(*Config)
		alias bool
	}{
		{"dense", func(c *Config) {}, true},
		{"topk", func(c *Config) { c.Compress, c.CompressK = CodecTopK, 0.1 }, true},
		{"hier-delayed", func(c *Config) { c.HierGroups, c.DelayedApply = 2, true }, true},
		{"faults", func(c *Config) { c.Faults = mustPlan(t, "crash=3@2") }, true},
		{"metrics", func(c *Config) { c.Metrics = true }, false},
		{"adaptive", func(c *Config) { c.TSched = TSchedAdaptive }, false},
		{"T2", func(c *Config) { c.Interval = 2 }, false},
	} {
		cfg := Config{Algo: AlgoSASGD, Learners: 4, Interval: 1, Gamma: 0.05, Batch: 4, Epochs: 1, Seed: 3}
		tc.mut(&cfg)
		cfg = resolved(t, cfg)
		net := prob.Model(cfg.Seed)
		g := comm.NewSimGroup(cfg.Learners, nil, nil)
		tk := obs.NewTracer(1).Learner(0)
		fc := newFleetCollector(cfg, 0, cfg.Learners, obs.NewFleet(cfg.Learners), tk)
		e := newEngine(cfg, g, 0, cfg.Learners, net, tk, fc)
		if alias := &e.gs[0] == &net.GradData()[0]; alias != tc.alias {
			t.Errorf("%s: gs is the gradient buffer: %v, want %v", tc.name, alias, tc.alias)
		}
		e.close()
	}
}
