package core

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sasgd/internal/comm"
	"sasgd/internal/data"
	"sasgd/internal/model"
	"sasgd/internal/nn"
	obsmetrics "sasgd/internal/obs/metrics"
)

// Golden pins. TestGeneratedConfigs proves properties that relate two
// runs of the SAME build (run ≡ rerun, on ≡ off, chan ≡ TCP); nothing
// in it notices a change that moves every run the same way. This table
// pins the outputs themselves — final parameters, accuracy curve,
// words and messages on the wire — as constants, for a handful of tiny
// configurations that between them cross every boundary policy, every
// kernel tier the M=1 step takes and both branches of the conv layer's
// backward pass. A change that claims to be bitwise invisible proves it
// by leaving this file untouched.

// putBits folds one 64-bit pattern into h. Parameters and curve values go
// in as float64 bit patterns, so ±0 and NaN payloads count.
func putBits(h hash.Hash64, v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	h.Write(b[:])
}

func goldenParams(params []float64) uint64 {
	h := fnv.New64a()
	for _, v := range params {
		putBits(h, math.Float64bits(v))
	}
	return h.Sum64()
}

func goldenCurve(res *Result) uint64 {
	h := fnv.New64a()
	for _, pt := range res.Curve {
		putBits(h, uint64(pt.Epoch))
		putBits(h, math.Float64bits(pt.Train))
		putBits(h, math.Float64bits(pt.Test))
		putBits(h, math.Float64bits(pt.Loss))
	}
	return h.Sum64()
}

// skinnyProblem is an NLC-F-shaped net small enough for a unit test but
// wide enough that its window-2 temporal convolution (2 rows at M=1,
// k·n = 128·128) sits on the packed/skinny tier boundary, with Linear
// layers that run as single-row products at M=1.
func skinnyProblem() *Problem {
	cfg := model.NLCFConfig{SeqLen: 3, EmbedDim: 16, Hidden1: 64, Kernels: 128, Window: 2, Hidden2: 32, Classes: 5}
	train, test := data.GenText(data.TextConfig{TrainN: 24, TestN: 16, SeqLen: 3, EmbedDim: 16, Classes: 5, Noise: 0.8, Seed: 3})
	return &Problem{
		Name:  "skinny",
		Model: func(s int64) *nn.Network { return model.NewNLCFNet(rand.New(rand.NewSource(s)), cfg) },
		Train: train,
		Test:  test,
	}
}

// convProblem is a CIFAR-shaped net (two conv + ReLU + 2×2 pool stages
// with dropout, then a linear classifier) on 10×10×3 images: the only
// problem here that runs Conv2D and MaxPool2D. Odd channel counts make
// the weight-gradient row shards uneven, and the two stages lower to
// GEMMs of different aspect (p = 64 pixels × kr = 27, p = 9 × kr = 20).
func convProblem() *Problem {
	cfg := model.CIFARConfig{ImageSize: 10, InC: 3, Channels: []int{5, 7}, Kernels: []int{3, 2}, Dropout: 0.1, Classes: 4}
	train, test := data.GenImages(data.ImageConfig{TrainN: 24, TestN: 16, Size: 10, Channels: 3, Classes: 4, Noise: 1.0, Seed: 5})
	return &Problem{
		Name:  "conv",
		Model: func(s int64) *nn.Network { return model.NewCIFARNet(rand.New(rand.NewSource(s)), cfg) },
		Train: train,
		Test:  test,
	}
}

type goldenCase struct {
	name   string
	skinny bool // skinnyProblem instead of tinyProblem(40, 24, 5)
	conv   bool // convProblem instead
	// cfg builds the run's Config; dir is a per-case temp directory.
	cfg func(t *testing.T, dir string, prob *Problem) Config

	params, curve uint64
	words, msgs   int64
}

func goldenBase(p, interval int) Config {
	return Config{Algo: AlgoSASGD, Learners: p, Interval: interval, Gamma: 0.05, Batch: 4, Epochs: 3, Seed: 17}
}

// plain wraps a Config that needs neither the directory nor the problem.
func plain(cfg Config) func(*testing.T, string, *Problem) Config {
	return func(*testing.T, string, *Problem) Config { return cfg }
}

func with(cfg Config, mut func(*Config)) Config {
	mut(&cfg)
	return cfg
}

var goldenCases = []goldenCase{
	// T=1: every local step is an interval's last.
	{name: "dense_T1", cfg: plain(goldenBase(2, 1)),
		params: 0xc41bbe1547d57e5e, curve: 0xd028fa6ecad2f61b, words: 2077, msgs: 31},
	// 5 batches per epoch, T=3: epochs end mid-interval, so the epoch-end
	// evaluation must see the local updates taken since the last reset.
	{name: "dense_T3_midinterval", cfg: plain(goldenBase(2, 3)),
		params: 0x44e23c63b197623d, curve: 0xca91fc79aed066bd, words: 737, msgs: 11},
	{name: "dense_T1_ptree", cfg: plain(with(goldenBase(3, 1), func(c *Config) { c.Allreduce, c.CommChunk = AllreducePTree, 16 })),
		params: 0xb47b0f1d5f7f545d, curve: 0x6ab35afce55cbf57, words: 3350, msgs: 242},
	{name: "topk_T2", cfg: plain(with(goldenBase(2, 2), func(c *Config) { c.Compress, c.CompressK = CodecTopK, 0.3 })),
		params: 0x16539785c61ba1e3, curve: 0xc96b42d56a4af4b7, words: 655, msgs: 29},
	{name: "topk_adapt_T1", cfg: plain(with(goldenBase(2, 1), func(c *Config) { c.Compress, c.CompressK, c.CompressAdapt = CodecTopK, 0.1, true })),
		params: 0x36bf9504286450c5, curve: 0x886d01239d642c17, words: 775, msgs: 91},
	{name: "qint8_T1", cfg: plain(with(goldenBase(2, 1), func(c *Config) { c.Compress = CodecQInt8 })),
		params: 0x009de6d9554d0951, curve: 0x99320f2bb0c8d65b, words: 517, msgs: 121},
	{name: "hier_T2", cfg: plain(with(goldenBase(4, 2), func(c *Config) { c.HierGroups, c.TOuter = 2, 2 })),
		params: 0x5bff44f4611b1ce1, curve: 0x84336f30ef0d5223, words: 1809, msgs: 27},
	{name: "hier_T1", cfg: plain(with(goldenBase(4, 1), func(c *Config) { c.HierGroups, c.TOuter = 2, 2 })),
		params: 0x852db9dd36798717, curve: 0x48d623f227151147, words: 3685, msgs: 55},
	{name: "delayed_T2", cfg: plain(with(goldenBase(2, 2), func(c *Config) { c.DelayedApply = true })),
		params: 0xe5f37cab92b4b09d, curve: 0x95a5ac146dd38699, words: 1005, msgs: 29},
	{name: "delayed_T1", cfg: plain(with(goldenBase(2, 1), func(c *Config) { c.DelayedApply = true })),
		params: 0xfbb1456bf829ef99, curve: 0x1e5ac7e35d6b6c42, words: 2077, msgs: 61},
	{name: "overlap_T2", cfg: plain(with(goldenBase(2, 2), func(c *Config) { c.OverlapComm = true })),
		params: 0xf28d6a45d9ce2686, curve: 0x433314122b1cd319, words: 1005, msgs: 29},
	{name: "overlap_T1", cfg: plain(with(goldenBase(2, 1), func(c *Config) { c.OverlapComm = true })),
		params: 0xc41bbe1547d57e5e, curve: 0xd028fa6ecad2f61b, words: 2077, msgs: 61},
	{name: "adaptiveT_T2", cfg: plain(with(goldenBase(2, 2), func(c *Config) { c.TSched = TSchedAdaptive })),
		params: 0x09b70ee54ee733c7, curve: 0xb6000daa8959ab61, words: 619, msgs: 17},
	// Adaptive T starting at 1: the drift statistic reads the replica at
	// every boundary, so no local update may be dropped.
	{name: "adaptiveT_T1", cfg: plain(with(goldenBase(2, 1), func(c *Config) { c.TSched = TSchedAdaptive })),
		params: 0x0d18de0b3fa8f5f8, curve: 0x2cdb3719857dd614, words: 619, msgs: 17},
	{name: "metrics_T1", cfg: func(*testing.T, string, *Problem) Config {
		return with(goldenBase(2, 1), func(c *Config) { c.Metrics = obsmetrics.New() })
	}, params: 0xc41bbe1547d57e5e, curve: 0xd028fa6ecad2f61b, words: 2797, msgs: 61},
	{name: "crash_T1", cfg: func(t *testing.T, _ string, _ *Problem) Config {
		plan, err := comm.ParseFaultPlan("seed=5,crash=1@2,timeout=80ms,evict=400ms")
		if err != nil {
			t.Fatal(err)
		}
		return with(goldenBase(3, 1), func(c *Config) { c.Faults = plan })
	}, params: 0xaef8268858425515, curve: 0xc6550f33e0c516c9, words: 2010, msgs: 30},
	{name: "checkpoint_T1", cfg: func(_ *testing.T, dir string, _ *Problem) Config {
		return with(goldenBase(2, 1), func(c *Config) { c.CheckpointPath = filepath.Join(dir, "ck-%d.ckpt") })
	}, params: 0xc41bbe1547d57e5e, curve: 0xd028fa6ecad2f61b, words: 2077, msgs: 31},
	// Resume from a mid-run, mid-epoch checkpoint of a checkpointing run.
	{name: "resume_T1", cfg: func(t *testing.T, dir string, prob *Problem) Config {
		full := with(goldenBase(2, 1), func(c *Config) { c.CheckpointPath = filepath.Join(dir, "ck-%d.ckpt") })
		Train(full, prob)
		mid := filepath.Join(dir, "ck-7.ckpt")
		if _, err := os.Stat(mid); err != nil {
			t.Fatalf("expected per-boundary checkpoint %s: %v", mid, err)
		}
		return with(goldenBase(2, 1), func(c *Config) { c.ResumeFrom = mid })
	}, params: 0xc41bbe1547d57e5e, curve: 0xb6febcc15d8a2c6f, words: 1139, msgs: 17},
	{name: "resume_T2", cfg: func(t *testing.T, dir string, prob *Problem) Config {
		full := with(goldenBase(2, 2), func(c *Config) { c.CheckpointPath = filepath.Join(dir, "ck-%d.ckpt") })
		Train(full, prob)
		mid := filepath.Join(dir, "ck-3.ckpt")
		if _, err := os.Stat(mid); err != nil {
			t.Fatalf("expected per-boundary checkpoint %s: %v", mid, err)
		}
		return with(goldenBase(2, 2), func(c *Config) { c.ResumeFrom = mid })
	}, params: 0xf28d6a45d9ce2686, curve: 0xae3f0e812a3e3cf0, words: 603, msgs: 9},
	// The M=1 shapes: single-row Linear products and a 2-row temporal
	// convolution on the packed-tier threshold.
	{name: "skinny_M1_T1", skinny: true, cfg: plain(with(goldenBase(2, 1), func(c *Config) { c.Batch, c.Epochs = 1, 2 })),
		params: 0x89d362bbb4e0b911, curve: 0x3fd8a7bee67016e4, words: 1072757, msgs: 49},
	{name: "skinny_M3_topk_T2", skinny: true, cfg: plain(with(goldenBase(2, 2), func(c *Config) {
		c.Batch, c.Epochs, c.Compress, c.CompressK = 3, 2, CodecTopK, 0.1
	})), params: 0x49699c0abcfd37a0, curve: 0x1519589ea1c5ca13, words: 56949, msgs: 33},
	// The conv net. Conv2D.Backward branches on batch < kernel workers
	// (samples in order, row-parallel kernels) versus batch ≥ workers
	// (samples sharded over the pool); its weight-gradient reduction is
	// sharded over output channels either way.
	{name: "conv_M4_W1_T1", conv: true, cfg: plain(with(goldenBase(2, 1), func(c *Config) { c.Epochs, c.Workers = 2, 1 })),
		params: 0x4769216efb9d1fb2, curve: 0x494bef65edf8b8d8, words: 4147, msgs: 13},
	// Same run on two kernel workers: same bits.
	{name: "conv_M4_W2_T1", conv: true, cfg: plain(with(goldenBase(2, 1), func(c *Config) { c.Epochs, c.Workers = 2, 2 })),
		params: 0x4769216efb9d1fb2, curve: 0x494bef65edf8b8d8, words: 4147, msgs: 13},
	{name: "conv_M4_W2_T3", conv: true, cfg: plain(with(goldenBase(2, 3), func(c *Config) { c.Epochs, c.Workers = 2, 2 })),
		params: 0x7fb86d7f7381b240, curve: 0x41ee1f086682585f, words: 1595, msgs: 5},
	{name: "conv_M1_W2_T2", conv: true, cfg: plain(with(goldenBase(2, 2), func(c *Config) { c.Batch, c.Epochs, c.Workers = 1, 2, 2 })),
		params: 0x7388e3c575293fdf, curve: 0x2dc5493c9ca84c1d, words: 7975, msgs: 25},
	// Overlap: the per-layer hook must fire for layer 0 (the first conv)
	// once its gradients are final.
	{name: "conv_overlap_W2_T2", conv: true, cfg: plain(with(goldenBase(2, 2), func(c *Config) { c.Epochs, c.Workers, c.OverlapComm = 2, 2, true })),
		params: 0x52f1a1a15b2b0a98, curve: 0xd9cd6268eed1e207, words: 2233, msgs: 19},
	{name: "conv_overlap_M1_W2_T1", conv: true, cfg: plain(with(goldenBase(2, 1), func(c *Config) { c.Batch, c.Epochs, c.Workers, c.OverlapComm = 1, 1, 2, true })),
		params: 0xfe020a35d358f49b, curve: 0x8e2128158145988b, words: 7975, msgs: 73},
	// FastKernels: every weight-gradient element is a four-accumulator dot.
	{name: "conv_fast_M4_W2_T1", conv: true, cfg: plain(with(goldenBase(2, 1), func(c *Config) { c.Epochs, c.Workers, c.FastKernels = 2, 2, true })),
		params: 0x4cb6bbb0c08ab185, curve: 0xb927ed21a38b11cf, words: 4147, msgs: 13},
	{name: "conv_fast_M1_W1_T2", conv: true, cfg: plain(with(goldenBase(2, 2), func(c *Config) { c.Batch, c.Epochs, c.Workers, c.FastKernels = 1, 1, 1, true })),
		params: 0x43f35173775b00f9, curve: 0x4e1d13fc3d505edb, words: 4147, msgs: 13},
}

// TestGoldenPins runs every case and compares against the constants
// above. On a mismatch it prints the observed values in the table's own
// form — they go into the table only in a commit whose purpose is to
// move them.
func TestGoldenPins(t *testing.T) {
	var moved []string
	for _, gc := range goldenCases {
		prob := tinyProblem(40, 24, 5)
		if gc.skinny {
			prob = skinnyProblem()
		}
		if gc.conv {
			prob = convProblem()
		}
		res := Train(gc.cfg(t, t.TempDir(), prob), prob)
		got := goldenCase{params: goldenParams(res.FinalParams), curve: goldenCurve(res),
			words: res.WordsMoved, msgs: res.Comm.Messages}
		if len(res.Curve) == 0 || len(res.FinalParams) == 0 {
			t.Errorf("%s: empty run (%d curve points, %d parameters)", gc.name, len(res.Curve), len(res.FinalParams))
		}
		if got.params != gc.params || got.curve != gc.curve || got.words != gc.words || got.msgs != gc.msgs {
			moved = append(moved, fmt.Sprintf("%-22s params: %#016x, curve: %#016x, words: %d, msgs: %d",
				gc.name, got.params, got.curve, got.words, got.msgs))
		}
	}
	if len(moved) > 0 {
		t.Errorf("%d of %d golden pins moved; observed:\n  %s", len(moved), len(goldenCases), strings.Join(moved, "\n  "))
	}
}
