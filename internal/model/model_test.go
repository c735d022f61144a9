package model

import (
	"math/rand"
	"testing"

	"sasgd/internal/tensor"
)

func TestPaperCIFARNetMatchesTableI(t *testing.T) {
	net := NewCIFARNet(rand.New(rand.NewSource(1)), PaperCIFARConfig())
	// The paper: "The number of parameters is about 0.5 million in the
	// CIFAR-10 network". Exact count from Table I:
	// conv1 3·64·5·5+64, conv2 64·128·3·3+128, conv3 128·256·3·3+256,
	// conv4 256·128·2·2+128, fc 128·10+10.
	want := 3*64*25 + 64 + 64*128*9 + 128 + 128*256*9 + 256 + 256*128*4 + 128 + 128*10 + 10
	if net.NumParams() != want {
		t.Errorf("Table I parameters = %d, want %d", net.NumParams(), want)
	}
	if net.NumParams() < 450_000 || net.NumParams() > 550_000 {
		t.Errorf("Table I network not 'about 0.5 million' parameters: %d", net.NumParams())
	}
}

func TestPaperNLCFNetMatchesTableII(t *testing.T) {
	net := NewNLCFNet(rand.New(rand.NewSource(1)), PaperNLCFConfig())
	// Table II: per-word FC 100·200+200, temporal conv 1000·(2·200)+1000,
	// fc 1000·1000+1000, fc 1000·311+311.
	want := 100*200 + 200 + 1000*400 + 1000 + 1000*1000 + 1000 + 1000*311 + 311
	if net.NumParams() != want {
		t.Errorf("Table II parameters = %d, want %d", net.NumParams(), want)
	}
	// "about 2 million" per the paper.
	if net.NumParams() < 1_500_000 || net.NumParams() > 2_500_000 {
		t.Errorf("Table II network not 'about 2 million' parameters: %d", net.NumParams())
	}
}

func TestCIFARNetForwardBackward(t *testing.T) {
	for _, cfg := range []CIFARConfig{PaperCIFARConfig(), SmallCIFARConfig()} {
		net := NewCIFARNet(rand.New(rand.NewSource(2)), cfg)
		n := 2
		x := tensor.New(n, cfg.InC, cfg.ImageSize, cfg.ImageSize)
		x.FillRandn(rand.New(rand.NewSource(3)), 0, 1)
		labels := make([]int, n)
		loss := net.Step(x, labels)
		if loss <= 0 {
			t.Errorf("ImageSize=%d: non-positive initial loss %g", cfg.ImageSize, loss)
		}
		nonzero := 0
		for _, g := range net.GradData() {
			if g != 0 {
				nonzero++
			}
		}
		if nonzero == 0 {
			t.Errorf("ImageSize=%d: no gradient flow", cfg.ImageSize)
		}
	}
}

func TestNLCFNetForwardBackward(t *testing.T) {
	for _, cfg := range []NLCFConfig{PaperNLCFConfig(), SmallNLCFConfig()} {
		net := NewNLCFNet(rand.New(rand.NewSource(4)), cfg)
		n := 3
		x := tensor.New(n, cfg.SeqLen, cfg.EmbedDim)
		x.FillRandn(rand.New(rand.NewSource(5)), 0, 1)
		labels := []int{0, 1, 2}
		loss := net.Step(x, labels)
		if loss <= 0 {
			t.Errorf("EmbedDim=%d: non-positive initial loss %g", cfg.EmbedDim, loss)
		}
		sum := 0.0
		for _, g := range net.GradData() {
			if g > 0 || g < 0 {
				sum++
			}
		}
		if sum == 0 {
			t.Errorf("EmbedDim=%d: no gradient flow", cfg.EmbedDim)
		}
	}
}

func TestCIFARConfigMismatchPanics(t *testing.T) {
	cfg := SmallCIFARConfig()
	cfg.Kernels = cfg.Kernels[:1]
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched channels/kernels did not panic")
		}
	}()
	NewCIFARNet(rand.New(rand.NewSource(6)), cfg)
}

func TestNLCFWindowTooLargePanics(t *testing.T) {
	cfg := SmallNLCFConfig()
	cfg.Window = cfg.SeqLen + 1
	defer func() {
		if recover() == nil {
			t.Fatal("window larger than sequence did not panic")
		}
	}()
	NewNLCFNet(rand.New(rand.NewSource(7)), cfg)
}

func TestNetworkCostPaperScale(t *testing.T) {
	cifar := NetworkCost(NewCIFARNet(rand.New(rand.NewSource(8)), PaperCIFARConfig()))
	nlcf := NetworkCost(NewNLCFNet(rand.New(rand.NewSource(9)), PaperNLCFConfig()))
	if cifar.Params != 506378 {
		t.Errorf("CIFAR cost params = %d", cifar.Params)
	}
	// Dominant CIFAR term: conv2 2·128·64·9·12·12 ≈ 21.2 MFLOPs; total
	// forward should be tens of MFLOPs per sample.
	if cifar.ForwardFlopsPerSample < 20e6 || cifar.ForwardFlopsPerSample > 100e6 {
		t.Errorf("CIFAR forward FLOPs/sample = %g", cifar.ForwardFlopsPerSample)
	}
	if cifar.TrainFlopsPerSample != 3*cifar.ForwardFlopsPerSample {
		t.Error("train FLOPs not 3× forward")
	}
	// NLC-F: dominated by the 1000·400 temporal conv and 1000·1000 FC —
	// single-digit MFLOPs per sample.
	if nlcf.ForwardFlopsPerSample < 2e6 || nlcf.ForwardFlopsPerSample > 20e6 {
		t.Errorf("NLC-F forward FLOPs/sample = %g", nlcf.ForwardFlopsPerSample)
	}
	// The models' compute-per-sample ordering drives Figures 4/5: CIFAR
	// compute-heavy, NLC-F communication-heavy.
	if cifar.ForwardFlopsPerSample <= nlcf.ForwardFlopsPerSample {
		t.Error("CIFAR per-sample compute should exceed NLC-F's")
	}
}

func TestSmallConfigsAreSmall(t *testing.T) {
	small := NewCIFARNet(rand.New(rand.NewSource(10)), SmallCIFARConfig())
	paper := NewCIFARNet(rand.New(rand.NewSource(10)), PaperCIFARConfig())
	if small.NumParams()*10 > paper.NumParams() {
		t.Errorf("small CIFAR net (%d params) not ≪ paper net (%d)", small.NumParams(), paper.NumParams())
	}
	smallN := NewNLCFNet(rand.New(rand.NewSource(11)), SmallNLCFConfig())
	paperN := NewNLCFNet(rand.New(rand.NewSource(11)), PaperNLCFConfig())
	if smallN.NumParams()*10 > paperN.NumParams() {
		t.Errorf("small NLC-F net (%d params) not ≪ paper net (%d)", smallN.NumParams(), paperN.NumParams())
	}
}

func TestDeterministicInitialization(t *testing.T) {
	a := NewCIFARNet(rand.New(rand.NewSource(12)), SmallCIFARConfig())
	b := NewCIFARNet(rand.New(rand.NewSource(12)), SmallCIFARConfig())
	for i := range a.ParamData() {
		if a.ParamData()[i] != b.ParamData()[i] {
			t.Fatal("same seed produced different initialization")
		}
	}
}
