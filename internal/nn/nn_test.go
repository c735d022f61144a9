package nn

import (
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"sasgd/internal/tensor"
)

func TestReLUForwardValues(t *testing.T) {
	r := NewReLU()
	x := tensor.FromSlice([]float64{-1, 0, 2, -3}, 1, 4)
	out := r.Forward(x, true)
	want := []float64{0, 0, 2, 0}
	for i, w := range want {
		if out.Data[i] != w {
			t.Fatalf("ReLU forward = %v, want %v", out.Data, want)
		}
	}
}

func TestTanhMatchesMath(t *testing.T) {
	l := NewTanh()
	x := tensor.FromSlice([]float64{-25, -2, -0.5, 0, 0.5, 2, 25}, 1, 7)
	out := l.Forward(x, true)
	for i, v := range x.Data {
		want := math.Tanh(v)
		if math.Abs(out.Data[i]-want) > 1e-12 {
			t.Errorf("tanh(%g) = %g, want %g", v, out.Data[i], want)
		}
	}
}

func TestDropoutInferenceIsIdentity(t *testing.T) {
	d := NewDropout(rand.New(rand.NewSource(1)), 0.5)
	x := tensor.FromSlice([]float64{1, 2, 3, 4}, 1, 4)
	out := d.Forward(x, false)
	for i := range x.Data {
		if out.Data[i] != x.Data[i] {
			t.Fatal("Dropout inference changed values")
		}
	}
}

func TestDropoutTrainingStatistics(t *testing.T) {
	p := 0.5
	d := NewDropout(rand.New(rand.NewSource(2)), p)
	x := tensor.New(1, 20000)
	x.Fill(1)
	out := d.Forward(x, true)
	zeros := 0
	sum := 0.0
	for _, v := range out.Data {
		if v == 0 {
			zeros++
		} else if math.Abs(v-1/(1-p)) > 1e-12 {
			t.Fatalf("survivor scaled to %g, want %g", v, 1/(1-p))
		}
		sum += v
	}
	frac := float64(zeros) / float64(x.Size())
	if math.Abs(frac-p) > 0.02 {
		t.Errorf("dropped fraction %g, want ≈%g", frac, p)
	}
	// Inverted dropout preserves expectation.
	if mean := sum / float64(x.Size()); math.Abs(mean-1) > 0.05 {
		t.Errorf("post-dropout mean %g, want ≈1", mean)
	}
}

func TestDropoutBackwardUsesMask(t *testing.T) {
	d := NewDropout(rand.New(rand.NewSource(3)), 0.5)
	x := tensor.New(1, 100)
	x.Fill(1)
	out := d.Forward(x, true)
	g := tensor.New(1, 100)
	g.Fill(1)
	gin := d.Backward(g)
	for i := range out.Data {
		if (out.Data[i] == 0) != (gin.Data[i] == 0) {
			t.Fatal("backward mask does not match forward mask")
		}
	}
}

func TestDropoutBadProbabilityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewDropout(1.0) did not panic")
		}
	}()
	NewDropout(rand.New(rand.NewSource(4)), 1.0)
}

func TestMaxPool2DForwardValues(t *testing.T) {
	p := NewMaxPool2D(2, 2)
	x := tensor.FromSlice([]float64{
		1, 2, 5, 3,
		4, 8, 6, 7,
		0, 1, 2, 3,
		9, 0, 1, 2,
	}, 1, 1, 4, 4)
	out := p.Forward(x, true)
	want := []float64{8, 7, 9, 3}
	for i, w := range want {
		if out.Data[i] != w {
			t.Fatalf("MaxPool2D forward = %v, want %v", out.Data, want)
		}
	}
}

func TestMaxPool2DClampDegeneratesToIdentity(t *testing.T) {
	// 1×1 input with a 2×2 window: the Table-I final pool stage.
	p := NewMaxPool2D(2, 2)
	x := tensor.FromSlice([]float64{3.5, -1}, 2, 1, 1, 1)
	out := p.Forward(x, true)
	if out.Dim(2) != 1 || out.Dim(3) != 1 {
		t.Fatalf("clamped pool output shape %v", out.Shape())
	}
	if out.Data[0] != 3.5 || out.Data[1] != -1 {
		t.Errorf("clamped pool values %v", out.Data)
	}
}

func TestTemporalMaxPoolForward(t *testing.T) {
	p := NewTemporalMaxPool(2)
	// (1, 2, 3): two frames of width 3.
	x := tensor.FromSlice([]float64{
		1, 5, 2,
		4, 3, 9,
	}, 1, 2, 3)
	out := p.Forward(x, true)
	want := []float64{4, 5, 9}
	if out.Dim(1) != 1 {
		t.Fatalf("TemporalMaxPool output shape %v", out.Shape())
	}
	for i, w := range want {
		if out.Data[i] != w {
			t.Fatalf("TemporalMaxPool forward = %v, want %v", out.Data, want)
		}
	}
}

func TestLinearKnownValues(t *testing.T) {
	l := NewLinear(rand.New(rand.NewSource(5)), 2, 2)
	copy(l.Params()[0].Value.Data, []float64{1, 2, 3, 4}) // W rows: [1 2], [3 4]
	copy(l.Params()[1].Value.Data, []float64{0.5, -0.5})
	x := tensor.FromSlice([]float64{1, 1}, 1, 2)
	out := l.Forward(x, true)
	if out.Data[0] != 3.5 || out.Data[1] != 6.5 {
		t.Errorf("Linear forward = %v, want [3.5 6.5]", out.Data)
	}
}

func TestSoftmaxCrossEntropyKnownValue(t *testing.T) {
	crit := NewSoftmaxCrossEntropy()
	logits := tensor.FromSlice([]float64{0, 0, 0}, 1, 3)
	loss := crit.Loss(logits, []int{1})
	if math.Abs(loss-math.Log(3)) > 1e-12 {
		t.Errorf("uniform-logit loss = %g, want ln 3 = %g", loss, math.Log(3))
	}
	probs := crit.Probs()
	for _, p := range probs.Data {
		if math.Abs(p-1.0/3) > 1e-12 {
			t.Errorf("uniform softmax prob = %g", p)
		}
	}
}

func TestSoftmaxCrossEntropyNumericalStability(t *testing.T) {
	crit := NewSoftmaxCrossEntropy()
	logits := tensor.FromSlice([]float64{1000, 0, -1000}, 1, 3)
	loss := crit.Loss(logits, []int{0})
	if math.IsNaN(loss) || math.IsInf(loss, 0) {
		t.Fatalf("loss = %g with extreme logits", loss)
	}
	if loss > 1e-9 {
		t.Errorf("confident correct prediction loss = %g, want ≈0", loss)
	}
}

func TestSoftmaxCrossEntropyLabelOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range label did not panic")
		}
	}()
	NewSoftmaxCrossEntropy().Loss(tensor.New(1, 3), []int{3})
}

func TestNetworkBindFlatParams(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	net := NewNetwork([]int{4},
		NewLinear(rng, 4, 3),
		NewTanh(),
		NewLinear(rng, 3, 2),
	)
	wantParams := 4*3 + 3 + 3*2 + 2
	if net.NumParams() != wantParams {
		t.Fatalf("NumParams = %d, want %d", net.NumParams(), wantParams)
	}
	// Mutating the flat vector must mutate the layer views.
	net.ParamData()[0] = 123
	if net.Params()[0].Value.Data[0] != 123 {
		t.Error("flat parameter buffer is not aliased by layer views")
	}
	// SetParamData replaces everything.
	v := make([]float64, wantParams)
	for i := range v {
		v[i] = float64(i)
	}
	net.SetParamData(v)
	if net.Params()[0].Value.Data[1] != 1 {
		t.Error("SetParamData did not propagate to layer views")
	}
}

func TestNetworkGradAliasing(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	net := NewNetwork([]int{3}, NewLinear(rng, 3, 2))
	x := tensor.New(2, 3)
	x.FillRandn(rng, 0, 1)
	net.Step(x, []int{0, 1})
	// The layer's Grad view and the flat GradData must alias.
	sum := 0.0
	for _, g := range net.GradData() {
		sum += math.Abs(g)
	}
	if sum == 0 {
		t.Fatal("GradData all zero after Step")
	}
	net.GradData()[0] = 99
	if net.Params()[0].Grad.Data[0] != 99 {
		t.Error("flat gradient buffer is not aliased by layer views")
	}
}

func TestNetworkShapeValidationPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	defer func() {
		if recover() == nil {
			t.Fatal("mis-chained network did not panic at construction")
		}
	}()
	NewNetwork([]int{4},
		NewLinear(rng, 5, 3), // wrong input width
	)
}

func TestNetworkPredict(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	net := NewNetwork([]int{2}, NewLinear(rng, 2, 3))
	// Force deterministic weights: class = argmax of W·x.
	copy(net.ParamData(), []float64{
		1, 0, // class 0 likes x[0]
		0, 1, // class 1 likes x[1]
		-1, -1, // class 2 likes neither
		0, 0, 0, // biases
	})
	x := tensor.FromSlice([]float64{5, 1, 1, 5, -5, -5}, 3, 2)
	pred := net.Predict(x)
	want := []int{0, 1, 2}
	for i, w := range want {
		if pred[i] != w {
			t.Errorf("Predict[%d] = %d, want %d", i, pred[i], w)
		}
	}
}

// TestConcurrentPredictMatchesSerial: Predict writes nothing of the
// network's, so goroutines sharing one network (a CIFAR-shaped one with
// every layer an inference pass runs, and an NLC-F-shaped one) get the
// classes serial calls get. Under -race it also holds inference to
// writing no field.
func TestConcurrentPredictMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	nets := map[string]*Network{
		"cifar": NewNetwork([]int{3, 8, 8},
			NewConv2D(rng, 3, 4, 3, 3), NewReLU(), NewMaxPool2D(2, 2), NewFlatten(),
			NewDropout(rng, 0.5), NewLinear(rng, 4*3*3, 6), NewTanh(), NewLinear(rng, 6, 5)),
		"nlcf": NewNetwork([]int{6, 4},
			NewTemporalConv(rng, 4, 5, 2), NewTanh(), NewTemporalMaxPool(2), NewFlatten(),
			NewLinear(rng, 5*2, 9), NewTanh(), NewLinear(rng, 9, 7)),
	}
	for name, net := range nets {
		batches := make([]*tensor.Tensor, 6)
		want := make([][]int, len(batches))
		for i := range batches {
			batches[i] = tensor.New(append([]int{3 + i}, net.InShape()...)...)
			batches[i].FillRandn(rng, 0, 1)
			want[i] = net.Predict(batches[i])
		}
		got := make([][]int, len(batches))
		var wg sync.WaitGroup
		for i, x := range batches {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[i] = net.Predict(x)
			}()
		}
		wg.Wait()
		for i := range want {
			if !slices.Equal(got[i], want[i]) {
				t.Errorf("%s batch %d: concurrent Predict %v, serial %v", name, i, got[i], want[i])
			}
		}
	}
}

func TestNetworkSummaryMentionsLayers(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	net := NewNetwork([]int{3}, NewLinear(rng, 3, 2))
	s := net.Summary()
	if s == "" || !contains(s, "Linear") || !contains(s, "Parameters") {
		t.Errorf("Summary missing content:\n%s", s)
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (func() bool {
		for i := 0; i+len(sub) <= len(s); i++ {
			if s[i:i+len(sub)] == sub {
				return true
			}
		}
		return false
	})()
}

// TestTrainingReducesLoss is the package-level smoke test: a small dense
// network fit to a separable problem must reduce its loss with plain SGD.
func TestTrainingReducesLoss(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	net := NewNetwork([]int{2},
		NewLinear(rng, 2, 8),
		NewTanh(),
		NewLinear(rng, 8, 2),
	)
	x := tensor.New(16, 2)
	labels := make([]int, 16)
	for i := 0; i < 16; i++ {
		if i%2 == 0 {
			x.Set(1, i, 0)
			labels[i] = 0
		} else {
			x.Set(1, i, 1)
			labels[i] = 1
		}
	}
	first := net.Step(x, labels)
	for it := 0; it < 200; it++ {
		net.Step(x, labels)
		tensor.Axpy(-0.5, net.GradData(), net.ParamData())
	}
	last := net.Loss(net.Forward(x, false), labels)
	if last > first/5 {
		t.Errorf("loss did not drop: first %g, last %g", first, last)
	}
}
