package nn

import (
	"math"
	"math/rand"
	"testing"

	"sasgd/internal/tensor"
)

// gradCheckLayer verifies a layer's analytic gradients (input and
// parameters) against central finite differences of a scalar objective
// L = sum(w ⊙ forward(x)) with random weights w.
func gradCheckLayer(t *testing.T, mk func() Layer, inShape []int, tol float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	l := mk()

	x := tensor.New(inShape...)
	x.FillRandn(rng, 0, 1)

	out := l.Forward(x, true)
	w := tensor.New(out.Shape()...)
	w.FillRandn(rng, 0, 1)

	// Analytic gradients.
	gradIn := l.Backward(w.Clone())

	objective := func(lc Layer, xc *tensor.Tensor) float64 {
		s := 0.0
		for i, v := range lc.Forward(xc, true).Data {
			s += v * w.Data[i]
		}
		return s
	}

	const eps = 1e-5
	// Input gradient. Layers may be stateful across Forward calls, so
	// rebuild a fresh layer with the same seed for every probe — mk must
	// be deterministic.
	for probe := 0; probe < 12; probe++ {
		i := rng.Intn(x.Size())
		xp := x.Clone()
		xp.Data[i] += eps
		xm := x.Clone()
		xm.Data[i] -= eps
		lp := mk()
		fp := objective(lp, xp)
		lm := mk()
		fm := objective(lm, xm)
		num := (fp - fm) / (2 * eps)
		if diff := math.Abs(num - gradIn.Data[i]); diff > tol*(1+math.Abs(num)) {
			t.Errorf("%s: dL/dx[%d] analytic %g vs numeric %g", l.Name(), i, gradIn.Data[i], num)
		}
	}

	// Parameter gradients.
	params := l.Params()
	for pi, p := range params {
		for probe := 0; probe < 8; probe++ {
			if p.Value.Size() == 0 {
				continue
			}
			i := rng.Intn(p.Value.Size())
			lp := mk()
			lp.Params()[pi].Value.Data[i] += eps
			fp := objective(lp, x.Clone())
			lm := mk()
			lm.Params()[pi].Value.Data[i] -= eps
			fm := objective(lm, x.Clone())
			num := (fp - fm) / (2 * eps)
			if diff := math.Abs(num - p.Grad.Data[i]); diff > tol*(1+math.Abs(num)) {
				t.Errorf("%s: dL/d%s[%d] analytic %g vs numeric %g", l.Name(), p.Name, i, p.Grad.Data[i], num)
			}
		}
	}
}

func TestLinearGradients(t *testing.T) {
	gradCheckLayer(t, func() Layer {
		return NewLinear(rand.New(rand.NewSource(5)), 7, 4)
	}, []int{3, 7}, 1e-6)
}

func TestConv2DGradients(t *testing.T) {
	gradCheckLayer(t, func() Layer {
		return NewConv2D(rand.New(rand.NewSource(6)), 2, 3, 3, 3)
	}, []int{2, 2, 5, 5}, 1e-6)
}

func TestConv2DStridedGradients(t *testing.T) {
	gradCheckLayer(t, func() Layer {
		return NewConv2DGeom(rand.New(rand.NewSource(7)), 2, 2, tensor.ConvGeom{KH: 2, KW: 2, SH: 2, SW: 2})
	}, []int{2, 2, 6, 6}, 1e-6)
}

func TestConv2DPaddedGradients(t *testing.T) {
	gradCheckLayer(t, func() Layer {
		return NewConv2DGeom(rand.New(rand.NewSource(8)), 1, 2, tensor.ConvGeom{KH: 3, KW: 3, SH: 1, SW: 1, PH: 1, PW: 1})
	}, []int{2, 1, 4, 4}, 1e-6)
}

func TestTemporalConvGradients(t *testing.T) {
	gradCheckLayer(t, func() Layer {
		return NewTemporalConv(rand.New(rand.NewSource(9)), 5, 4, 2)
	}, []int{3, 4, 5}, 1e-6)
}

func TestTemporalConvWindow1Gradients(t *testing.T) {
	// Window 1 is the per-word fully connected layer of the NLC-F net.
	gradCheckLayer(t, func() Layer {
		return NewTemporalConv(rand.New(rand.NewSource(10)), 6, 3, 1)
	}, []int{2, 3, 6}, 1e-6)
}

func TestReLUGradients(t *testing.T) {
	gradCheckLayer(t, func() Layer { return NewReLU() }, []int{4, 6}, 1e-5)
}

func TestTanhGradients(t *testing.T) {
	gradCheckLayer(t, func() Layer { return NewTanh() }, []int{4, 6}, 1e-5)
}

func TestMaxPool2DGradients(t *testing.T) {
	gradCheckLayer(t, func() Layer { return NewMaxPool2D(2, 2) }, []int{2, 2, 4, 4}, 1e-5)
}

func TestTemporalMaxPoolGradients(t *testing.T) {
	gradCheckLayer(t, func() Layer { return NewTemporalMaxPool(2) }, []int{2, 4, 3}, 1e-5)
}

func TestFlattenGradients(t *testing.T) {
	gradCheckLayer(t, func() Layer { return NewFlatten() }, []int{2, 3, 2, 2}, 1e-8)
}

// TestSoftmaxCrossEntropyGradient verifies the loss gradient against
// finite differences.
func TestSoftmaxCrossEntropyGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	logits := tensor.New(4, 5)
	logits.FillRandn(rng, 0, 1)
	labels := []int{0, 3, 2, 4}

	crit := NewSoftmaxCrossEntropy()
	crit.Loss(logits, labels)
	grad := crit.Backward()

	const eps = 1e-6
	for probe := 0; probe < 15; probe++ {
		i := rng.Intn(logits.Size())
		lp := logits.Clone()
		lp.Data[i] += eps
		lm := logits.Clone()
		lm.Data[i] -= eps
		fp := NewSoftmaxCrossEntropy().Loss(lp, labels)
		fm := NewSoftmaxCrossEntropy().Loss(lm, labels)
		num := (fp - fm) / (2 * eps)
		if math.Abs(num-grad.Data[i]) > 1e-5*(1+math.Abs(num)) {
			t.Errorf("loss grad[%d]: analytic %g vs numeric %g", i, grad.Data[i], num)
		}
	}
}

// TestNetworkEndToEndGradient verifies backprop through a full stack of
// every layer type against finite differences of the real loss.
func TestNetworkEndToEndGradient(t *testing.T) {
	mk := func() *Network {
		rng := rand.New(rand.NewSource(12))
		return NewNetwork([]int{2, 6, 6},
			NewConv2D(rng, 2, 3, 3, 3),
			NewReLU(),
			NewMaxPool2D(2, 2),
			NewFlatten(),
			NewLinear(rng, 3*2*2, 4),
		)
	}
	rng := rand.New(rand.NewSource(13))
	x := tensor.New(3, 2, 6, 6)
	x.FillRandn(rng, 0, 1)
	labels := []int{1, 0, 3}

	net := mk()
	net.Step(x, labels)
	grads := append([]float64(nil), net.GradData()...)

	const eps = 1e-5
	for probe := 0; probe < 25; probe++ {
		i := rng.Intn(net.NumParams())
		np := mk()
		np.ParamData()[i] += eps
		fp := np.Loss(np.Forward(x, false), labels) // false: net has no dropout; must match train path
		nm := mk()
		nm.ParamData()[i] -= eps
		fm := nm.Loss(nm.Forward(x, false), labels)
		num := (fp - fm) / (2 * eps)
		if math.Abs(num-grads[i]) > 1e-4*(1+math.Abs(num)) {
			t.Errorf("network grad[%d]: analytic %g vs numeric %g", i, grads[i], num)
		}
	}
}
