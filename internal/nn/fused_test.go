package nn

import (
	"math"
	"math/rand"
	"testing"

	"sasgd/internal/tensor"
)

// Network.Forward fuses GEMM-backed layers with a following activation
// layer into one call. These tests pin the two halves of that contract:
// the fused stack is bitwise identical to running each layer's own
// Forward, and backprop through a fused forward still matches finite
// differences (i.e. the activation layers correctly adopt the fused
// output as their backward state).

// forwardUnfused runs the stack layer by layer, bypassing the fusion
// dispatch in Network.Forward.
func forwardUnfused(net *Network, x *tensor.Tensor, train bool) *tensor.Tensor {
	out := x
	for _, l := range net.Layers() {
		out = l.Forward(out, train)
	}
	return out
}

func fusedTestNet() *Network {
	rng := rand.New(rand.NewSource(21))
	return NewNetwork([]int{2, 6, 6},
		NewConv2D(rng, 2, 4, 3, 3),
		NewTanh(),
		NewFlatten(),
		NewLinear(rng, 4*4*4, 9),
		NewTanh(),
		NewFlatten(),
		NewLinear(rng, 9, 4),
		NewReLU(),
	)
}

// TestFusedForwardMatchesUnfusedBitwise runs the same input through the
// fused Network.Forward and through per-layer Forward calls on an
// identically seeded replica, and requires bit-identical logits and —
// after a shared loss — bit-identical parameter gradients (proving the
// activations' adopted backward state equals the state their own Forward
// would have built).
func TestFusedForwardMatchesUnfusedBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	x := tensor.New(3, 2, 6, 6)
	x.FillRandn(rng, 0, 1)
	labels := []int{1, 0, 3}

	fusedNet := fusedTestNet()
	plainNet := fusedTestNet()

	fusedOut := fusedNet.Forward(x, true)
	plainOut := forwardUnfused(plainNet, x, true)
	if len(fusedOut.Data) != len(plainOut.Data) {
		t.Fatalf("output sizes differ: %d vs %d", len(fusedOut.Data), len(plainOut.Data))
	}
	for i := range fusedOut.Data {
		if fusedOut.Data[i] != plainOut.Data[i] {
			t.Fatalf("fused forward differs from unfused at %d: %x vs %x",
				i, fusedOut.Data[i], plainOut.Data[i])
		}
	}

	fusedNet.Loss(fusedOut, labels)
	fusedNet.Backward()
	plainNet.Loss(plainOut, labels)
	plainNet.Backward()
	fg, pg := fusedNet.GradData(), plainNet.GradData()
	for i := range fg {
		if fg[i] != pg[i] {
			t.Fatalf("fused backward gradient differs from unfused at %d: %x vs %x",
				i, fg[i], pg[i])
		}
	}
}

// TestFusedNetworkGradient gradchecks a network whose every GEMM layer
// is fused with a Tanh or ReLU epilogue, against finite
// differences of the real loss.
func TestFusedNetworkGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	x := tensor.New(3, 2, 6, 6)
	x.FillRandn(rng, 0, 1)
	labels := []int{2, 0, 1}

	net := fusedTestNet()
	net.Step(x, labels)
	grads := append([]float64(nil), net.GradData()...)

	const eps = 1e-5
	for probe := 0; probe < 30; probe++ {
		i := rng.Intn(net.NumParams())
		np := fusedTestNet()
		np.ParamData()[i] += eps
		fp := np.Loss(np.Forward(x, false), labels)
		nm := fusedTestNet()
		nm.ParamData()[i] -= eps
		fm := nm.Loss(nm.Forward(x, false), labels)
		num := (fp - fm) / (2 * eps)
		if math.Abs(num-grads[i]) > 1e-4*(1+math.Abs(num)) {
			t.Errorf("fused network grad[%d]: analytic %g vs numeric %g", i, grads[i], num)
		}
	}
}
