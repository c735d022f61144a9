package nn

import (
	"fmt"
	"math/rand"

	"sasgd/internal/tensor"
)

// Linear is a fully connected layer computing y = x·Wᵀ + b for inputs of
// shape (N, in) and outputs of shape (N, out). W has shape (out, in) and
// b shape (out), matching Torch's nn.Linear layout that the paper's
// networks were defined in.
type Linear struct {
	In, Out   int
	w, b      *Param
	firstMark // a network's layer 0: Backward skips the input gradient
	x         *tensor.Tensor
}

// NewLinear returns a fully connected layer with fan-in-scaled uniform
// initialization drawn from rng.
func NewLinear(rng *rand.Rand, in, out int) *Linear {
	if in <= 0 || out <= 0 {
		panic(fmt.Sprintf("nn: NewLinear(%d, %d): dimensions must be positive", in, out))
	}
	l := &Linear{
		In:  in,
		Out: out,
		w:   newParam(fmt.Sprintf("linear%dx%d.w", in, out), out, in),
		b:   newParam(fmt.Sprintf("linear%dx%d.b", in, out), out),
	}
	initFanIn(rng, l.w.Value, in)
	initFanIn(rng, l.b.Value, in)
	return l
}

// Name implements Layer.
func (l *Linear) Name() string { return fmt.Sprintf("Linear %d→%d", l.In, l.Out) }

// Params implements Layer.
func (l *Linear) Params() []*Param { return []*Param{l.w, l.b} }

// OutShape implements Layer.
func (l *Linear) OutShape(in []int) []int {
	if len(in) != 1 || in[0] != l.In {
		panic(fmt.Sprintf("nn: %s applied to per-sample shape %v", l.Name(), in))
	}
	return []int{l.Out}
}

// Forward implements Layer.
func (l *Linear) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	return l.forward(x, train, tensor.ActNone)
}

// ForwardFused implements fusable: Forward with the following activation
// layer folded into the GEMM epilogue. Bitwise identical to Forward
// followed by the activation.
func (l *Linear) ForwardFused(x *tensor.Tensor, train bool, act tensor.EpilogueAct) *tensor.Tensor {
	return l.forward(x, train, act)
}

// forward computes y = x·Wᵀ + b with bias and activation applied in the
// GEMM epilogue while output rows are cache-hot. The input is retained
// for Backward on training passes only: an inference pass must neither
// pin its batch in memory nor stand in for the Forward that Backward
// requires.
func (l *Linear) forward(x *tensor.Tensor, train bool, act tensor.EpilogueAct) *tensor.Tensor {
	if x.Dims() != 2 || x.Dim(1) != l.In {
		panic(fmt.Sprintf("nn: %s forward input shape %v", l.Name(), x.Shape()))
	}
	if train {
		l.x = x
	}
	n := x.Dim(0)
	out := tensor.New(n, l.Out)
	tensor.LinearForward(out, x, l.w.Value, l.b.Value.Data, act)
	return out
}

// Backward implements Layer.
func (l *Linear) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	if l.x == nil {
		panic("nn: Linear.Backward before Forward")
	}
	n := l.x.Dim(0)
	if gradOut.Dims() != 2 || gradOut.Dim(0) != n || gradOut.Dim(1) != l.Out {
		panic(fmt.Sprintf("nn: %s backward gradient shape %v", l.Name(), gradOut.Shape()))
	}
	// dW = gradOutᵀ (out×n) · x (n×in)
	tensor.MatMulTransA(l.w.Grad, gradOut, l.x)
	// db = column sums of gradOut
	l.b.Grad.Zero()
	for i := 0; i < n; i++ {
		row := gradOut.Data[i*l.Out : (i+1)*l.Out]
		for j, g := range row {
			l.b.Grad.Data[j] += g
		}
	}
	l.x = nil
	if l.first {
		return nil
	}
	// dx = gradOut (n×out) · W (out×in)
	gradIn := tensor.New(n, l.In)
	tensor.MatMul(gradIn, gradOut, l.w.Value)
	return gradIn
}
