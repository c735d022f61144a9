// Package nn implements the neural-network substrate the paper's
// experiments run on: the layers of the CIFAR-10 convolutional network
// (Table I) and the NLC-F temporal-convolution network (Table II), a
// sequential container with manual backpropagation, a softmax
// cross-entropy loss, and parameter flattening so that distributed
// optimizers and collectives can treat a model as a single contiguous
// vector of parameters and a matching vector of gradients.
//
// Conventions: the leading tensor dimension is always the minibatch.
// Images are (N, C, H, W); vectors are (N, D); sequences are (N, L, D).
// Layers own their parameters; Network.Bind relocates all parameter and
// gradient storage into two flat []float64 buffers (views are rebound,
// values preserved) so that a whole model's parameters can be broadcast,
// allreduced, or pushed to a parameter server with a single slice
// operation and no copying.
package nn

import (
	"fmt"
	"math"
	"math/rand"

	"sasgd/internal/parallel"
	"sasgd/internal/tensor"
)

// activationGrain is the minimum number of elements per worker shard for
// the elementwise activation kernels. ReLU's compare-and-copy is nearly
// free per element, so only whole-minibatch activations are worth
// splitting; Tanh's exp is costly enough to split sooner.
const (
	reluGrain = 1 << 14
	tanhGrain = 1 << 10
)

// Param is one learnable tensor together with the gradient accumulated
// for it by the most recent backward pass.
type Param struct {
	Name  string
	Value *tensor.Tensor
	Grad  *tensor.Tensor
}

func newParam(name string, shape ...int) *Param {
	return &Param{Name: name, Value: tensor.New(shape...), Grad: tensor.New(shape...)}
}

// Layer is one differentiable stage of a network.
//
// Forward consumes the previous layer's output and returns this layer's
// output; when train is false, stochastic layers (Dropout) run in
// inference mode. Backward consumes dL/d(output) and returns dL/d(input),
// accumulating dL/d(param) into the layer's Param.Grad tensors (layers
// overwrite, not accumulate, their gradients: one backward pass per
// forward pass). Layers may retain references to the tensors passed to
// Forward until the matching Backward completes. A Network's first layer
// may return nil from Backward: nothing reads dL/d(data) (see firstLayer).
type Layer interface {
	// Name returns a short human-readable identifier used in the
	// architecture tables and error messages.
	Name() string
	// Forward runs the layer on a minibatch.
	Forward(x *tensor.Tensor, train bool) *tensor.Tensor
	// Backward propagates the output gradient to the input gradient and
	// fills in parameter gradients.
	Backward(gradOut *tensor.Tensor) *tensor.Tensor
	// Params returns the layer's learnable parameters (possibly empty).
	Params() []*Param
	// OutShape returns the per-sample output shape for a given per-sample
	// input shape; used for architecture validation and FLOP counting.
	OutShape(in []int) []int
}

// firstLayer is implemented by the GEMM layers (Conv2D, TemporalConv,
// Linear), whose input gradient is a Wᵀ·gout product of its own — on the
// CIFAR net's first conv, 41 % of the input-gradient work of the whole
// backward pass. NewNetwork calls markFirst on its layer 0, after which
// that layer's Backward skips the product and returns nil; parameter
// gradients are unaffected. A layer used on its own, or deeper in a
// stack, is never marked.
type firstLayer interface {
	markFirst()
}

// firstMark is firstLayer's implementation, embedded by those layers;
// their Backward reads first.
type firstMark struct{ first bool }

func (m *firstMark) markFirst() { m.first = true }

// fusable is implemented by layers (Conv2D, Linear) whose forward pass
// can fold a directly-following activation layer into its GEMM epilogue,
// applying the activation while output tiles are still cache-hot.
// ForwardFused must be bitwise identical to Forward followed by the
// activation's Forward.
type fusable interface {
	ForwardFused(x *tensor.Tensor, train bool, act tensor.EpilogueAct) *tensor.Tensor
}

// epilogueAct is implemented by activation layers that can ride in a
// fusable layer's epilogue: fuseKind names the activation for the tensor
// kernels, and adopt rebuilds the layer's backward state from the fused
// output (which the activation's own Forward never saw).
type epilogueAct interface {
	fuseKind() tensor.EpilogueAct
	adopt(out *tensor.Tensor)
}

// ReLU is the rectified-linear activation max(0, x).
type ReLU struct {
	mask []bool
}

// NewReLU returns a ReLU activation layer.
func NewReLU() *ReLU { return &ReLU{} }

// Name implements Layer.
func (*ReLU) Name() string { return "ReLU" }

// Params implements Layer.
func (*ReLU) Params() []*Param { return nil }

// OutShape implements Layer.
func (*ReLU) OutShape(in []int) []int { return in }

// Forward implements Layer.
func (r *ReLU) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	out := tensor.New(x.Shape()...)
	if cap(r.mask) < len(x.Data) {
		r.mask = make([]bool, len(x.Data))
	}
	r.mask = r.mask[:len(x.Data)]
	src, dst, mask := x.Data, out.Data, r.mask
	parallel.For(len(src), reluGrain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if v := src[i]; v > 0 {
				dst[i] = v
				mask[i] = true
			} else {
				mask[i] = false
			}
		}
	})
	return out
}

func (*ReLU) fuseKind() tensor.EpilogueAct { return tensor.ActReLU }

// adopt rebuilds the backward mask from a fused forward's output: the
// epilogue's max(0, x) is positive exactly where x was, so the mask read
// off the output equals the mask Forward would have built from the input.
func (r *ReLU) adopt(out *tensor.Tensor) {
	if cap(r.mask) < len(out.Data) {
		r.mask = make([]bool, len(out.Data))
	}
	r.mask = r.mask[:len(out.Data)]
	src, mask := out.Data, r.mask
	parallel.For(len(src), reluGrain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			mask[i] = src[i] > 0
		}
	})
}

// Backward implements Layer.
func (r *ReLU) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	if len(gradOut.Data) != len(r.mask) {
		panic("nn: ReLU.Backward called with mismatched gradient size")
	}
	in := tensor.New(gradOut.Shape()...)
	src, dst, mask := gradOut.Data, in.Data, r.mask
	parallel.For(len(src), reluGrain, func(lo, hi int) {
		// A select on the bit pattern, not a branch on the mask: which
		// units were active is what the predictor cannot know.
		for i := lo; i < hi; i++ {
			g := math.Float64bits(src[i])
			var keep uint64
			if mask[i] {
				keep = g
			}
			dst[i] = math.Float64frombits(keep)
		}
	})
	return in
}

// Tanh is the hyperbolic-tangent activation used by the NLC-F network.
type Tanh struct {
	out []float64
}

// NewTanh returns a Tanh activation layer.
func NewTanh() *Tanh { return &Tanh{} }

// Name implements Layer.
func (*Tanh) Name() string { return "Tanh" }

// Params implements Layer.
func (*Tanh) Params() []*Param { return nil }

// OutShape implements Layer.
func (*Tanh) OutShape(in []int) []int { return in }

// Forward implements Layer.
func (t *Tanh) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	out := tensor.New(x.Shape()...)
	src, dst := x.Data, out.Data
	parallel.For(len(src), tanhGrain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			dst[i] = tanh(src[i])
		}
	})
	t.out = append(t.out[:0], out.Data...)
	return out
}

func (*Tanh) fuseKind() tensor.EpilogueAct { return tensor.ActTanh }

// adopt retains a fused forward's output for the y² backward term, the
// same state Forward saves.
func (t *Tanh) adopt(out *tensor.Tensor) { t.out = append(t.out[:0], out.Data...) }

// Backward implements Layer.
func (t *Tanh) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	if len(gradOut.Data) != len(t.out) {
		panic("nn: Tanh.Backward called with mismatched gradient size")
	}
	in := tensor.New(gradOut.Shape()...)
	src, dst, outs := gradOut.Data, in.Data, t.out
	parallel.For(len(src), tanhGrain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			y := outs[i]
			dst[i] = src[i] * (1 - y*y)
		}
	})
	return in
}

func tanh(v float64) float64 {
	// The clamped exponential formulation lives in the tensor package so
	// the fused GEMM epilogue computes the exact same bits; math.Tanh is
	// accurate but comparatively slow, and training spends a measurable
	// fraction of time here for the Table-II network.
	return tensor.ScalarTanh(v)
}

// Flatten reshapes (N, ...) to (N, prod(...)); it is a pure view change
// with an identity backward.
type Flatten struct {
	inShape []int
}

// NewFlatten returns a Flatten layer.
func NewFlatten() *Flatten { return &Flatten{} }

// Name implements Layer.
func (*Flatten) Name() string { return "Flatten" }

// Params implements Layer.
func (*Flatten) Params() []*Param { return nil }

// OutShape implements Layer.
func (*Flatten) OutShape(in []int) []int {
	n := 1
	for _, d := range in {
		n *= d
	}
	return []int{n}
}

// Forward implements Layer.
func (f *Flatten) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	f.inShape = append(f.inShape[:0], x.Shape()...)
	n := x.Dim(0)
	return x.Reshape(n, x.Size()/max(n, 1))
}

// Backward implements Layer.
func (f *Flatten) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	return gradOut.Reshape(f.inShape...)
}

// initFanIn fills w with the scaled-uniform initialization Torch's
// nn.Linear and nn.SpatialConvolution use: U(-s, s) with s = 1/sqrt(fanIn).
func initFanIn(rng *rand.Rand, w *tensor.Tensor, fanIn int) {
	if fanIn <= 0 {
		panic(fmt.Sprintf("nn: invalid fan-in %d", fanIn))
	}
	s := 1.0 / sqrtFloat(float64(fanIn))
	w.FillUniform(rng, -s, s)
}
