package nn

import (
	"fmt"
	"math/rand"

	"sasgd/internal/tensor"
)

// Dropout implements inverted dropout: during training each activation is
// zeroed independently with probability P and the survivors are scaled by
// 1/(1-P) so that inference (train=false) is the identity, as in the
// regularization used by the Table-I network (Srivastava et al., cited by
// the paper).
type Dropout struct {
	P    float64
	rng  *rand.Rand
	mask []float64
}

// NewDropout returns a dropout layer with drop probability p drawing its
// masks from rng. p must lie in [0, 1).
func NewDropout(rng *rand.Rand, p float64) *Dropout {
	if p < 0 || p >= 1 {
		panic(fmt.Sprintf("nn: NewDropout(%g): probability must be in [0,1)", p))
	}
	return &Dropout{P: p, rng: rng}
}

// Name implements Layer.
func (d *Dropout) Name() string { return fmt.Sprintf("Dropout p=%g", d.P) }

// Params implements Layer.
func (*Dropout) Params() []*Param { return nil }

// OutShape implements Layer.
func (*Dropout) OutShape(in []int) []int { return in }

// Forward implements Layer.
func (d *Dropout) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if !train || d.P == 0 {
		// Inference: identity. Empty a training mask so a stray Backward
		// after an inference Forward fails loudly instead of reusing it;
		// an empty one is left unwritten, so replicas that only infer
		// (the recorder's) share the layer across goroutines.
		if len(d.mask) != 0 {
			d.mask = d.mask[:0]
		}
		return x
	}
	out := tensor.New(x.Shape()...)
	d.mask = resize(d.mask, len(x.Data))
	scale := 1 / (1 - d.P)
	for i, v := range x.Data {
		if d.rng.Float64() < d.P {
			d.mask[i] = 0
		} else {
			d.mask[i] = scale
			out.Data[i] = v * scale
		}
	}
	return out
}

// Backward implements Layer.
func (d *Dropout) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	if len(d.mask) != len(gradOut.Data) {
		panic("nn: Dropout.Backward without a matching training Forward")
	}
	in := tensor.New(gradOut.Shape()...)
	for i, g := range gradOut.Data {
		in.Data[i] = g * d.mask[i]
	}
	return in
}
