package model

import (
	"sasgd/internal/nn"
)

// Cost summarizes the computational footprint of a network, used by the
// fabric simulator to charge compute time and by the experiment drivers
// to report model sizes the way the paper does ("about 0.5 million
// parameters", "about 2 million parameters").
type Cost struct {
	Params                int     // learnable parameter count
	ForwardFlopsPerSample float64 // multiply-accumulate-dominated forward cost
	TrainFlopsPerSample   float64 // forward + backward (≈3× forward for conv/linear stacks)
}

// NetworkCost walks a network's layers and accumulates parameter and
// FLOP counts. FLOPs are counted as 2 per multiply-accumulate. The
// backward pass of a convolution or linear layer costs roughly twice its
// forward pass (one GEMM for the input gradient, one for the weight
// gradient), which is the standard 3× training-to-inference ratio.
func NetworkCost(net *nn.Network) Cost {
	var c Cost
	c.Params = net.NumParams()
	shape := append([]int(nil), net.InShape()...)
	for _, l := range net.Layers() {
		out := l.OutShape(shape)
		c.ForwardFlopsPerSample += layerForwardFlops(l, shape, out)
		shape = out
	}
	c.TrainFlopsPerSample = 3 * c.ForwardFlopsPerSample
	return c
}

func layerForwardFlops(l nn.Layer, in, out []int) float64 {
	switch v := l.(type) {
	case *nn.Conv2D:
		// 2 · K · C · KH · KW · OH · OW
		oh, ow := out[1], out[2]
		return 2 * float64(v.OutC) * float64(v.InC) * float64(v.Geom.KH) * float64(v.Geom.KW) * float64(oh) * float64(ow)
	case *nn.Linear:
		return 2 * float64(v.In) * float64(v.Out)
	case *nn.TemporalConv:
		ol := out[0]
		return 2 * float64(v.OutK) * float64(v.Window) * float64(v.InD) * float64(ol)
	default:
		// Activations, pooling, dropout, flatten: linear in element count,
		// negligible next to the GEMMs but counted for completeness.
		n := 1.0
		for _, d := range out {
			n *= float64(d)
		}
		return n
	}
}
