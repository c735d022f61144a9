package nn

import (
	"fmt"
	"strings"

	"sasgd/internal/obs"
	"sasgd/internal/tensor"
)

// Network is a sequential stack of layers with its parameters and
// gradients relocated into two flat, contiguous buffers. The flat layout
// is what makes the distributed algorithms cheap to express: SASGD's
// gradient accumulation (gs += g), the allreduce payload, Downpour's
// push/pull, and EAMSGD's elastic term are all single-slice operations
// over ParamData/GradData.
type Network struct {
	layers   []Layer
	params   []*Param
	flatP    []float64
	flatG    []float64
	inShape  []int // per-sample input shape
	criteria *SoftmaxCrossEntropy
	track    *obs.Track // owning learner's trace track; nil = untraced
}

// NewNetwork builds a network from layers, validates that the per-sample
// shapes chain correctly starting from inShape, and binds all parameters
// into flat storage.
func NewNetwork(inShape []int, layers ...Layer) *Network {
	n := &Network{
		layers:   layers,
		inShape:  append([]int(nil), inShape...),
		criteria: NewSoftmaxCrossEntropy(),
	}
	// Shape-check the stack once at construction so misconfigured
	// architectures fail at build time, not mid-experiment.
	shape := append([]int(nil), inShape...)
	for _, l := range layers {
		shape = l.OutShape(shape)
	}
	if len(shape) != 1 {
		panic(fmt.Sprintf("nn: network output per-sample shape %v, want a class-logit vector", shape))
	}
	for _, l := range layers {
		n.params = append(n.params, l.Params()...)
	}
	// backward drops what layer 0 returns, so tell it not to compute it.
	if len(layers) > 0 {
		if f, ok := layers[0].(firstLayer); ok {
			f.markFirst()
		}
	}
	n.bind()
	return n
}

// bind relocates every parameter's value and gradient into contiguous
// flat buffers, preserving current values.
func (n *Network) bind() {
	total := 0
	for _, p := range n.params {
		total += p.Value.Size()
	}
	n.flatP = make([]float64, total)
	n.flatG = make([]float64, total)
	off := 0
	for _, p := range n.params {
		sz := p.Value.Size()
		copy(n.flatP[off:off+sz], p.Value.Data)
		copy(n.flatG[off:off+sz], p.Grad.Data)
		p.Value.Data = n.flatP[off : off+sz : off+sz]
		p.Grad.Data = n.flatG[off : off+sz : off+sz]
		off += sz
	}
}

// InShape returns the per-sample input shape the network was built for.
func (n *Network) InShape() []int { return n.inShape }

// Layers returns the network's layers in order.
func (n *Network) Layers() []Layer { return n.layers }

// NumParams returns the total learnable parameter count.
func (n *Network) NumParams() int { return len(n.flatP) }

// ParamData returns the flat parameter vector. Mutating it mutates the
// model; collectives and optimizers rely on this.
func (n *Network) ParamData() []float64 { return n.flatP }

// GradData returns the flat gradient vector filled by the most recent
// Backward call.
func (n *Network) GradData() []float64 { return n.flatG }

// SetParamData overwrites the model parameters from a flat vector of the
// same length (e.g. a broadcast from learner 0).
func (n *Network) SetParamData(v []float64) {
	if len(v) != len(n.flatP) {
		panic(fmt.Sprintf("nn: SetParamData length %d, want %d", len(v), len(n.flatP)))
	}
	copy(n.flatP, v)
}

// ParamSegment is one layer's contiguous range of the flat parameter and
// gradient buffers: ParamData()[Off:Off+Len] (and the same slice of
// GradData()) holds every parameter of Layers()[Layer]. Segments are the
// buckets a gradient codec in internal/core ships, one collective per
// parameterized layer.
type ParamSegment struct {
	Layer int // index into Layers()
	Off   int // offset into ParamData()/GradData()
	Len   int // words
}

// ParamSegments returns the per-layer segments of the flat buffers in
// flat-buffer (= forward layer) order. Parameterless layers contribute no
// segment; the segments of a network with parameters are non-empty,
// back-to-back, and cover [0, NumParams()) exactly, because bind lays
// parameters out in layer order.
func (n *Network) ParamSegments() []ParamSegment {
	var segs []ParamSegment
	off := 0
	for li, l := range n.layers {
		sz := 0
		for _, p := range l.Params() {
			sz += p.Value.Size()
		}
		if sz > 0 {
			segs = append(segs, ParamSegment{Layer: li, Off: off, Len: sz})
			off += sz
		}
	}
	return segs
}

// Forward runs the full stack on a minibatch and returns the logits.
// A GEMM-backed layer directly followed by an activation layer runs as
// one fused call: the activation is applied in the GEMM epilogue and, on
// a training pass, the activation layer adopts the fused output to
// rebuild its backward state, so Backward and the layer list are
// oblivious to the fusion. Fused and unfused execution are bitwise
// identical. An inference pass writes no layer's state, so concurrent
// inference passes may share a network (Predict).
func (n *Network) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	out := x
	for i := 0; i < len(n.layers); i++ {
		l := n.layers[i]
		if f, ok := l.(fusable); ok && i+1 < len(n.layers) {
			if a, ok := n.layers[i+1].(epilogueAct); ok {
				out = f.ForwardFused(out, train, a.fuseKind())
				if train {
					a.adopt(out)
				}
				i++
				continue
			}
		}
		out = l.Forward(out, train)
	}
	return out
}

// Loss computes the softmax cross-entropy of logits against labels.
func (n *Network) Loss(logits *tensor.Tensor, labels []int) float64 {
	return n.criteria.Loss(logits, labels)
}

// backward backpropagates from the most recent Loss call through every
// layer, last layer first, leaving dLoss/dθ in GradData.
func (n *Network) backward() {
	grad := n.criteria.Backward()
	for i := len(n.layers) - 1; i >= 0; i-- {
		grad = n.layers[i].Backward(grad)
	}
}

// Step computes loss and gradient for one minibatch: a Forward in
// training mode, a Loss, and a Backward. It returns the minibatch loss.
// The caller decides what to do with GradData (apply locally, accumulate
// into gs, push to a server, ...), which is exactly the split between the
// algorithms in the paper.
func (n *Network) Step(x *tensor.Tensor, labels []int) float64 {
	return n.StepThen(x, labels, nil)
}

// StepThen is Step with after, when not nil, called once the whole
// backward pass has finished and GradData is final (a slowed rank's
// sleep runs from it). With a track attached (SetTrack) the
// forward+loss and backward halves are recorded as spans — the one
// timing of a step that the trace, the report and the fleet frame all
// read — and after runs inside the backward span.
func (n *Network) StepThen(x *tensor.Tensor, labels []int, after func()) float64 {
	s := n.track.Begin()
	logits := n.Forward(x, true)
	loss := n.Loss(logits, labels)
	n.track.End(obs.PhaseForward, s)
	s = n.track.Begin()
	n.backward()
	if after != nil {
		after()
	}
	n.track.End(obs.PhaseBackward, s)
	return loss
}

// SetTrack attaches the owning learner's trace track (nil detaches;
// the untraced path is a nil check per Step half). The network is used
// by one goroutine, so the field is unsynchronized by design.
func (n *Network) SetTrack(t *obs.Track) { n.track = t }

// Predict returns the argmax class for each sample in x, running the
// network in inference mode. It writes nothing of the network's, so
// calls may run concurrently (not beside a training Step).
func (n *Network) Predict(x *tensor.Tensor) []int {
	logits := n.Forward(x, false)
	nb, c := logits.Dim(0), logits.Dim(1)
	out := make([]int, nb)
	for i := 0; i < nb; i++ {
		row := logits.Data[i*c : (i+1)*c]
		best, bi := row[0], 0
		for j, v := range row {
			if v > best {
				best, bi = v, j
			}
		}
		out[i] = bi
	}
	return out
}

// Summary renders the architecture in the style of the paper's Tables I
// and II: one line per layer plus the parameter count.
func (n *Network) Summary() string {
	var b strings.Builder
	shape := append([]int(nil), n.inShape...)
	fmt.Fprintf(&b, "Input: per-sample shape %v\n", shape)
	for _, l := range n.layers {
		shape = l.OutShape(shape)
		fmt.Fprintf(&b, "  %-32s -> %v\n", l.Name(), shape)
	}
	fmt.Fprintf(&b, "Cross-entropy error\n")
	fmt.Fprintf(&b, "Parameters: %d\n", n.NumParams())
	return b.String()
}
