package nn

import (
	"fmt"
	"math"

	"sasgd/internal/tensor"
)

// MaxPool2D is a max pooling layer over (N, C, H, W) inputs with a
// kh×kw window and matching stride (the paper's networks always pool
// with stride equal to the window). When the remaining spatial extent is
// smaller than the window — which happens at the last stage of the
// Table-I network where the feature map has shrunk to 1×1 — the window is
// clamped to the input so the layer degenerates to identity rather than
// failing, mirroring how the published architecture table is to be read.
type MaxPool2D struct {
	KH, KW  int
	argmax  []int
	inShape []int
}

// NewMaxPool2D returns a max pooling layer with a kh×kw window and
// stride equal to the window.
func NewMaxPool2D(kh, kw int) *MaxPool2D {
	if kh <= 0 || kw <= 0 {
		panic(fmt.Sprintf("nn: NewMaxPool2D(%d, %d): window must be positive", kh, kw))
	}
	return &MaxPool2D{KH: kh, KW: kw}
}

// Name implements Layer.
func (p *MaxPool2D) Name() string { return fmt.Sprintf("MaxPool2D (%d,%d)", p.KH, p.KW) }

// Params implements Layer.
func (*MaxPool2D) Params() []*Param { return nil }

func (p *MaxPool2D) outHW(h, w int) (oh, ow int) {
	kh, kw := p.KH, p.KW
	if kh > h {
		kh = h
	}
	if kw > w {
		kw = w
	}
	return (h-kh)/kh + 1, (w-kw)/kw + 1
}

// OutShape implements Layer.
func (p *MaxPool2D) OutShape(in []int) []int {
	if len(in) != 3 {
		panic(fmt.Sprintf("nn: %s applied to per-sample shape %v", p.Name(), in))
	}
	oh, ow := p.outHW(in[1], in[2])
	return []int{in[0], oh, ow}
}

// Forward implements Layer. Only a training pass records the window
// maxima's positions for Backward.
func (p *MaxPool2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if x.Dims() != 4 {
		panic(fmt.Sprintf("nn: %s forward input shape %v", p.Name(), x.Shape()))
	}
	n, c, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	kh, kw := p.KH, p.KW
	if kh > h {
		kh = h
	}
	if kw > w {
		kw = w
	}
	oh, ow := p.outHW(h, w)
	out := tensor.New(n, c, oh, ow)
	var argmax []int
	if train {
		p.inShape = append(p.inShape[:0], n, c, h, w)
		p.argmax = resize(p.argmax, out.Size())
		argmax = p.argmax
	}
	oi := 0
	for i := 0; i < n; i++ {
		for ch := 0; ch < c; ch++ {
			base := (i*c + ch) * h * w
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					// First maximum of the window. After a ReLU whether a value
					// beats the running best is close to a coin toss, so the
					// running best is carried as its bit pattern and replaced,
					// with its index, by integer conditional moves: same
					// comparison, nothing for the branch predictor to lose.
					bestIdx := base + (oy*kh)*w + ox*kw
					best := math.Float64bits(x.Data[bestIdx])
					for dy := 0; dy < kh; dy++ {
						row := base + (oy*kh+dy)*w + ox*kw
						for dx := 0; dx < kw; dx++ {
							v := x.Data[row+dx]
							vb := math.Float64bits(v)
							if v > math.Float64frombits(best) {
								best, bestIdx = vb, row+dx
							}
						}
					}
					out.Data[oi] = math.Float64frombits(best)
					if argmax != nil {
						argmax[oi] = bestIdx
					}
					oi++
				}
			}
		}
	}
	return out
}

// Backward implements Layer.
func (p *MaxPool2D) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	if len(p.inShape) == 0 {
		panic("nn: MaxPool2D.Backward before Forward")
	}
	if gradOut.Size() != len(p.argmax) {
		panic(fmt.Sprintf("nn: %s backward gradient size %d, want %d", p.Name(), gradOut.Size(), len(p.argmax)))
	}
	in := tensor.New(p.inShape...)
	for i, g := range gradOut.Data {
		in.Data[p.argmax[i]] += g
	}
	return in
}

// TemporalMaxPool pools over the time axis of (N, L, D) inputs with a
// window of kt frames and stride kt, clamping the window when L < kt
// (same convention as MaxPool2D). It implements the "Max-Pooling
// (height, width) = (2, 1)" stage of the Table-II network, where pooling
// runs over time and is identity across the feature dimension.
type TemporalMaxPool struct {
	KT      int
	argmax  []int
	inShape []int
}

// NewTemporalMaxPool returns a temporal max pooling layer with window kt.
func NewTemporalMaxPool(kt int) *TemporalMaxPool {
	if kt <= 0 {
		panic(fmt.Sprintf("nn: NewTemporalMaxPool(%d): window must be positive", kt))
	}
	return &TemporalMaxPool{KT: kt}
}

// Name implements Layer.
func (p *TemporalMaxPool) Name() string { return fmt.Sprintf("TemporalMaxPool (%d,1)", p.KT) }

// Params implements Layer.
func (*TemporalMaxPool) Params() []*Param { return nil }

// OutShape implements Layer.
func (p *TemporalMaxPool) OutShape(in []int) []int {
	if len(in) != 2 {
		panic(fmt.Sprintf("nn: %s applied to per-sample shape %v", p.Name(), in))
	}
	kt := p.KT
	if kt > in[0] {
		kt = in[0]
	}
	return []int{(in[0]-kt)/kt + 1, in[1]}
}

// Forward implements Layer. Only a training pass records the maxima's
// positions for Backward.
func (p *TemporalMaxPool) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if x.Dims() != 3 {
		panic(fmt.Sprintf("nn: %s forward input shape %v", p.Name(), x.Shape()))
	}
	n, l, d := x.Dim(0), x.Dim(1), x.Dim(2)
	kt := p.KT
	if kt > l {
		kt = l
	}
	ol := (l-kt)/kt + 1
	out := tensor.New(n, ol, d)
	var argmax []int
	if train {
		p.inShape = append(p.inShape[:0], n, l, d)
		p.argmax = resize(p.argmax, out.Size())
		argmax = p.argmax
	}
	oi := 0
	for i := 0; i < n; i++ {
		for ot := 0; ot < ol; ot++ {
			for j := 0; j < d; j++ {
				bestIdx := (i*l+ot*kt)*d + j
				best := x.Data[bestIdx]
				for dt := 1; dt < kt; dt++ {
					idx := (i*l+ot*kt+dt)*d + j
					if v := x.Data[idx]; v > best {
						best, bestIdx = v, idx
					}
				}
				out.Data[oi] = best
				if argmax != nil {
					argmax[oi] = bestIdx
				}
				oi++
			}
		}
	}
	return out
}

// Backward implements Layer.
func (p *TemporalMaxPool) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	if len(p.inShape) == 0 {
		panic("nn: TemporalMaxPool.Backward before Forward")
	}
	if gradOut.Size() != len(p.argmax) {
		panic(fmt.Sprintf("nn: %s backward gradient size %d, want %d", p.Name(), gradOut.Size(), len(p.argmax)))
	}
	in := tensor.New(p.inShape...)
	for i, g := range gradOut.Data {
		in.Data[p.argmax[i]] += g
	}
	return in
}
