package nn

import (
	"fmt"
	"math/rand"
	"sync"

	"sasgd/internal/parallel"
	"sasgd/internal/tensor"
)

// Conv2D is a 2-D convolution over (N, C, H, W) inputs, implemented by
// im2col lowering followed by a matrix multiplication, the same strategy
// Torch's SpatialConvolutionMM (the paper's substrate) uses — except that
// both GEMMs that read the lowered image, the forward product and the
// weight gradient, pack their B panels straight from the image, so the
// column matrix is never materialized at the packed tier. The weight
// tensor has shape (K, C, KH, KW) and the bias shape (K).
//
// Both passes are batch-parallel: samples are sharded across the worker
// pool (each shard using the serial slice kernels on disjoint slices of
// the batch), and the cross-sample weight-gradient reduction is sharded
// over output channels with samples accumulated in index order, so the
// results are bitwise identical to the serial loops at any worker count.
// At batch size 1 there is no sample parallelism and the layer instead
// leans on the row-parallel tensor kernels.
type Conv2D struct {
	InC, OutC int
	Geom      tensor.ConvGeom
	w, b      *Param

	firstMark // a network's layer 0: Backward skips the input gradient

	// retained between a training Forward and Backward
	x *tensor.Tensor
	// dwTile (OutC × kr, grown once) is where a packed-tier weight-gradient
	// product of one sample lands before it is added to dW; each row shard
	// of the reduction uses its own rows of it.
	dwTile []float64
}

// colScratch recycles column-matrix buffers across calls and layers: the
// column gradients of Conv2D.Backward, one per worker shard for the
// duration of its samples, and the unfolded input of a TemporalConv
// inference pass.
var colScratch sync.Pool

func getColBuf(size int) []float64 {
	if v := colScratch.Get(); v != nil {
		if buf := *(v.(*[]float64)); cap(buf) >= size {
			return buf[:size]
		}
	}
	return make([]float64, size)
}

func putColBuf(buf []float64) {
	colScratch.Put(&buf)
}

// NewConv2D returns a convolution with nkern output feature maps over
// nfeat input maps, a kh×kw kernel, stride 1 and no padding — the
// configuration of every convolutional layer in Tables I and II.
func NewConv2D(rng *rand.Rand, nfeat, nkern, kh, kw int) *Conv2D {
	return NewConv2DGeom(rng, nfeat, nkern, tensor.ConvGeom{KH: kh, KW: kw, SH: 1, SW: 1})
}

// NewConv2DGeom returns a convolution with explicit geometry.
func NewConv2DGeom(rng *rand.Rand, nfeat, nkern int, g tensor.ConvGeom) *Conv2D {
	if nfeat <= 0 || nkern <= 0 {
		panic(fmt.Sprintf("nn: NewConv2D(%d, %d): channel counts must be positive", nfeat, nkern))
	}
	c := &Conv2D{
		InC:  nfeat,
		OutC: nkern,
		Geom: g,
		w:    newParam(fmt.Sprintf("conv%dx%dx%dx%d.w", nfeat, nkern, g.KH, g.KW), nkern, nfeat, g.KH, g.KW),
		b:    newParam(fmt.Sprintf("conv%dx%dx%dx%d.b", nfeat, nkern, g.KH, g.KW), nkern),
	}
	fanIn := nfeat * g.KH * g.KW
	initFanIn(rng, c.w.Value, fanIn)
	initFanIn(rng, c.b.Value, fanIn)
	return c
}

// Name implements Layer.
func (c *Conv2D) Name() string {
	return fmt.Sprintf("Conv2D (%d,%d,%d,%d)", c.InC, c.OutC, c.Geom.KH, c.Geom.KW)
}

// Params implements Layer.
func (c *Conv2D) Params() []*Param { return []*Param{c.w, c.b} }

// OutShape implements Layer.
func (c *Conv2D) OutShape(in []int) []int {
	if len(in) != 3 || in[0] != c.InC {
		panic(fmt.Sprintf("nn: %s applied to per-sample shape %v", c.Name(), in))
	}
	oh, ow := c.Geom.OutSize(in[1], in[2])
	return []int{c.OutC, oh, ow}
}

// sampleGrain groups samples into shards carrying enough multiply-adds
// to amortize dispatch, mirroring the tensor kernels' threshold.
func sampleGrain(flopsPerSample int) int {
	const minShardFlops = 1 << 15
	if flopsPerSample <= 0 {
		return 1
	}
	g := minShardFlops / flopsPerSample
	if g < 1 {
		g = 1
	}
	return g
}

// Forward implements Layer.
func (c *Conv2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	return c.forward(x, train, tensor.ActNone)
}

// ForwardFused implements fusable: Forward with the following activation
// layer folded into the GEMM epilogue. Bitwise identical to Forward
// followed by the activation.
func (c *Conv2D) ForwardFused(x *tensor.Tensor, train bool, act tensor.EpilogueAct) *tensor.Tensor {
	return c.forward(x, train, act)
}

// forward runs the fused im2col-GEMM convolution: the fused kernels pack
// B panels straight out of the input image, so the column matrices are
// never materialized. Bias and activation ride along in the GEMM
// epilogue. The
// input is retained for Backward on training passes only: an inference
// pass must neither pin its batch in memory nor stand in for the
// Forward that Backward requires.
func (c *Conv2D) forward(x *tensor.Tensor, train bool, act tensor.EpilogueAct) *tensor.Tensor {
	if x.Dims() != 4 || x.Dim(1) != c.InC {
		panic(fmt.Sprintf("nn: %s forward input shape %v", c.Name(), x.Shape()))
	}
	n, h, w := x.Dim(0), x.Dim(2), x.Dim(3)
	oh, ow := c.Geom.OutSize(h, w)
	kr := c.InC * c.Geom.KH * c.Geom.KW
	p := oh * ow
	out := tensor.New(n, c.OutC, oh, ow)
	if train {
		c.x = x
	}
	wm := c.w.Value.Data
	bias := c.b.Value.Data
	perSample := c.InC * h * w
	outPer := c.OutC * p

	if n < parallel.Workers() {
		// Too few samples to occupy the pool: run samples in order and let
		// the column-parallel fused kernel split each per-sample GEMM over
		// output pixels. Column shards never change any element's
		// accumulation order, so both branches produce bitwise identical
		// output.
		for i := 0; i < n; i++ {
			tensor.ConvGemmBiasAct(out.Data[i*outPer:(i+1)*outPer], wm,
				x.Data[i*perSample:(i+1)*perSample], c.InC, h, w, c.Geom, c.OutC, bias, act)
		}
		return out
	}

	parallel.For(n, sampleGrain(c.OutC*p*kr), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			tensor.ConvGemmBiasActInto(out.Data[i*outPer:(i+1)*outPer], wm,
				x.Data[i*perSample:(i+1)*perSample], c.InC, h, w, c.Geom, c.OutC, bias, act)
		}
	})
	return out
}

// Backward implements Layer.
func (c *Conv2D) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	if c.x == nil {
		panic("nn: Conv2D.Backward before Forward")
	}
	x := c.x
	n, h, w := x.Dim(0), x.Dim(2), x.Dim(3)
	oh, ow := c.Geom.OutSize(h, w)
	if gradOut.Dims() != 4 || gradOut.Dim(0) != n || gradOut.Dim(1) != c.OutC || gradOut.Dim(2) != oh || gradOut.Dim(3) != ow {
		panic(fmt.Sprintf("nn: %s backward gradient shape %v", c.Name(), gradOut.Shape()))
	}
	kr := c.InC * c.Geom.KH * c.Geom.KW
	p := oh * ow
	perSample := c.InC * h * w
	outPer := c.OutC * p

	dw := c.w.Grad.Data
	db := c.b.Grad.Data
	c.w.Grad.Zero()
	c.b.Grad.Zero()
	if len(c.dwTile) < len(dw) {
		c.dwTile = make([]float64, len(dw))
	}

	// Input gradients, unless this is a first layer and nothing reads
	// them: per-sample dcols = Wᵀ·gout scattered back through col2im.
	// Samples are independent, so shard the batch; each shard reuses one
	// pooled column-gradient buffer for all its samples.
	var gradIn *tensor.Tensor
	if !c.first {
		gradIn = tensor.New(n, c.InC, h, w)
		if n < parallel.Workers() {
			wmat := c.w.Value.Reshape(c.OutC, kr)
			cg := getColBuf(kr * p)
			colGrad := tensor.FromSlice(cg, kr, p)
			for i := 0; i < n; i++ {
				gout := tensor.FromSlice(gradOut.Data[i*outPer:(i+1)*outPer], c.OutC, p)
				tensor.MatMulTransA(colGrad, wmat, gout)
				gin := tensor.FromSlice(gradIn.Data[i*perSample:(i+1)*perSample], c.InC, h, w)
				tensor.Col2Im(gin, colGrad, c.Geom)
			}
			putColBuf(cg)
		} else {
			parallel.For(n, sampleGrain(c.OutC*p*kr), func(lo, hi int) {
				cg := getColBuf(kr * p)
				for i := lo; i < hi; i++ {
					tensor.MatMulTransAInto(cg, c.w.Value.Data, gradOut.Data[i*outPer:(i+1)*outPer], c.OutC, kr, p)
					tensor.Col2ImInto(gradIn.Data[i*perSample:(i+1)*perSample], cg, c.InC, h, w, c.Geom)
				}
				putColBuf(cg)
			})
		}
	}

	// Weight and bias gradients: dW += gout·colsᵀ (cols the sample's im2col
	// matrix, which ConvGradWeightRows reads off the image) and db += row
	// sums, accumulated across the batch. The reduction is sharded over output
	// channels — each shard owns rows [lo, hi) of dW and db — with the
	// sample loop kept in index order inside the shard, so every element
	// accumulates in exactly the serial order.
	parallel.For(c.OutC, sampleGrain(n*kr*p), func(lo, hi int) {
		for i := 0; i < n; i++ {
			gout := gradOut.Data[i*outPer : (i+1)*outPer]
			for r := lo; r < hi; r++ {
				s := 0.0
				for _, g := range gout[r*p : (r+1)*p] {
					s += g
				}
				db[r] += s
			}
			tensor.ConvGradWeightRows(dw, gout, x.Data[i*perSample:(i+1)*perSample], c.InC, h, w, c.Geom, lo, hi, c.dwTile)
		}
	})
	c.x = nil
	return gradIn
}
