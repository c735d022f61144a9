package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"sasgd/internal/parallel"
	"sasgd/internal/tensor"
)

// refDot is the per-weight reduction Conv2D.Backward used to call
// (tensor.Dot): one ascending add chain, or four interleaved partial
// sums under FastKernels.
func refDot(a, b []float64, fast bool) float64 {
	if !fast {
		s := 0.0
		for i, v := range a {
			s += v * b[i]
		}
		return s
	}
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+4 <= len(a); i += 4 {
		s0 += a[i] * b[i]
		s1 += a[i+1] * b[i+1]
		s2 += a[i+2] * b[i+2]
		s3 += a[i+3] * b[i+3]
	}
	for ; i < len(a); i++ {
		s0 += a[i] * b[i]
	}
	return (s0 + s1) + (s2 + s3)
}

// refConv2DBackward is the reference the differential test holds
// Conv2D.Backward to: the loops it ran before its weight gradient moved
// onto the interleaved-chain kernel, serial and in index order — per
// sample im2col, dcols = Wᵀ·gout through col2im, then per output channel
// the bias row sum and one dot product per weight.
func refConv2DBackward(c *Conv2D, x, gradOut *tensor.Tensor, fast bool) (dw, db, gradIn []float64) {
	n, h, w := x.Dim(0), x.Dim(2), x.Dim(3)
	oh, ow := c.Geom.OutSize(h, w)
	kr := c.InC * c.Geom.KH * c.Geom.KW
	p := oh * ow
	perSample := c.InC * h * w
	outPer := c.OutC * p
	dw = make([]float64, c.OutC*kr)
	db = make([]float64, c.OutC)
	gradIn = make([]float64, n*perSample)
	cols := make([]float64, kr*p)
	cg := make([]float64, kr*p)
	for i := 0; i < n; i++ {
		gout := gradOut.Data[i*outPer : (i+1)*outPer]
		tensor.Im2ColInto(cols, x.Data[i*perSample:(i+1)*perSample], c.InC, h, w, c.Geom)
		tensor.MatMulTransAInto(cg, c.w.Value.Data, gout, c.OutC, kr, p)
		tensor.Col2ImInto(gradIn[i*perSample:(i+1)*perSample], cg, c.InC, h, w, c.Geom)
		for r := 0; r < c.OutC; r++ {
			gr := gout[r*p : (r+1)*p]
			s := 0.0
			for _, g := range gr {
				s += g
			}
			db[r] += s
			for ci := 0; ci < kr; ci++ {
				dw[r*kr+ci] += refDot(gr, cols[ci*p:(ci+1)*p], fast)
			}
		}
	}
	return dw, db, gradIn
}

// fillAwkward fills t with standard normals, every seventh element
// replaced by one of ±0 and positive/negative denormals, so that sign of
// zero and gradual underflow take part in every reduction.
func fillAwkward(t *tensor.Tensor, rng *rand.Rand) {
	special := []float64{0, math.Copysign(0, -1), 5e-324, -3e-310, 2e-308}
	t.FillRandn(rng, 0, 1)
	for i := rng.Intn(7); i < len(t.Data); i += 7 {
		t.Data[i] = special[rng.Intn(len(special))]
	}
}

func sameBits(t *testing.T, label, name string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %s has %d elements, want %d", label, name, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: %s[%d] = %x (%g), reference %x (%g)", label, name, i,
				math.Float64bits(got[i]), got[i], math.Float64bits(want[i]), want[i])
		}
	}
}

// TestConv2DBackwardDifferential holds Conv2D.Backward bitwise to the
// reference loops over the GEMM shapes the weight gradient lowers to —
// p output pixels (the dot length) × kr patch elements (the kernel's
// column count: below 8 is its single-chain tail, 12 and 27 end in a
// partial block of eight) — at odd channel counts (uneven row shards),
// batches on both sides of the worker count, 1–4 workers and both
// FastKernels settings.
func TestConv2DBackwardDifferential(t *testing.T) {
	outSides := []int{1, 2, 5, 14}                                              // p = 1, 4, 25, 196
	patches := []struct{ inC, k int }{{1, 2}, {3, 2}, {3, 3}, {32, 2}, {16, 3}} // kr = 4, 12, 27, 128, 144
	for _, fast := range []bool{false, true} {
		prev := tensor.SetFastKernels(fast)
		for _, side := range outSides {
			for _, pt := range patches {
				for workers := 1; workers <= 4; workers++ {
					for _, batch := range []int{1, 5} {
						outC := 3 + 2*(workers%2) // 5 or 3
						label := fmt.Sprintf("fast=%v p=%d kr=%d outC=%d workers=%d batch=%d",
							fast, side*side, pt.inC*pt.k*pt.k, outC, workers, batch)
						rng := rand.New(rand.NewSource(int64(side*1000 + pt.inC*10 + pt.k)))
						c := NewConv2D(rng, pt.inC, outC, pt.k, pt.k)
						x := tensor.New(batch, pt.inC, side+pt.k-1, side+pt.k-1)
						g := tensor.New(batch, outC, side, side)
						fillAwkward(x, rng)
						fillAwkward(g, rng)
						wantDw, wantDb, wantIn := refConv2DBackward(c, x, g, fast)

						restore := parallel.SetWorkers(workers)
						c.Forward(x, true)
						gradIn := c.Backward(g)
						parallel.SetWorkers(restore)

						sameBits(t, label, "dW", c.w.Grad.Data, wantDw)
						sameBits(t, label, "db", c.b.Grad.Data, wantDb)
						sameBits(t, label, "gradIn", gradIn.Data, wantIn)
					}
				}
			}
		}
		tensor.SetFastKernels(prev)
	}
}

// TestFirstLayerSkipsInputGradient checks the three GEMM layers in both
// positions: as a network's layer 0 Backward returns nil and leaves the
// parameter gradients bitwise those of an unmarked twin; deeper in the
// stack the input gradient is still returned, bitwise the twin's.
func TestFirstLayerSkipsInputGradient(t *testing.T) {
	cases := []struct {
		name    string
		mk      func() Layer
		inShape []int // per sample
	}{
		{"Conv2D", func() Layer { return NewConv2D(rand.New(rand.NewSource(3)), 2, 3, 3, 3) }, []int{2, 6, 6}},
		{"TemporalConv", func() Layer { return NewTemporalConv(rand.New(rand.NewSource(4)), 5, 4, 2) }, []int{4, 5}},
		{"Linear", func() Layer { return NewLinear(rand.New(rand.NewSource(5)), 7, 4) }, []int{7}},
	}
	for _, tc := range cases {
		for _, batch := range []int{1, 3} {
			rng := rand.New(rand.NewSource(11))
			x := tensor.New(append([]int{batch}, tc.inShape...)...)
			fillAwkward(x, rng)
			run := func(l Layer) (gradIn *tensor.Tensor, grads [][]float64) {
				g := tensor.New(l.Forward(x, true).Shape()...)
				fillAwkward(g, rand.New(rand.NewSource(12)))
				gradIn = l.Backward(g)
				for _, p := range l.Params() {
					grads = append(grads, append([]float64(nil), p.Grad.Data...))
				}
				return gradIn, grads
			}
			wantIn, wantGrads := run(tc.mk())

			first, deeper := tc.mk(), tc.mk()
			NewNetwork(tc.inShape, first, NewFlatten())
			NewNetwork(tc.inShape, NewReLU(), deeper, NewFlatten())
			for pos, l := range []Layer{first, deeper} {
				label := fmt.Sprintf("%s batch=%d position %d", tc.name, batch, pos)
				gradIn, grads := run(l)
				for i := range wantGrads {
					sameBits(t, label, l.Params()[i].Name, grads[i], wantGrads[i])
				}
				if pos == 0 {
					if gradIn != nil {
						t.Errorf("%s: first layer returned an input gradient of shape %v, want nil", label, gradIn.Shape())
					}
					continue
				}
				if gradIn == nil {
					t.Fatalf("%s: input gradient is nil", label)
				}
				sameBits(t, label, "gradIn", gradIn.Data, wantIn.Data)
			}
		}
	}
}

// TestConv2DInferenceForwardRetainsNothing: an inference pass through any
// of the three GEMM layers (the test is named after the first one fixed)
// must not keep its batch, or a copy of it, reachable from the layer, nor
// arm Backward; and between a training Forward and its Backward it must
// leave the retained state alone.
func TestConv2DInferenceForwardRetainsNothing(t *testing.T) {
	cases := []struct {
		name     string
		layer    Layer
		x        *tensor.Tensor
		retained func(l Layer) bool
	}{
		{"Conv2D", NewConv2D(rand.New(rand.NewSource(1)), 2, 3, 3, 3), benchInput(2, 2, 5, 5),
			func(l Layer) bool { return l.(*Conv2D).x != nil }},
		{"TemporalConv", NewTemporalConv(rand.New(rand.NewSource(1)), 5, 4, 2), benchInput(2, 4, 5),
			func(l Layer) bool { return l.(*TemporalConv).x != nil || l.(*TemporalConv).cols != nil }},
		{"Linear", NewLinear(rand.New(rand.NewSource(1)), 7, 4), benchInput(2, 7),
			func(l Layer) bool { return l.(*Linear).x != nil }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			l := tc.layer
			g := benchInput(l.Forward(tc.x, false).Shape()...)
			if tc.retained(l) {
				t.Errorf("%s retains the input of an inference Forward", tc.name)
			}
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s: Backward after an inference Forward did not panic", tc.name)
					}
				}()
				l.Backward(g)
			}()

			// Training Forward, an inference Forward on other data in
			// between, then Backward: the gradients are the training batch's.
			l.Forward(tc.x, true)
			l.Backward(g)
			var want [][]float64
			for _, p := range l.Params() {
				want = append(want, append([]float64(nil), p.Grad.Data...))
			}
			other := tc.x.Clone()
			other.Scale(-3)
			l.Forward(tc.x, true)
			l.Forward(other, false)
			l.Backward(g)
			for i, p := range l.Params() {
				sameBits(t, tc.name+" after an interleaved inference pass", p.Name, p.Grad.Data, want[i])
			}
		})
	}
}

// TestSelectsMatchBranches holds the branch-free selects of
// MaxPool2D.Forward and ReLU.Backward to the branches they replaced, on
// values where a select could differ from a branch if it compared
// anything but the values themselves: ties (the first maximum wins, also
// between +0 and −0), NaN in and after the first position (it never
// displaces and is never displaced), infinities, denormals.
func TestSelectsMatchBranches(t *testing.T) {
	awkward := []float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1), 5e-324, -5e-324, 1, 1, -1, 2.5}
	rng := rand.New(rand.NewSource(31))
	const n, c, h, w = 3, 2, 6, 7 // 3×3 windows of a 2×3 pool: a ragged right edge is left out
	x := tensor.New(n, c, h, w)
	for i := range x.Data {
		x.Data[i] = awkward[rng.Intn(len(awkward))]
	}
	pool := NewMaxPool2D(2, 3)
	out := pool.Forward(x, true)
	oh, ow := h/2, w/3
	g := tensor.New(n, c, oh, ow)
	g.FillRandn(rng, 0, 1)
	gradIn := pool.Backward(g)
	wantIn := make([]float64, len(x.Data))
	oi := 0
	for i := 0; i < n*c; i++ {
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				bestIdx := i*h*w + oy*2*w + ox*3
				best := x.Data[bestIdx]
				for dy := 0; dy < 2; dy++ {
					for dx := 0; dx < 3; dx++ {
						idx := i*h*w + (oy*2+dy)*w + ox*3 + dx
						if v := x.Data[idx]; v > best {
							best, bestIdx = v, idx
						}
					}
				}
				if got := out.Data[oi]; math.Float64bits(got) != math.Float64bits(best) {
					t.Fatalf("MaxPool2D output %d is %x, the branch picks %x", oi, math.Float64bits(got), math.Float64bits(best))
				}
				wantIn[bestIdx] += g.Data[oi]
				oi++
			}
		}
	}
	sameBits(t, "MaxPool2D", "gradIn (argmax)", gradIn.Data, wantIn)

	relu := NewReLU()
	relu.Forward(x, true)
	gx := tensor.New(x.Shape()...)
	for i := range gx.Data {
		gx.Data[i] = awkward[rng.Intn(len(awkward))]
	}
	got := relu.Backward(gx)
	for i, v := range x.Data {
		want := 0.0
		if v > 0 {
			want = gx.Data[i]
		}
		if math.Float64bits(got.Data[i]) != math.Float64bits(want) && !(want != want && got.Data[i] != got.Data[i]) {
			t.Fatalf("ReLU.Backward[%d] (x=%g, g=%g) is %x, the branch gives %x", i, v, gx.Data[i],
				math.Float64bits(got.Data[i]), math.Float64bits(want))
		}
	}
}
