package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"sasgd/internal/parallel"
)

// The refGemm differential of skinny_test.go carried over to the packed
// engine (gemm.go): every entry point that reaches gemmPackedRange, bit
// for bit against one accumulator per element in ascending l order, on
// the spiked operands. The shape sweep reaches each path of the driver
// and of whatever microkernels sit under it: an even panel count and an
// odd one (panel pairs plus a single left over), n%4 of 1, 2 and 3 (the
// padded tail panel, after an even and after an odd count of full ones),
// an odd row count (the single-row edge, alone in its MC block at 67),
// and k at 1, 8 (the tier's floor), 25 and 27 (not multiples of any
// unroll), 144, and 257 and 300 (two KC slabs: the chain crosses a store
// and reload of C).

var (
	packedMs = []int{22, 67}
	packedNs = []int{64, 68, 65, 66, 67, 71}
	packedKs = []int{1, 8, 25, 27, 144, 257, 300}
)

func mustMatch(t *testing.T, label string, got, want []float64) {
	t.Helper()
	for i := range want {
		if !sameBits(got[i], want[i]) {
			t.Fatalf("%s: element %d is %x, reference %x", label, i,
				math.Float64bits(got[i]), math.Float64bits(want[i]))
		}
	}
}

func TestPackedEntryPointsBitwiseReference(t *testing.T) {
	defer parallel.SetWorkers(parallel.Workers())
	rng := rand.New(rand.NewSource(23))
	spikeLevels := []int{1, 2}
	if testing.Short() {
		spikeLevels = []int{1}
	}
	packed, shapes := 0, 0
	for _, m := range packedMs {
		for _, n := range packedNs {
			for _, k := range packedKs {
				shapes++
				if usePacked(m, k, n) {
					packed++
				}
				for _, spike := range spikeLevels {
					a, b := spiked(rng, m, k, spike), spiked(rng, k, n, spike)
					at, bt := Transpose2D(a), Transpose2D(b)
					seed := spiked(rng, m, n, spike)
					bias := spiked(rng, 1, n, spike).Data
					act := allActs[(shapes+spike)%len(allActs)]

					// The three contracts: C = Σ from +0; C = the chain seeded
					// with C; C = C + (Σ from +0).
					plain, seeded, dotFirst, fused := New(m, n), seed.Clone(), seed.Clone(), New(m, n)
					refGemm(plain.Data, a.Data, b.Data, m, k, n, false, false, false, false)
					refGemm(seeded.Data, a.Data, b.Data, m, k, n, false, false, true, false)
					for i, v := range plain.Data {
						dotFirst.Data[i] += v
						fused.Data[i] = v + bias[i%n]
					}
					applyActRef(fused.Data, act)
					// MatMulAccTransB seeds the chain at a packedShape
					// (documented on it) and adds the dot product once below.
					accTransB := dotFirst
					if packedShape(m, k, n) {
						accTransB = seeded
					}

					entries := []struct {
						name string
						want *Tensor
						run  func(dst *Tensor)
					}{
						{"MatMul", plain, func(dst *Tensor) { MatMul(dst, a, b) }},
						{"MatMulAcc", seeded, func(dst *Tensor) { MatMulAcc(dst, a, b) }},
						{"MatMulTransA", plain, func(dst *Tensor) { MatMulTransA(dst, at, b) }},
						{"MatMulTransB", plain, func(dst *Tensor) { MatMulTransB(dst, a, bt) }},
						{"MatMulAccTransB", accTransB, func(dst *Tensor) { MatMulAccTransB(dst, a, bt) }},
						// The caller-sharded form keeps c + Σ at every shape.
						{"MatMulAccTransBRows", dotFirst, func(dst *Tensor) { accTransBRowsHalves(dst, a, bt) }},
						{"LinearForward", fused, func(dst *Tensor) { LinearForward(dst, a, bt, bias, act) }},
					}
					for _, e := range entries {
						for w := 1; w <= 4; w++ {
							parallel.SetWorkers(w)
							got := seed.Clone()
							e.run(got)
							mustMatch(t, fmt.Sprintf("%s m=%d k=%d n=%d spike=%d workers=%d", e.name, m, k, n, spike, w),
								got.Data, e.want.Data)
						}
					}
				}
			}
		}
	}
	// k = 1 and the (22, 8, n) corner fall below the tier; everything else
	// in the sweep must be a packed shape or the test is not about the
	// packed engine any more.
	if packed < shapes*3/4 {
		t.Fatalf("only %d of %d shapes reach the packed tier", packed, shapes)
	}
}

// TestPackedConvBitwiseReference: the fused conv forward, serial and
// column-parallel, against im2col + refGemm + bias + activation. It packs
// whatever the shape, so k = 1 reaches the engine here; p = oh·ow walks
// the same panel cases as the sweep above, and padded geometries put
// packed zeros under spiked weights.
func TestPackedConvBitwiseReference(t *testing.T) {
	cases := []struct {
		c, h, w, outC int
		g             ConvGeom
	}{
		{1, 5, 5, 5, ConvGeom{KH: 1, KW: 1, SH: 1, SW: 1}},
		{1, 6, 6, 4, ConvGeom{KH: 1, KW: 1, SH: 1, SW: 1, PH: 1, PW: 1}},
		{2, 9, 10, 4, ConvGeom{KH: 2, KW: 2, SH: 1, SW: 1}},
		{1, 7, 10, 7, ConvGeom{KH: 5, KW: 5, SH: 1, SW: 1, PH: 2, PW: 2}},
		{3, 16, 16, 16, ConvGeom{KH: 3, KW: 3, SH: 1, SW: 1}}, // cifar_compute's first layer
		{3, 16, 16, 17, ConvGeom{KH: 3, KW: 3, SH: 1, SW: 1}},
		{16, 7, 7, 32, ConvGeom{KH: 3, KW: 3, SH: 1, SW: 1}}, // its second
		{32, 2, 2, 32, ConvGeom{KH: 2, KW: 2, SH: 1, SW: 1}}, // its third: one column, all pad lanes
		{257, 5, 6, 3, ConvGeom{KH: 1, KW: 1, SH: 2, SW: 2}},
		{12, 5, 11, 9, ConvGeom{KH: 5, KW: 5, SH: 1, SW: 1, PH: 1, PW: 1}},
		{2, 12, 9, 5, ConvGeom{KH: 2, KW: 5, SH: 2, SW: 1, PH: 0, PW: 2}},
		{3, 5, 5, 4, ConvGeom{KH: 7, KW: 7, SH: 1, SW: 1, PH: 3, PW: 3}},   // kernel wider than the image
		{4, 3, 3, 129, ConvGeom{KH: 3, KW: 3, SH: 1, SW: 1, PH: 1, PW: 1}}, // three MC blocks, the last a lone edge row
		{8, 4, 6, 4, ConvGeom{KH: 2, KW: 2, SH: 2, SW: 2}},
		{8, 6, 10, 1, ConvGeom{KH: 2, KW: 2, SH: 2, SW: 2}},
	}
	defer parallel.SetWorkers(parallel.Workers())
	for ci, tc := range cases {
		for spike := 1; spike <= 2; spike++ {
			rng := rand.New(rand.NewSource(int64(1000*spike + ci)))
			k := tc.c * tc.g.KH * tc.g.KW
			oh, ow := tc.g.OutSize(tc.h, tc.w)
			p := oh * ow
			img := spiked(rng, tc.c, tc.h*tc.w, spike)
			wmat := spiked(rng, tc.outC, k, spike)
			bias := spiked(rng, 1, tc.outC, spike).Data
			act := allActs[(ci+spike)%len(allActs)]

			cols := make([]float64, k*p)
			Im2ColInto(cols, img.Data, tc.c, tc.h, tc.w, tc.g)
			want := make([]float64, tc.outC*p)
			refGemm(want, wmat.Data, cols, tc.outC, k, p, false, false, false, false)
			for i := range want {
				want[i] += bias[i/p]
			}
			applyActRef(want, act)

			label := fmt.Sprintf("case %d (k=%d p=%d outC=%d) spike=%d act=%d", ci, k, p, tc.outC, spike, act)
			got := make([]float64, tc.outC*p)
			for w := 1; w <= 4; w++ {
				parallel.SetWorkers(w)
				for i := range got {
					got[i] = math.NaN() // dst is overwritten, never read
				}
				ConvGemmBiasActInto(got, wmat.Data, img.Data, tc.c, tc.h, tc.w, tc.g, tc.outC, bias, act)
				mustMatch(t, fmt.Sprintf("ConvGemmBiasActInto %s workers=%d", label, w), got, want)
				for i := range got {
					got[i] = math.NaN()
				}
				ConvGemmBiasAct(got, wmat.Data, img.Data, tc.c, tc.h, tc.w, tc.g, tc.outC, bias, act)
				mustMatch(t, fmt.Sprintf("ConvGemmBiasAct %s workers=%d", label, w), got, want)
			}
		}
	}
}
