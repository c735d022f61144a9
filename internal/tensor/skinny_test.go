package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"sasgd/internal/parallel"
)

// Differentials for the interleaved-chain kernels (gemm_skinny.go) and
// the fused update kernels (tensor.go): each entry point against the
// plainest loop that states its contract — one accumulator per output,
// products added in ascending l order — bit for bit, over the skinny
// shapes the kernels were written for, with the operands that expose a
// reordered, skipped or re-seeded add: ±0, ±Inf, NaN, denormals.

// sameBits is bitwise equality with every NaN equal to every other: which
// operand's payload a two-NaN multiply or add keeps is the instruction
// selector's choice, not the kernel's.
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (a != a && b != b)
}

var spikes = []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
	math.SmallestNonzeroFloat64, -3 * math.SmallestNonzeroFloat64, 1e-310, 1e150, -1e150}

// spiked fills a rows×cols matrix with N(0,1) values. spike 1 replaces
// about one element in eight with a zero, a denormal or a huge value of
// either sign — every product and sum stays a number, so a result can
// differ from the reference only by a reordered or re-seeded chain —
// and spike 2 adds ±Inf and NaN, which turn most outputs into NaN but
// catch a multiply that was skipped.
func spiked(rng *rand.Rand, rows, cols, spike int) *Tensor {
	t := New(rows, cols)
	t.FillRandn(rng, 0, 1)
	for i := range t.Data {
		if spike > 0 && rng.Intn(8) == 0 {
			v := spikes[rng.Intn(len(spikes))]
			for spike == 1 && (v != v || math.IsInf(v, 0)) {
				v = spikes[rng.Intn(len(spikes))]
			}
			t.Data[i] = v
		}
	}
	return t
}

// refGemm is C = (seed) + Σ_l A[i,l]·B[l,j] with one accumulator per
// element in ascending l order. at and bt read the operand transposed.
// dotFirst forms the sum from zero and adds it to the seed once (the
// A·Bᵀ contract); otherwise the seed starts the chain.
func refGemm(c, a, b []float64, m, k, n int, at, bt, acc, dotFirst bool) {
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			s := 0.0
			if acc && !dotFirst {
				s = c[i*n+j]
			}
			for l := 0; l < k; l++ {
				av := a[i*k+l]
				if at {
					av = a[l*m+i]
				}
				bv := b[l*n+j]
				if bt {
					bv = b[j*k+l]
				}
				s += av * bv
			}
			if acc && dotFirst {
				s = c[i*n+j] + s
			}
			c[i*n+j] = s
		}
	}
}

// accTransBRowsHalves is MatMulAccTransBRows, the caller-sharded form, as
// two row shards.
func accTransBRowsHalves(dst, a, b *Tensor) {
	m, k, n := a.shape[0], a.shape[1], b.shape[0]
	tile := make([]float64, m*n)
	MatMulAccTransBRows(dst.Data, a.Data, b.Data, k, n, 0, m/2, tile)
	MatMulAccTransBRows(dst.Data, a.Data, b.Data, k, n, m/2, m, tile)
}

func TestSkinnyKernelsBitwiseReference(t *testing.T) {
	ms := []int{1, 2, 3, 7}
	ns := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 311, 320}
	ks := []int{0, 1, 2, 7, 100, 320}
	type entry struct {
		name             string
		at, bt, acc, dot bool
		run              func(dst, a, b *Tensor)
	}
	entries := []entry{
		{"MatMul", false, false, false, false, MatMul},
		{"MatMulAcc", false, false, true, false, MatMulAcc},
		{"MatMulTransA", true, false, false, false, MatMulTransA},
		{"MatMulTransB", false, true, false, true, MatMulTransB},
		{"MatMulAccTransB", false, true, true, true, MatMulAccTransB},
		{"MatMulAccTransBRows", false, true, true, true, accTransBRowsHalves},
	}
	defer parallel.SetWorkers(parallel.Workers())
	rng := rand.New(rand.NewSource(19))
	for _, m := range ms {
		for _, n := range ns {
			for _, k := range ks {
				for spike := 0; spike < 3; spike++ {
					for _, e := range entries {
						if e.name == "MatMulAccTransB" && packedShape(m, k, n) {
							continue // its packed tier seeds the chain with C (documented)
						}
						ar, ac := m, k
						if e.at {
							ar, ac = k, m
						}
						br, bc := k, n
						if e.bt {
							br, bc = n, k
						}
						a, b := spiked(rng, ar, ac, spike), spiked(rng, br, bc, spike)
						seed := spiked(rng, m, n, spike)
						want := seed.Clone()
						refGemm(want.Data, a.Data, b.Data, m, k, n, e.at, e.bt, e.acc, e.dot)
						for _, w := range []int{1, 2, 4} {
							parallel.SetWorkers(w)
							got := seed.Clone()
							e.run(got, a, b)
							for i := range want.Data {
								if !sameBits(got.Data[i], want.Data[i]) {
									t.Fatalf("%s m=%d k=%d n=%d spike=%d workers=%d: element %d is %x, reference %x",
										e.name, m, k, n, spike, w, i, math.Float64bits(got.Data[i]), math.Float64bits(want.Data[i]))
								}
							}
						}
					}
				}
			}
		}
	}
}

// TestSkinnyShapesLeavePackedTier pins the routing: a product with fewer
// than skinnyM rows never packs, and at skinnyM rows the threshold is
// where it was.
func TestSkinnyShapesLeavePackedTier(t *testing.T) {
	for m := 1; m < skinnyM; m++ {
		if usePacked(m, 200, 320) {
			t.Errorf("usePacked(%d, 200, 320): a %d-row product must stay on the skinny kernels", m, m)
		}
	}
	if !usePacked(skinnyM, 200, 320) || !packedShape(2, 200, 320) {
		t.Error("the packed tier lost shapes it should keep")
	}
}

// TestFusedUpdateKernelsMatchSequence: each fused flat-vector kernel
// against the Axpy / clear sequence it replaces, at a length that
// shards, with −0 gradients (0 + g must give the +0 that adding into a
// cleared sum gives) and a dirty sum on the first step.
func TestFusedUpdateKernelsMatchSequence(t *testing.T) {
	defer parallel.SetWorkers(parallel.Workers())
	n := 3*elemGrain + 17
	rng := rand.New(rand.NewSource(23))
	g := spiked(rng, 1, n, 2).Data
	g[0], g[1] = math.Copysign(0, -1), 0
	x0 := spiked(rng, 1, n, 1).Data
	dirty := spiked(rng, 1, n, 2).Data
	const a = -0.02

	check := func(what string, w int, got, want []float64) {
		t.Helper()
		for i := range want {
			if !sameBits(got[i], want[i]) {
				t.Fatalf("%s workers=%d: element %d is %x, sequence gives %x", what, w, i,
					math.Float64bits(got[i]), math.Float64bits(want[i]))
			}
		}
	}
	clone := func(s []float64) []float64 { return append([]float64(nil), s...) }
	for _, w := range []int{1, 2, 4} {
		parallel.SetWorkers(w)
		for _, first := range []bool{true, false} {
			wantX, wantSum := clone(x0), clone(dirty)
			if first {
				clear(wantSum)
			}
			Axpy(a, g, wantX)
			Axpy(1, g, wantSum)

			sum := clone(dirty)
			Accumulate(sum, g, first)
			check(fmt.Sprintf("Accumulate first=%v", first), w, sum, wantSum)

			x, sum := clone(x0), clone(dirty)
			AxpyAccumulate(a, g, x, sum, first)
			check(fmt.Sprintf("AxpyAccumulate first=%v (y)", first), w, x, wantX)
			check(fmt.Sprintf("AxpyAccumulate first=%v (sum)", first), w, sum, wantSum)
		}
		dst := make([]float64, n)
		Copy(dst, g)
		check("Copy", w, dst, g)
	}
	sum := []float64{7}
	Accumulate(sum, []float64{math.Copysign(0, -1)}, true)
	if math.Float64bits(sum[0]) != 0 {
		t.Fatalf("Accumulate(first) of −0 stored %x, want +0", math.Float64bits(sum[0]))
	}
}

// TestUpdatePathSteadyStateAllocs: under a budget of one worker — what a
// learner holds when there are as many learners as cores — the update
// kernels and the M=1 products take the closure-free serial branch and
// allocate nothing.
func TestUpdatePathSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; allocs/op is pinned in non-race builds")
	}
	defer parallel.SetWorkers(parallel.SetWorkers(1))
	n := 4 * elemGrain
	g, x, sum := make([]float64, n), make([]float64, n), make([]float64, n)
	act, w := New(1, 320), New(311, 320)
	out, dact, dw := New(1, 311), New(1, 320), New(311, 320)
	cases := []struct {
		name string
		fn   func()
	}{
		{"Axpy", func() { Axpy(-0.02, g, x) }},
		{"Copy", func() { Copy(x, g) }},
		{"Accumulate", func() { Accumulate(sum, g, true) }},
		{"AxpyAccumulate", func() { AxpyAccumulate(-0.02, g, x, sum, false) }},
		{"MatMulTransB m=1", func() { MatMulTransB(out, act, w) }},
		{"MatMul m=1", func() { MatMul(dact, out, w) }},
		{"MatMulTransA k=1", func() { MatMulTransA(dw, out, act) }},
		{"LinearForward m=1", func() { LinearForward(out, act, w, nil, ActTanh) }},
	}
	for _, tc := range cases {
		if allocs := testing.AllocsPerRun(10, tc.fn); allocs > 0 {
			t.Errorf("%s: %v allocs/op on the serial branch, want 0", tc.name, allocs)
		}
	}
}
