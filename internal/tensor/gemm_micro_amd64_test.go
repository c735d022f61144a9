//go:build amd64 && !purego && !amd64.v3

// Not built under GOAMD64=v3: there the compiler fuses the multiply-adds
// of the Go kernels, the assembly (by construction) does not, and the two
// legitimately differ — as do the golden pins, which were captured on the
// default GOAMD64=v1.

package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// guardBits fills the words around every operand of the kernel
// differential. It is a NaN, so a step that read past a panel would
// poison the tile; its payload lets a stray store be told from an
// untouched word.
const guardBits = 0x7ff8_5a5a_c3c3_0f0f

// guarded is a copy of an operand at word offset off of a fresh buffer —
// odd offsets make it 8- but not 32-byte aligned — with guard words
// before and after.
type guarded struct {
	buf    []float64
	off, n int
}

func guard(data []float64, off int) guarded {
	g := guarded{make([]float64, off+len(data)+5), off, len(data)}
	for i := range g.buf {
		g.buf[i] = math.Float64frombits(guardBits)
	}
	copy(g.buf[off:], data)
	return g
}

func (g guarded) view() []float64 { return g.buf[g.off : g.off+g.n : g.off+g.n] }

func (g guarded) intact() bool {
	for i, v := range g.buf {
		if (i < g.off || i >= g.off+g.n) && math.Float64bits(v) != guardBits {
			return false
		}
	}
	return true
}

func init() {
	if useAVX2 {
		microBench = append(microBench, microBenchKernel{"avx2", micro2x8AVX2})
		kernelSets = append(kernelSets, "avx2")
		selectKernels = func(set string) func() {
			if set == "go" {
				foldRows4, foldRow, useAVX2 = foldRows4Go, foldRowGo, false
			}
			return func() { foldRows4, foldRow, useAVX2 = foldRows4AVX2, foldRowAVX2, true }
		}
	}
}

// TestAVX2MicrokernelsMatchGo calls each assembly kernel and the Go
// kernel it replaces on the same operands, in one binary, with nothing
// switched in between, and wants the same bits: every step count from 0
// to 260 (every remainder of the unrolled loops, past one KC slab),
// operands of unequal extent (the shortest sets the trip count; what
// lies beyond it is real data that must not be used, then guard NaNs),
// unaligned tiles and panels, spiked values, and the guard words around
// all of them untouched.
func TestAVX2MicrokernelsMatchGo(t *testing.T) {
	if !useAVX2 {
		t.Skip("this CPU (or the OS's XCR0) has no AVX2: the assembly kernels are never selected here")
	}
	// c holds the tile rows, b the panels; a kernel uses as many of each
	// as it has.
	type operands struct {
		c, b [2]guarded
		a    guarded
	}
	c4 := func(g guarded) *[4]float64 { return (*[4]float64)(g.view()) }
	c8 := func(g guarded) *[8]float64 { return (*[8]float64)(g.view()) }
	kernels := []struct {
		name         string
		rows, panels int
		goKern, asm  func(o operands)
	}{
		{"2x8", 2, 2,
			func(o operands) { micro2x8Go(c8(o.c[0]), c8(o.c[1]), o.a.view(), o.b[0].view(), o.b[1].view()) },
			func(o operands) { micro2x8AVX2(c8(o.c[0]), c8(o.c[1]), o.a.view(), o.b[0].view(), o.b[1].view()) }},
		{"2x4", 2, 1,
			func(o operands) { micro2x4(c4(o.c[0]), c4(o.c[1]), o.a.view(), o.b[0].view()) },
			func(o operands) { micro2x4AVX2(c4(o.c[0]), c4(o.c[1]), o.a.view(), o.b[0].view()) }},
		{"1x8", 1, 2,
			func(o operands) {
				c := o.c[0].view()
				micro1x4((*[4]float64)(c[:4]), o.a.view(), o.b[0].view())
				micro1x4((*[4]float64)(c[4:]), o.a.view(), o.b[1].view())
			},
			func(o operands) { micro1x8AVX2(c8(o.c[0]), o.a.view(), o.b[0].view(), o.b[1].view()) }},
		{"1x4", 1, 1,
			func(o operands) { micro1x4(c4(o.c[0]), o.a.view(), o.b[0].view()) },
			func(o operands) { micro1x4AVX2(c4(o.c[0]), o.a.view(), o.b[0].view()) }},
	}
	// Steps of A, of the first panel and of the second beyond the count
	// under test. In the last variant the second panel is the shortest;
	// the Go side of a two-panel kernel is two calls with a trip count
	// each, so there its other operands are cut to the common count.
	variants := []struct{ a, b0, b1 int }{{0, 0, 0}, {3, 0, 0}, {0, 2, 2}, {1, 2, 0}}
	rng := rand.New(rand.NewSource(29))
	for _, kern := range kernels {
		for steps := 0; steps <= 260; steps++ {
			for spike := 0; spike < 3; spike++ {
				for vi, v := range variants {
					label := fmt.Sprintf("%s steps=%d spike=%d variant=%d", kern.name, steps, spike, vi)
					cData := spiked(rng, kern.rows, gemmNR*kern.panels, spike).Data
					aData := spiked(rng, steps+v.a, kern.rows, spike).Data
					bData := [2][]float64{spiked(rng, steps+v.b0, gemmNR, spike).Data, spiked(rng, steps+v.b1, gemmNR, spike).Data}
					build := func(cut bool) (o operands) {
						width := gemmNR * kern.panels
						for r := 0; r < kern.rows; r++ {
							o.c[r] = guard(cData[r*width:(r+1)*width], 1+2*r)
						}
						a, b0 := aData, bData[0]
						if cut && kern.panels == 2 {
							a, b0 = a[:steps*kern.rows], b0[:steps*gemmNR]
						}
						o.a, o.b[0], o.b[1] = guard(a, 3), guard(b0, 1), guard(bData[1], 3)
						return o
					}
					ref, got := build(vi == 3), build(false)
					kern.goKern(ref)
					kern.asm(got)
					for r := 0; r < kern.rows; r++ {
						mustMatch(t, fmt.Sprintf("%s row %d", label, r), got.c[r].view(), ref.c[r].view())
					}
					for _, g := range []guarded{got.c[0], got.c[1], got.a, got.b[0], got.b[1]} {
						if g.buf != nil && !g.intact() {
							t.Fatalf("%s: the assembly kernel wrote outside an operand", label)
						}
					}
				}
			}
		}
	}
}

// payloadSpiked is spiked with, at spike 2, NaNs of both signs, quiet and
// signalling, with payloads.
func payloadSpiked(rng *rand.Rand, rows, cols, spike int) []float64 {
	payloads := []uint64{0x7ff8_0000_0000_0bad, 0xfff8_dead_beef_0001, 0x7ff0_0000_0000_0001, 0xfff0_0000_0012_3400}
	v := spiked(rng, rows, cols, spike).Data
	for i := range v {
		if spike == 2 && rng.Intn(16) == 0 {
			v[i] = math.Float64frombits(payloads[rng.Intn(len(payloads))])
		}
	}
	return v
}

// TestAVX2FoldsMatchGo holds the row-fold assembly to foldRows4Go and
// foldRowGo the same way: every length up to two vector steps plus a
// tail and two layer widths, store and accumulate, rows longer than c
// (what lies past len(c) is real data that must not be used), unaligned
// operands, spiked values — ±0, denormals, ±Inf and NaNs with payloads
// of both signs, quiet and signalling — and the guard words around all
// of them untouched.
func TestAVX2FoldsMatchGo(t *testing.T) {
	if !useAVX2 {
		t.Skip("this CPU (or the OS's XCR0) has no AVX2: the assembly kernels are never selected here")
	}
	rng := rand.New(rand.NewSource(31))
	operand := func(rows, cols, spike int) []float64 { return payloadSpiked(rng, rows, cols, spike) }
	for _, rows := range []int{1, 4} {
		for _, n := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 311, 320} {
			for spike := 0; spike < 3; spike++ {
				for _, store := range []bool{false, true} {
					label := fmt.Sprintf("rows=%d n=%d spike=%d store=%v", rows, n, spike, store)
					cData, bData, a := operand(1, n, spike), operand(rows, n+3, spike), operand(1, 4, spike)
					build := func() (ops []guarded, v [5][]float64) {
						ops = append(ops, guard(cData, 1))
						for r := 0; r < rows; r++ {
							ops = append(ops, guard(bData[r*(n+3):(r+1)*(n+3)], 2*r+1))
						}
						for i, g := range ops {
							v[i] = g.view()
						}
						return ops, v
					}
					_, rv := build()
					got, gv := build()
					if rows == 4 {
						foldRows4Go(rv[0], rv[1], rv[2], rv[3], rv[4], a[0], a[1], a[2], a[3], store)
						foldRows4AVX2(gv[0], gv[1], gv[2], gv[3], gv[4], a[0], a[1], a[2], a[3], store)
					} else {
						foldRowGo(rv[0], rv[1], a[0], store)
						foldRowAVX2(gv[0], gv[1], a[0], store)
					}
					mustMatch(t, label, gv[0], rv[0])
					for _, g := range got {
						if !g.intact() {
							t.Fatalf("%s: the assembly kernel wrote outside an operand", label)
						}
					}
				}
			}
		}
	}
}

// TestAVX2Dot8MatchesGo holds the M = 1 forward kernel's assembly to
// dot8Go the same way: every k that ends the pair loop with and without
// the odd step, up to past a layer width, spiked values as the folds
// get them, a b longer than its eight rows (what lies past them is real
// data that must not be used), unaligned operands and untouched guard
// words. A b shorter than eight rows panics through dot8, as dot8Go
// panics on it.
func TestAVX2Dot8MatchesGo(t *testing.T) {
	if !useAVX2 {
		t.Skip("this CPU (or the OS's XCR0) has no AVX2: the assembly kernels are never selected here")
	}
	rng := rand.New(rand.NewSource(37))
	for _, k := range []int{0, 1, 2, 3, 7, 8, 100, 199, 200, 320, 321} {
		for spike := 0; spike < 3; spike++ {
			for _, extra := range []int{0, 5} {
				label := fmt.Sprintf("k=%d spike=%d extra=%d", k, spike, extra)
				a, b := guard(payloadSpiked(rng, 1, k, spike), 1), guard(payloadSpiked(rng, 1, 8*k+extra, spike), 3)
				var want [8]float64
				dot8Go(&want, a.view(), b.view())
				got := guard(make([]float64, 8), 1)
				dot8AVX2((*[8]float64)(got.view()), a.view(), b.view())
				mustMatch(t, label, got.view(), want[:])
				for _, g := range []guarded{a, b, got} {
					if !g.intact() {
						t.Fatalf("%s: the assembly kernel wrote outside an operand", label)
					}
				}
			}
		}
	}
	for _, k := range []int{1, 8, 321} {
		a, short := make([]float64, k), make([]float64, 8*k-1)
		for name, kern := range map[string]func(*[8]float64, []float64, []float64){"dot8": dot8, "dot8Go": dot8Go} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s with k=%d and %d words of b did not panic", name, k, len(short))
					}
				}()
				var s [8]float64
				kern(&s, a, short)
			}()
		}
	}
}
