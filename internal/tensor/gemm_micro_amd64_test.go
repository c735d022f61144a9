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
