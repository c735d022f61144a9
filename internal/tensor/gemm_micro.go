package tensor

// The register-tiled microkernels of the packed GEMM engine, in Go. They
// are one of two kernel sets with one contract: gemm_micro_amd64.s holds
// the same kernels in AVX2 assembly, selected once at package init where
// the CPU and OS support them (gemm_micro_amd64.go), and these run
// everywhere else — other architectures, -tags purego, an amd64 without
// AVX2 — and are the reference the assembly is tested against, tile by
// tile and bit for bit (TestAVX2MicrokernelsMatchGo).
//
// Everything in this file is written in a bounds-check-free idiom the
// compiler can prove: loop conditions test len() of the packed operand
// slices directly, operand indices stay below the tested lengths, and C
// tiles arrive as array pointers. scripts/check.sh builds this package
// with -d=ssa/check_bce and fails if a bounds check ever reappears here,
// so keep new code to the same idiom.
//
// Determinism contract, for both sets: every C element owns one
// accumulator, seeded from the C tile, and receives its products in
// strictly ascending l order, each product rounded and then the sum
// rounded — min(len(ap)/rows, len(bp)/4) of them. More speed comes only
// from more CHAINS side by side: the Go kernels unroll l to keep eight
// scalar chains issuing, the assembly puts the four columns of a panel in
// the four lanes of a register and runs two panels at once. A lane is an
// element, never a term of some element's sum; no chain is split,
// reordered or fused (the default GOAMD64=v1 compiler emits no FMA for
// the Go kernels, and the assembly contains none — under GOAMD64=v3 the
// compiler would fuse these loops and the two sets would part). So,
// together with ascending KC blocks in the driver, either set is bitwise
// identical to the serial ikj loop at any blocking and any worker count,
// and to the other.

// micro2x4 computes a 2×4 tile: c[r][j] += Σ_l ap[l*2+r] * bp[l*4+j],
// with l unrolled by four. ap is an A pair-panel (2 rows, l-major), bp a
// B column panel (4 columns, l-major); both must have the same l extent.
func micro2x4(c0, c1 *[4]float64, ap, bp []float64) {
	c00, c01, c02, c03 := c0[0], c0[1], c0[2], c0[3]
	c10, c11, c12, c13 := c1[0], c1[1], c1[2], c1[3]
	for len(ap) >= 8 && len(bp) >= 16 {
		a0, a1 := ap[0], ap[1]
		b0, b1, b2, b3 := bp[0], bp[1], bp[2], bp[3]
		c00 += a0 * b0
		c01 += a0 * b1
		c02 += a0 * b2
		c03 += a0 * b3
		c10 += a1 * b0
		c11 += a1 * b1
		c12 += a1 * b2
		c13 += a1 * b3
		a0, a1 = ap[2], ap[3]
		b0, b1, b2, b3 = bp[4], bp[5], bp[6], bp[7]
		c00 += a0 * b0
		c01 += a0 * b1
		c02 += a0 * b2
		c03 += a0 * b3
		c10 += a1 * b0
		c11 += a1 * b1
		c12 += a1 * b2
		c13 += a1 * b3
		a0, a1 = ap[4], ap[5]
		b0, b1, b2, b3 = bp[8], bp[9], bp[10], bp[11]
		c00 += a0 * b0
		c01 += a0 * b1
		c02 += a0 * b2
		c03 += a0 * b3
		c10 += a1 * b0
		c11 += a1 * b1
		c12 += a1 * b2
		c13 += a1 * b3
		a0, a1 = ap[6], ap[7]
		b0, b1, b2, b3 = bp[12], bp[13], bp[14], bp[15]
		c00 += a0 * b0
		c01 += a0 * b1
		c02 += a0 * b2
		c03 += a0 * b3
		c10 += a1 * b0
		c11 += a1 * b1
		c12 += a1 * b2
		c13 += a1 * b3
		ap = ap[8:]
		bp = bp[16:]
	}
	for len(ap) >= 2 && len(bp) >= 4 {
		a0, a1 := ap[0], ap[1]
		b0, b1, b2, b3 := bp[0], bp[1], bp[2], bp[3]
		c00 += a0 * b0
		c01 += a0 * b1
		c02 += a0 * b2
		c03 += a0 * b3
		c10 += a1 * b0
		c11 += a1 * b1
		c12 += a1 * b2
		c13 += a1 * b3
		ap = ap[2:]
		bp = bp[4:]
	}
	c0[0], c0[1], c0[2], c0[3] = c00, c01, c02, c03
	c1[0], c1[1], c1[2], c1[3] = c10, c11, c12, c13
}

// micro1x4 is the single-row edge kernel: c[j] += Σ_l ap[l] * bp[l*4+j].
func micro1x4(c0 *[4]float64, ap, bp []float64) {
	c00, c01, c02, c03 := c0[0], c0[1], c0[2], c0[3]
	for len(ap) >= 4 && len(bp) >= 16 {
		a0 := ap[0]
		c00 += a0 * bp[0]
		c01 += a0 * bp[1]
		c02 += a0 * bp[2]
		c03 += a0 * bp[3]
		a0 = ap[1]
		c00 += a0 * bp[4]
		c01 += a0 * bp[5]
		c02 += a0 * bp[6]
		c03 += a0 * bp[7]
		a0 = ap[2]
		c00 += a0 * bp[8]
		c01 += a0 * bp[9]
		c02 += a0 * bp[10]
		c03 += a0 * bp[11]
		a0 = ap[3]
		c00 += a0 * bp[12]
		c01 += a0 * bp[13]
		c02 += a0 * bp[14]
		c03 += a0 * bp[15]
		ap = ap[4:]
		bp = bp[16:]
	}
	for len(ap) >= 1 && len(bp) >= 4 {
		a0 := ap[0]
		c00 += a0 * bp[0]
		c01 += a0 * bp[1]
		c02 += a0 * bp[2]
		c03 += a0 * bp[3]
		ap = ap[1:]
		bp = bp[4:]
	}
	c0[0], c0[1], c0[2], c0[3] = c00, c01, c02, c03
}

// dotSerial is the bitwise-reference dot product: one accumulator,
// strictly ascending index order.
func dotSerial(a, b []float64) float64 {
	s := 0.0
	for len(a) >= 1 && len(b) >= 1 {
		s += a[0] * b[0]
		a = a[1:]
		b = b[1:]
	}
	return s
}
