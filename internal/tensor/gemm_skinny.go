package tensor

// The skinny-GEMM kernels: the inner loops of the small tier in
// matmul.go, which is where every product with fewer than skinnyM rows
// lands — at M=1 that is every Linear and TemporalConv product of a
// training step, each a single pass over its weight matrix.
//
// Such a product has no operand reuse to block for, so the packed
// engine's panels cost more than they save; what bounds the plain loops
// instead is latency. A dot product is one add chain (≈4 cycles per
// word however fast the loads are), and an ikj row update reloads and
// restores the C row once per B row. The kernels here keep every C[i,j]
// on its single chain, products added in strictly ascending l order —
// the determinism contract of gemm_micro.go — and gain their speed from
// running independent chains side by side: dot8 advances eight output
// columns per sweep of the A row, and foldRows4 adds four B rows into
// each C element per load/store of the C row, in the same order the
// one-row loop would have added them. Chains never exchange terms, so
// the results are bitwise those of the reference loops; only
// dotUnroll4 (FastKernels) splits a chain.
//
// Like gemm_micro.go, this file is under the bounds-check-elimination
// gate of scripts/check.sh: operand slices are cut to a common length
// up front and indexed by one range variable.

// dot8 computes eight dot products of a against the eight consecutive
// k-long rows of b: s[c] = Σ_l a[l]·b[c·k+l] with k = len(a), each from
// a zero accumulator in ascending l order, exactly as dotSerial would.
func dot8(s *[8]float64, a, b []float64) {
	k := len(a)
	b0, b1, b2, b3 := b[:k], b[k:][:k], b[2*k:][:k], b[3*k:][:k]
	b4, b5, b6, b7 := b[4*k:][:k], b[5*k:][:k], b[6*k:][:k], b[7*k:][:k]
	var s0, s1, s2, s3, s4, s5, s6, s7 float64
	for l, av := range a {
		s0 += av * b0[l]
		s1 += av * b1[l]
		s2 += av * b2[l]
		s3 += av * b3[l]
		s4 += av * b4[l]
		s5 += av * b5[l]
		s6 += av * b6[l]
		s7 += av * b7[l]
	}
	s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7] = s0, s1, s2, s3, s4, s5, s6, s7
}

// foldRows4 adds four scaled rows into c, one load and one store of c
// per element: c[j] = (((c[j] + a0·b0[j]) + a1·b1[j]) + a2·b2[j]) +
// a3·b3[j] — the order four successive one-row updates would use. With
// store the chain starts from +0 instead of c[j] (what a zeroed c would
// hold), and c is written without being read.
//
// Not inlined, like foldRow: inlined into foldRange's loop nest the
// element loop's counter is spilled to the stack every iteration, which
// costs more than the whole multiply-add.
//
//go:noinline
func foldRows4(c, b0, b1, b2, b3 []float64, a0, a1, a2, a3 float64, store bool) {
	b0, b1, b2, b3 = b0[:len(c)], b1[:len(c)], b2[:len(c)], b3[:len(c)]
	if store {
		for j := range c {
			c[j] = 0 + a0*b0[j] + a1*b1[j] + a2*b2[j] + a3*b3[j]
		}
		return
	}
	for j, s := range c {
		c[j] = s + a0*b0[j] + a1*b1[j] + a2*b2[j] + a3*b3[j]
	}
}

// foldRow is the one-row form of foldRows4: c[j] += a0·b0[j], or
// c[j] = 0 + a0·b0[j] with store.
//
//go:noinline
func foldRow(c, b0 []float64, a0 float64, store bool) {
	b0 = b0[:len(c)]
	if store {
		for j := range c {
			c[j] = 0 + a0*b0[j]
		}
		return
	}
	for j, s := range c {
		c[j] = s + a0*b0[j]
	}
}
