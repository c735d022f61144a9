package tensor

import (
	"fmt"

	"sasgd/internal/parallel"
)

// The matrix kernels below pick between two tiers by shape alone
// (usePacked in tile.go — never by worker count, so the tier choice
// cannot affect cross-worker determinism):
//
//   - Large products run the cache-blocked, register-tiled packed engine
//     in gemm.go: A and B are repacked into panel layouts, and a 2×4
//     microkernel with register accumulators does the arithmetic.
//   - Small products, and skinny ones (fewer than skinnyM rows: no
//     reuse for the panels to pay for), run the loops in this file over
//     the interleaved-chain kernels of gemm_skinny.go; their dispatch
//     cost is just a shape check.
//
// Both tiers are parallelized over output rows through parallel.For /
// ForAligned: fixed contiguous shards, each writing a disjoint slice of
// the destination. Every C[i,j] accumulates its k products in strictly
// ascending-l order into one accumulator chain in both tiers, so results
// are bitwise identical at every worker count and across the tier
// boundary's blocking choices (determinism the convergence experiments
// rely on) — which is also what lets usePacked move a shape from one
// tier to the other. Two exceptions: the FastKernels gate (gemm.go)
// swaps the small A·Bᵀ tier's dot product for a reordered
// four-accumulator version, and MatMulAccTransB's tiers seed their
// chains differently, so its tier boundary stays where it was
// (packedShape).
//
// A call that would run as one shard takes a closure-free serial branch:
// a closure handed to parallel.For is heap-allocated even when it runs
// inline (parallel.Shards), and at M=1 every product is one shard.

// parRowFlops is the minimum number of multiply-adds a shard must amortize
// for parallel dispatch to pay off; rows are grouped until each shard
// carries at least this much work.
const parRowFlops = 1 << 15

// matmulGrain returns the row grain for an m×k·k×n product: the smallest
// row count whose work exceeds parRowFlops.
func matmulGrain(k, n int) int {
	rowWork := k * n
	if rowWork <= 0 {
		return 1
	}
	g := parRowFlops / rowWork
	if g < 1 {
		return 1
	}
	return g
}

// MatMul computes C = A·B for 2-D tensors A (m×k) and B (k×n), writing
// into dst (m×n) which must be preallocated with the right shape. dst is
// overwritten, not accumulated into.
func MatMul(dst, a, b *Tensor) {
	m, k, n := checkMatMulShapes(dst, a, b)
	if usePacked(m, k, n) {
		gemmPackedParallel(dst.Data, aSource{data: a.Data, ld: k}, b.Data, false, m, k, n, false, epilogue{})
		return
	}
	if parallel.Shards(m, matmulGrain(k, n)) <= 1 {
		foldRange(dst.Data, a.Data, k, 1, b.Data, k, n, 0, m, false)
		return
	}
	parallel.For(m, matmulGrain(k, n), func(lo, hi int) {
		foldRange(dst.Data, a.Data, k, 1, b.Data, k, n, lo, hi, false)
	})
}

// MatMulAcc computes C += A·B with the same shape rules as MatMul.
func MatMulAcc(dst, a, b *Tensor) {
	m, k, n := checkMatMulShapes(dst, a, b)
	if usePacked(m, k, n) {
		gemmPackedParallel(dst.Data, aSource{data: a.Data, ld: k}, b.Data, false, m, k, n, true, epilogue{})
		return
	}
	if parallel.Shards(m, matmulGrain(k, n)) <= 1 {
		foldRange(dst.Data, a.Data, k, 1, b.Data, k, n, 0, m, true)
		return
	}
	parallel.For(m, matmulGrain(k, n), func(lo, hi int) {
		foldRange(dst.Data, a.Data, k, 1, b.Data, k, n, lo, hi, true)
	})
}

// MatMulInto is the raw-slice form of MatMul for callers that manage
// their own parallelism (it always runs serially on the calling
// goroutine). a is m×k, b is k×n, c is m×n and is overwritten.
func MatMulInto(c, a, b []float64, m, k, n int) {
	if usePacked(m, k, n) {
		gemmPackedSerial(c, aSource{data: a, ld: k}, b, false, m, k, n, false, epilogue{})
		return
	}
	foldRange(c, a, k, 1, b, k, n, 0, m, false)
}

func checkMatMulShapes(dst, a, b *Tensor) (m, k, n int) {
	if a.Dims() != 2 || b.Dims() != 2 || dst.Dims() != 2 {
		panic(fmt.Sprintf("tensor: MatMul needs 2-D operands, got %v·%v -> %v", a.shape, b.shape, dst.shape))
	}
	m, k = a.shape[0], a.shape[1]
	if b.shape[0] != k {
		panic(fmt.Sprintf("tensor: MatMul inner dimension mismatch %v · %v", a.shape, b.shape))
	}
	n = b.shape[1]
	if dst.shape[0] != m || dst.shape[1] != n {
		panic(fmt.Sprintf("tensor: MatMul destination shape %v, want [%d %d]", dst.shape, m, n))
	}
	return m, k, n
}

// foldRange computes C[lo:hi,:] = A·B, or += with acc, by row updates:
// logical A[i,l] is a[i*si+l*sl], so a row-major m×k A is (si, sl) =
// (k, 1) and a k×m matrix holding Aᵀ is (1, m). B rows are taken four at
// a time (foldRows4), every row of the shard visiting a group before the
// next group is touched, so the group is read from memory once whatever
// the row count, and a C row is loaded and stored once per group instead
// of once per B row. Every C[i,j] still adds its products in strictly
// ascending l order: bitwise the plain ikj loop. Without acc the first
// group stores 0 + a·b instead of adding into a zeroed C, which is the
// same bits (a cleared word is +0) without the clearing pass and the
// read. The loops multiply unconditionally: skipping zero A elements
// would change ±0/NaN propagation relative to the packed tier, which
// always multiplies.
func foldRange(c, a []float64, si, sl int, b []float64, k, n, lo, hi int, acc bool) {
	if k == 0 && !acc {
		clear(c[lo*n : hi*n])
		return
	}
	for l := 0; l < k; {
		store := l == 0 && !acc
		if l+4 <= k {
			b0, b1, b2, b3 := b[l*n:l*n+n], b[(l+1)*n:(l+1)*n+n], b[(l+2)*n:(l+2)*n+n], b[(l+3)*n:(l+3)*n+n]
			for i := lo; i < hi; i++ {
				ai := a[i*si+l*sl:]
				foldRows4(c[i*n:i*n+n], b0, b1, b2, b3, ai[0], ai[sl], ai[2*sl], ai[3*sl], store)
			}
			l += 4
			continue
		}
		bl := b[l*n : l*n+n]
		for i := lo; i < hi; i++ {
			foldRow(c[i*n:i*n+n], bl, a[i*si+l*sl], store)
		}
		l++
	}
}

// MatMulTransA computes C = Aᵀ·B where A is k×m, B is k×n, C is m×n.
// Used in backward passes to form weight gradients without materializing
// the transpose; the packed tier reads the transpose directly out of A's
// columns while packing pair-panels.
func MatMulTransA(dst, a, b *Tensor) {
	if a.Dims() != 2 || b.Dims() != 2 || dst.Dims() != 2 {
		panic("tensor: MatMulTransA needs 2-D operands")
	}
	k, m := a.shape[0], a.shape[1]
	if b.shape[0] != k {
		panic(fmt.Sprintf("tensor: MatMulTransA inner dimension mismatch %v ᵀ· %v", a.shape, b.shape))
	}
	n := b.shape[1]
	if dst.shape[0] != m || dst.shape[1] != n {
		panic(fmt.Sprintf("tensor: MatMulTransA destination shape %v, want [%d %d]", dst.shape, m, n))
	}
	if usePacked(m, k, n) {
		gemmPackedParallel(dst.Data, aSource{data: a.Data, ld: m, trans: true}, b.Data, false, m, k, n, false, epilogue{})
		return
	}
	if parallel.Shards(m, matmulGrain(k, n)) <= 1 {
		foldRange(dst.Data, a.Data, 1, m, b.Data, k, n, 0, m, false)
		return
	}
	parallel.For(m, matmulGrain(k, n), func(lo, hi int) {
		foldRange(dst.Data, a.Data, 1, m, b.Data, k, n, lo, hi, false)
	})
}

// MatMulTransAInto is the raw-slice, always-serial form of MatMulTransA:
// c (m×n) = aᵀ (k×m transposed) · b (k×n), c overwritten.
func MatMulTransAInto(c, a, b []float64, k, m, n int) {
	if usePacked(m, k, n) {
		gemmPackedSerial(c, aSource{data: a, ld: m, trans: true}, b, false, m, k, n, false, epilogue{})
		return
	}
	foldRange(c, a, 1, m, b, k, n, 0, m, false)
}

// MatMulTransB computes C = A·Bᵀ where A is m×k, B is n×k, C is m×n.
// Used in forward and backward passes of linear layers.
func MatMulTransB(dst, a, b *Tensor) {
	m, k, n := checkTransBShapes(dst, a, b, "MatMulTransB")
	if usePacked(m, k, n) {
		gemmPackedParallel(dst.Data, aSource{data: a.Data, ld: k}, b.Data, true, m, k, n, false, epilogue{})
		return
	}
	if parallel.Shards(m, matmulGrain(k, n)) <= 1 {
		matMulTransBRange(dst.Data, a.Data, b.Data, k, n, 0, m, false)
		return
	}
	parallel.For(m, matmulGrain(k, n), func(lo, hi int) {
		matMulTransBRange(dst.Data, a.Data, b.Data, k, n, lo, hi, false)
	})
}

// MatMulAccTransB computes C += A·Bᵀ where A is m×k, B is n×k, C is m×n.
// The packed tier seeds each element's accumulation chain with the
// existing C value (c + a₀b₀ + a₁b₁ + …) where the small tier computes
// the dot product first and adds it once (c + Σaᵢbᵢ); the two round
// differently, but the tier is a pure function of the shape, so any
// given call site is still bitwise reproducible.
func MatMulAccTransB(dst, a, b *Tensor) {
	m, k, n := checkTransBShapes(dst, a, b, "MatMulAccTransB")
	if packedShape(m, k, n) {
		gemmPackedParallel(dst.Data, aSource{data: a.Data, ld: k}, b.Data, true, m, k, n, true, epilogue{})
		return
	}
	if parallel.Shards(m, matmulGrain(k, n)) <= 1 {
		matMulTransBRange(dst.Data, a.Data, b.Data, k, n, 0, m, true)
		return
	}
	parallel.For(m, matmulGrain(k, n), func(lo, hi int) {
		matMulTransBRange(dst.Data, a.Data, b.Data, k, n, lo, hi, true)
	})
}

func checkTransBShapes(dst, a, b *Tensor, op string) (m, k, n int) {
	if a.Dims() != 2 || b.Dims() != 2 || dst.Dims() != 2 {
		panic(fmt.Sprintf("tensor: %s needs 2-D operands", op))
	}
	m, k = a.shape[0], a.shape[1]
	if b.shape[1] != k {
		panic(fmt.Sprintf("tensor: %s inner dimension mismatch %v · %v ᵀ", op, a.shape, b.shape))
	}
	n = b.shape[0]
	if dst.shape[0] != m || dst.shape[1] != n {
		panic(fmt.Sprintf("tensor: %s destination shape %v, want [%d %d]", op, dst.shape, m, n))
	}
	return m, k, n
}

// matMulTransBRange computes C[lo:hi,:] (+)= A[lo:hi,:]·Bᵀ. Each C[i,j]
// is one ascending-order dot product from a zero accumulator (dotSerial
// is the reference), eight columns at a time: dot8 runs the eight chains
// of a column block side by side, and every row of the shard visits a
// block — eight rows of B — before the next is read. The n%8 columns
// left over come from one more dot8 over B's last eight rows, of which
// only the new columns are kept (a recomputed element is the same
// bits). Under FastKernels every element is a four-accumulator
// dotUnroll4 instead.
func matMulTransBRange(c, a, b []float64, k, n, lo, hi int, acc bool) {
	put := func(cij *float64, s float64) {
		if acc {
			*cij += s
		} else {
			*cij = s
		}
	}
	fast := FastKernelsEnabled()
	j := 0
	if !fast && n >= 8 {
		var s [8]float64
		for j0 := 0; j < n; j0 += 8 {
			if j0+8 > n {
				j0 = n - 8
			}
			bj := b[j0*k : (j0+8)*k]
			for i := lo; i < hi; i++ {
				dot8(&s, a[i*k:i*k+k], bj)
				for jj := j; jj < j0+8; jj++ {
					put(&c[i*n+jj], s[jj-j0])
				}
			}
			j = j0 + 8
		}
	}
	for ; j < n; j++ {
		bj := b[j*k : j*k+k]
		for i := lo; i < hi; i++ {
			ai := a[i*k : i*k+k]
			if fast {
				put(&c[i*n+j], dotUnroll4(ai, bj))
			} else {
				put(&c[i*n+j], dotSerial(ai, bj))
			}
		}
	}
}

// MatMulAccTransBRows computes C[lo:hi,:] += A[lo:hi,:]·Bᵀ on raw slices
// (a is m×k, b is n×k, c is m×n), serially on the calling goroutine, for
// callers that shard the rows themselves. Every element is one
// ascending-order dot product from a zero accumulator, added to C once
// (c + Σ aₗbₗ) — dotSerial's bits, whichever tier computes them. A shard
// that is a packed shape forms its product from zero on the packed engine
// in rows [lo, hi) of tile (m×n like c, overwritten; the caller keeps it
// between calls) and adds the tile to C; any other runs the eight-chain
// kernel straight into C and leaves tile alone. Both chains start at +0
// and ascend in l, so unlike MatMulAccTransB — whose packed tier seeds
// the chain with C — the tier is a pure matter of speed here and may
// depend on the shard. Under FastKernels every element is dotUnroll4's.
// Conv2D.Backward reduces its weight gradient through it (by way of
// ConvGradWeightRows), one call per sample and row shard.
func MatMulAccTransBRows(c, a, b []float64, k, n, lo, hi int, tile []float64) {
	if !accTransBPacks(hi-lo, k, n) {
		matMulTransBRange(c, a, b, k, n, lo, hi, true)
		return
	}
	s := getGemmScratch(packedBLen(k, n))
	packBTransPanels(s.buf, b, k, n)
	accPackedRows(c, tile, aSource{data: a, ld: k}, s.buf, k, n, lo, hi)
	putGemmScratch(s)
}

// accTransBPacks reports whether a rows×k·k×n shard of MatMulAccTransBRows
// (or of ConvGradWeightRows, which must agree with it) runs on the packed
// engine.
func accTransBPacks(rows, k, n int) bool {
	return !FastKernelsEnabled() && usePacked(rows, k, n)
}

// accPackedRows is C[lo:hi,:] += A[lo:hi,:]·B on the packed engine with
// the product formed from zero in tile and added to C once.
func accPackedRows(c, tile []float64, a aSource, bp []float64, k, n, lo, hi int) {
	gemmPackedRange(tile, a, bp, k, n, n, 0, lo, hi, false, epilogue{})
	c = c[lo*n : hi*n]
	for i, v := range tile[lo*n : hi*n] {
		c[i] += v
	}
}

// Transpose2D returns a new tensor holding the transpose of the 2-D
// tensor t.
func Transpose2D(t *Tensor) *Tensor {
	if t.Dims() != 2 {
		panic("tensor: Transpose2D needs a 2-D tensor")
	}
	m, n := t.shape[0], t.shape[1]
	out := New(n, m)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			out.Data[j*m+i] = t.Data[i*n+j]
		}
	}
	return out
}
