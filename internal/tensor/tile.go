package tensor

// Blocking parameters for the packed GEMM engine (gemm.go). All kernel
// tiling in this package derives from the four constants below, so cache
// sizing lives in exactly one place.
//
// The hierarchy, innermost out:
//
//   - The microkernel computes a gemmMR × gemmNR tile of C with all
//     gemmMR*gemmNR accumulators held in registers (gemm_micro.go). For
//     the Go kernels, which the compiler turns into scalar code, 2×4 = 8
//     accumulators is the sweet spot on amd64: each is an independent
//     add chain, enough to saturate the scalar FP ports, while 4×4 = 16
//     spills (exactly the XMM register count, leaving nothing for the
//     a/b operands). The AVX2 kernels (gemm_micro_amd64.s) keep the same
//     tile and the same packed layouts — one B panel row is one YMM
//     register — and get their extra chains by taking two adjacent
//     panels per call (2×8: four vector chains), not by a wider tile, so
//     nothing that sizes or packs by these constants knows which kernel
//     set runs.
//   - gemmKC bounds the k-extent of one packed pass: an A pair-panel is
//     gemmMR×gemmKC = 4 KiB and a B panel gemmKC×gemmNR = 8 KiB, so the
//     operands of one microkernel call sit comfortably in a 32 KiB L1d
//     beside the C tile.
//   - gemmMC groups output rows so one KC×NC slab of packed B is reused
//     across a whole block of rows while the block's C rows
//     (gemmMC × n ≤ 256 KiB at n = 512) stay L2-resident; the fused
//     bias/activation epilogue runs per MC block, while its rows are
//     still cache-hot.
const (
	gemmMR = 2   // microkernel rows
	gemmNR = 4   // microkernel columns (one B panel width)
	gemmKC = 256 // k-block: bounds packed-panel height
	gemmMC = 64  // row-block: epilogue + B-slab reuse granularity
)

// tileParams returns the (mc, kc) blocking for an m×k · k×n product,
// clamped to the problem so degenerate shapes never over-allocate
// scratch. The packed engine and the fused conv size their blocking
// through this helper; the small tier (matmul.go) has none to size.
func tileParams(m, k, n int) (mc, kc int) {
	mc, kc = gemmMC, gemmKC
	if mc > m {
		mc = m
	}
	if kc > k {
		kc = k
	}
	return mc, kc
}

// packedMinFlops is the smallest m*k*n product routed to the packed
// engine. Packing copies m*k + k*n words to save ~2× on the 2*m*k*n
// multiply-adds, so it has to amortize: below this threshold (one
// 32×32×32 product) the plain loops win.
const packedMinFlops = 1 << 15

// skinnyM is the row count below which a product never takes the packed
// engine, whatever its size. Packing copies all k·n words of B to use
// each one m times; with two or three rows the copy costs as much as the
// product, and the interleaved-chain kernels of gemm_skinny.go already
// read B once at the same chain count as the microkernel. This is the
// M=1 training step: a window-2 TemporalConv is a 2-row product over 64 k
// words of weights.
const skinnyM = 4

// packedShape reports whether an m×k·k×n product is large and regular
// enough to amortize packing at all: not degenerate (a single row, a
// short k, fewer columns than a panel) and at least packedMinFlops.
func packedShape(m, k, n int) bool {
	return m >= gemmMR && n >= gemmNR && k >= 8 && m*k*n >= packedMinFlops
}

// usePacked reports whether an m×k·k×n product should go through the
// packed, register-tiled engine: a packedShape with at least skinnyM
// rows. Everything else stays on the loops in matmul.go. The choice is a
// pure function of the shape, never of the worker budget, so it cannot
// break bitwise determinism across worker counts; and because both tiers
// produce the same bits for every entry point that consults it, moving
// the boundary moves no result. (MatMulAccTransB, whose tiers round
// differently, consults packedShape directly and stays where it was.)
func usePacked(m, k, n int) bool {
	return m >= skinnyM && packedShape(m, k, n)
}
