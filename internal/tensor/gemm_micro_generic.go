//go:build !amd64 || purego

package tensor

// Without the assembly of gemm_micro_amd64.s the Go kernels are the whole
// packed engine.

func sweepPair(cr0, cr1, ap, bp []float64, k, l0, n int) {
	sweepPairGo(cr0, cr1, ap, bp, k, l0, n)
}

func sweepRow(cr0, ap, bp []float64, k, l0, n int) {
	sweepRowGo(cr0, ap, bp, k, l0, n)
}
