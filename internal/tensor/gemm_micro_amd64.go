//go:build amd64 && !purego

package tensor

// The AVX2 microkernels of gemm_micro_amd64.s and the panel sweeps that
// drive them. Whether they run is decided once, here, from what the CPU
// and the OS report; the Go kernels of gemm_micro.go are the fallback on
// a CPU without AVX2, the whole engine on other architectures and under
// -tags purego, and the reference the assembly is tested against bit for
// bit. Both sets meet the one contract stated there.

// useAVX2 is written by its initializer and only read afterwards.
var useAVX2 = cpuHasAVX2()

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

// cpuHasAVX2 reports whether the AVX2 kernels may run: the instruction
// set is there, and the OS saves the YMM registers across context
// switches (XCR0 bits 1 and 2) — without the second a preempted kernel
// would get its accumulators back truncated.
func cpuHasAVX2() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	const osxsave, avx, avx2 = 1 << 27, 1 << 28, 1 << 5
	if _, _, c, _ := cpuid(1, 0); c&osxsave == 0 || c&avx == 0 {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return false
	}
	_, b, _, _ := cpuid(7, 0)
	return b&avx2 != 0
}

// micro2x4AVX2 is micro2x4 with the four panel columns in the lanes of
// one register: two add chains of four elements each.
//
//go:noescape
func micro2x4AVX2(c0, c1 *[4]float64, ap, bp []float64)

// micro2x8AVX2 is micro2x4 over two adjacent B panels at once, c0 and c1
// spanning both: four chains in flight, which is what hides the add
// latency a single panel's two chains are bound by. Runs
// min(len(ap)/2, len(bp0)/4, len(bp1)/4) steps.
//
//go:noescape
func micro2x8AVX2(c0, c1 *[8]float64, ap, bp0, bp1 []float64)

// micro1x4AVX2 and micro1x8AVX2 are the same pair for the single-row
// edge (micro1x4's contract).
//
//go:noescape
func micro1x4AVX2(c0 *[4]float64, ap, bp []float64)

//go:noescape
func micro1x8AVX2(c0 *[8]float64, ap, bp0, bp1 []float64)

// sweepPair is sweepPairGo on whichever kernel set this machine runs:
// with AVX2, adjacent panels two at a time through the 2×8 kernel, an
// odd panel left over and the padded tail through the 2×4 one. (The tail
// is spelled out a second time rather than shared: handed to a kernel
// through a func value, the stack tiles would escape to the heap.)
func sweepPair(cr0, cr1, ap, bp []float64, k, l0, n int) {
	if !useAVX2 {
		sweepPairGo(cr0, cr1, ap, bp, k, l0, n)
		return
	}
	kcb := len(ap) / gemmMR
	nFull := n &^ (gemmNR - 1)
	j0 := 0
	for ; j0+2*gemmNR <= nFull; j0 += 2 * gemmNR {
		micro2x8AVX2((*[8]float64)(cr0[j0:]), (*[8]float64)(cr1[j0:]), ap,
			panelSlab(bp, j0, k, l0, kcb), panelSlab(bp, j0+gemmNR, k, l0, kcb))
	}
	if j0 < nFull {
		micro2x4AVX2((*[4]float64)(cr0[j0:]), (*[4]float64)(cr1[j0:]), ap, panelSlab(bp, j0, k, l0, kcb))
	}
	if nTail := n - nFull; nTail > 0 {
		var t0, t1 [gemmNR]float64
		copy(t0[:nTail], cr0[nFull:n])
		copy(t1[:nTail], cr1[nFull:n])
		micro2x4AVX2(&t0, &t1, ap, panelSlab(bp, nFull, k, l0, kcb))
		copy(cr0[nFull:n], t0[:nTail])
		copy(cr1[nFull:n], t1[:nTail])
	}
}

// sweepRow is the same for sweepRowGo and the 1×8 / 1×4 kernels.
func sweepRow(cr0, ap, bp []float64, k, l0, n int) {
	if !useAVX2 {
		sweepRowGo(cr0, ap, bp, k, l0, n)
		return
	}
	kcb := len(ap)
	nFull := n &^ (gemmNR - 1)
	j0 := 0
	for ; j0+2*gemmNR <= nFull; j0 += 2 * gemmNR {
		micro1x8AVX2((*[8]float64)(cr0[j0:]), ap,
			panelSlab(bp, j0, k, l0, kcb), panelSlab(bp, j0+gemmNR, k, l0, kcb))
	}
	if j0 < nFull {
		micro1x4AVX2((*[4]float64)(cr0[j0:]), ap, panelSlab(bp, j0, k, l0, kcb))
	}
	if nTail := n - nFull; nTail > 0 {
		var t0 [gemmNR]float64
		copy(t0[:nTail], cr0[nFull:n])
		micro1x4AVX2(&t0, ap, panelSlab(bp, nFull, k, l0, kcb))
		copy(cr0[nFull:n], t0[:nTail])
	}
}
