package tensor

import (
	"math"
	"sync"

	"sasgd/internal/parallel"
)

// This file is the cache-blocked, register-tiled GEMM engine behind the
// MatMul family in matmul.go and the fused layer-forward entry points
// (LinearForward, ConvGemmBiasAct). The structure is the classic packed
// formulation:
//
//   - B is packed once per call into column panels: panel j0 holds
//     columns [j0, j0+NR) in l-major order (bp[j0*k + l*NR + jj]), the
//     exact access order of the microkernel. The last panel is
//     zero-padded to NR columns so every panel has the same stride; the
//     padded lanes are computed into a stack temporary and discarded.
//   - A is packed per (row pair × KC block) into a pair-panel
//     (ap[l*MR + r]) living in a stack array — 4 KiB, no heap.
//   - The driver walks MC row blocks; within a block, KC slabs in
//     ascending-l order; within a slab, row pairs × B panels through the
//     2×4 microkernel — the Go one, or on an AVX2 machine the assembly
//     one, two panels at a time (sweepPair, gemm_micro_*.go). After a
//     row block's last KC slab, the fused epilogue (bias add +
//     activation) runs over the block's rows while they are still
//     cache-hot.
//
// Determinism contract: every C element accumulates its k products in
// strictly ascending l order into a single accumulator chain — the KC
// slabs are visited in ascending order and the float64 store/reload of C
// between slabs is exact — so the packed engine is bitwise identical to
// the serial ikj loop, at any blocking, any worker count and either
// kernel set (packed_test.go holds every entry point to that loop). Row
// shards (ForAligned over MR pairs) and column shards (fused conv) only
// change which goroutine computes an element, never its summation order.
// No kernel in this package reorders a summation.

// EpilogueAct selects the activation a fused GEMM applies to each output
// element as its row block leaves the microkernel.
type EpilogueAct uint8

// The fusable activations. Values match the nn layers bit-for-bit: a
// fused forward is bitwise identical to the unfused layer sequence.
const (
	ActNone EpilogueAct = iota
	ActReLU
	ActTanh
)

// ScalarTanh is the clamped exponential tanh shared by the nn.Tanh layer
// and the fused GEMM epilogue, so the fused and unfused paths are
// bitwise identical. (math.Tanh is accurate but measurably slower; the
// clamp keeps the exp in range.)
func ScalarTanh(v float64) float64 {
	if v > 20 {
		return 1
	}
	if v < -20 {
		return -1
	}
	e := math.Exp(2 * v)
	return (e - 1) / (e + 1)
}

// relu is v where v > 0 and +0 everywhere else (−0 and NaN included),
// the nn.ReLU layer's values, selected on the bit pattern: whether a
// pre-activation is positive is a coin toss the branch predictor loses,
// and an integer conditional move has nothing to predict.
func relu(v float64) float64 {
	b := math.Float64bits(v) // outside the branch, or the compiler keeps the branch
	var keep uint64
	if v > 0 {
		keep = b
	}
	return math.Float64frombits(keep)
}

// epilogue is the fused bias+activation pass a GEMM applies per MC row
// block. rowBias[i] is added to every element of (absolute) row i — the
// conv layout, one bias per output channel. colBias[jOff+j] is added to
// column j — the linear layout, one bias per output feature. The bias
// lands after the full dot product and before the activation, the exact
// order of the unfused layer sequence, so fusion is bitwise invisible.
type epilogue struct {
	rowBias []float64
	colBias []float64
	act     EpilogueAct
}

// Value receivers throughout: taking an epilogue's address inside the
// GEMM entry points would force it (and everything captured alongside
// it) onto the heap and break the zero-alloc steady state.
func (e epilogue) active() bool {
	return e.rowBias != nil || e.colBias != nil || e.act != ActNone
}

// apply runs the epilogue over rows [lo, hi) of the n columns starting
// at column jOff of a matrix with row stride ldc.
func (e epilogue) apply(c []float64, ldc, jOff, n, lo, hi int) {
	if !e.active() {
		return
	}
	for i := lo; i < hi; i++ {
		row := c[i*ldc+jOff : i*ldc+jOff+n : i*ldc+jOff+n]
		if e.act == ActReLU && e.rowBias != nil && e.colBias == nil {
			// The conv layers' epilogue, in one pass over the row instead
			// of two.
			rb := e.rowBias[i]
			for j, v := range row {
				row[j] = relu(v + rb)
			}
			continue
		}
		if e.rowBias != nil {
			rb := e.rowBias[i]
			for j := range row {
				row[j] += rb
			}
		}
		if e.colBias != nil {
			cb := e.colBias[jOff : jOff+n]
			for j, bv := range cb {
				row[j] += bv
			}
		}
		switch e.act {
		case ActReLU:
			for j, v := range row {
				row[j] = relu(v)
			}
		case ActTanh:
			for j, v := range row {
				row[j] = ScalarTanh(v)
			}
		}
	}
}

// aSource describes where the engine reads logical A rows from: a plain
// m×k row-major matrix (trans=false, ld=k) or a k×m matrix holding Aᵀ
// (trans=true, ld=m), so MatMulTransA packs the transpose on the fly
// instead of materializing it.
type aSource struct {
	data  []float64
	ld    int
	trans bool
}

// pack copies `rows` (1 or 2) logical rows starting at r0, columns
// [l0, l1), into the pair-panel layout ap[(l-l0)*rows + r].
func (s aSource) pack(ap []float64, r0, rows, l0, l1 int) {
	kcb := l1 - l0
	if !s.trans {
		if rows == 2 {
			p0 := s.data[r0*s.ld+l0 : r0*s.ld+l1]
			p1 := s.data[(r0+1)*s.ld+l0 : (r0+1)*s.ld+l1]
			for l, v := range p0 {
				ap[2*l] = v
				ap[2*l+1] = p1[l]
			}
		} else {
			copy(ap[:kcb], s.data[r0*s.ld+l0:r0*s.ld+l1])
		}
		return
	}
	if rows == 2 {
		for l := 0; l < kcb; l++ {
			base := (l0+l)*s.ld + r0
			ap[2*l] = s.data[base]
			ap[2*l+1] = s.data[base+1]
		}
	} else {
		for l := 0; l < kcb; l++ {
			ap[l] = s.data[(l0+l)*s.ld+r0]
		}
	}
}

// packedBLen returns the packed-panel buffer length for a k×n B: full
// NR-wide panels, the last zero-padded.
func packedBLen(k, n int) int {
	return (n + gemmNR - 1) / gemmNR * gemmNR * k
}

// packBPanels packs a k×n row-major B into NR-wide column panels.
func packBPanels(bp, b []float64, k, n int) {
	for j0 := 0; j0 < n; j0 += gemmNR {
		w := n - j0
		if w > gemmNR {
			w = gemmNR
		}
		base := j0 * k
		if w == gemmNR {
			for l := 0; l < k; l++ {
				src := b[l*n+j0 : l*n+j0+gemmNR : l*n+j0+gemmNR]
				dst := bp[base+l*gemmNR : base+l*gemmNR+gemmNR : base+l*gemmNR+gemmNR]
				dst[0], dst[1], dst[2], dst[3] = src[0], src[1], src[2], src[3]
			}
			continue
		}
		for l := 0; l < k; l++ {
			dst := bp[base+l*gemmNR : base+l*gemmNR+gemmNR]
			jj := copy(dst, b[l*n+j0:l*n+j0+w])
			for ; jj < gemmNR; jj++ {
				dst[jj] = 0
			}
		}
	}
}

// packBTransPanels packs an n×k row-major matrix holding Bᵀ into the
// same panel layout (logical B[l,j] = b[j*k+l]). Iterating source rows
// keeps the reads contiguous; the writes stride by NR.
func packBTransPanels(bp, b []float64, k, n int) {
	for j0 := 0; j0 < n; j0 += gemmNR {
		w := n - j0
		if w > gemmNR {
			w = gemmNR
		}
		base := j0 * k
		for jj := 0; jj < w; jj++ {
			src := b[(j0+jj)*k : (j0+jj)*k+k]
			for l, v := range src {
				bp[base+l*gemmNR+jj] = v
			}
		}
		for jj := w; jj < gemmNR; jj++ {
			for l := 0; l < k; l++ {
				bp[base+l*gemmNR+jj] = 0
			}
		}
	}
}

// packConvPanels packs columns [jLo, jHi) of the implicit im2col matrix
// of a (c,h,w) image directly into panel layout — the fused conv
// forward's replacement for Im2Col + packBPanels, so the full column
// matrix is never materialized. Row l of the implicit matrix decodes to
// (channel, ky, kx) and column j to the output pixel (j/ow, j%ow);
// padding reads as zero. jLo must be NR-aligned (the column shards of
// ConvGemmBiasAct are); bp is indexed relative to jLo.
func packConvPanels(bp, img []float64, c, h, w int, g ConvGeom, ow, jLo, jHi int) {
	k := c * g.KH * g.KW
	var iy0, ix0 [gemmNR]int
	oy, ox := jLo/ow, jLo%ow
	for j0 := jLo; j0 < jHi; j0 += gemmNR {
		pw := jHi - j0
		if pw > gemmNR {
			pw = gemmNR
		}
		// A full panel whose four windows lie wholly inside the image —
		// every panel but the last of an unpadded convolution — needs no
		// per-tap bounds tests: tap (ch, ky, kx) of pixel jj is at the
		// fixed offset iy0[jj]·w + ix0[jj] from tap (ch, ky, kx) of the
		// image origin.
		interior := pw == gemmNR
		for jj := 0; jj < pw; jj++ {
			iy0[jj], ix0[jj] = oy*g.SH-g.PH, ox*g.SW-g.PW
			if iy0[jj] < 0 || iy0[jj]+g.KH > h || ix0[jj] < 0 || ix0[jj]+g.KW > w {
				interior = false
			}
			if ox++; ox == ow {
				oy, ox = oy+1, 0
			}
		}
		base := (j0 - jLo) * k
		if interior {
			dst := bp[base : base+k*gemmNR]
			o0, o1 := iy0[0]*w+ix0[0], iy0[1]*w+ix0[1]
			o2, o3 := iy0[2]*w+ix0[2], iy0[3]*w+ix0[3]
			for ch := 0; ch < c; ch++ {
				for ky := 0; ky < g.KH; ky++ {
					taps := img[ch*h*w+ky*w:]
					for kx := 0; kx < g.KW && len(dst) >= gemmNR; kx++ {
						src := taps[kx:]
						dst[0], dst[1], dst[2], dst[3] = src[o0], src[o1], src[o2], src[o3]
						dst = dst[gemmNR:]
					}
				}
			}
			continue
		}
		l := 0
		for ch := 0; ch < c; ch++ {
			chBase := ch * h * w
			for ky := 0; ky < g.KH; ky++ {
				for kx := 0; kx < g.KW; kx++ {
					dst := bp[base+l*gemmNR : base+l*gemmNR+gemmNR]
					for jj := 0; jj < pw; jj++ {
						iy := iy0[jj] + ky
						ix := ix0[jj] + kx
						if iy >= 0 && iy < h && ix >= 0 && ix < w {
							dst[jj] = img[chBase+iy*w+ix]
						} else {
							dst[jj] = 0
						}
					}
					for jj := pw; jj < gemmNR; jj++ {
						dst[jj] = 0
					}
					l++
				}
			}
		}
	}
}

// packConvTransPanels packs the transpose of the implicit im2col matrix
// of a (c,h,w) image — B[l, j] = tap j = (channel, ky, kx) of output pixel
// l, oh·ow rows by c·KH·KW columns — into panel layout: the B operand of
// the conv weight gradient gout·colsᵀ, straight from the image, where
// Im2Col + packBTransPanels would write the column matrix and read it
// back. Padding reads as zero.
func packConvTransPanels(bp, img []float64, c, h, w int, g ConvGeom, oh, ow int) {
	p := oh * ow
	kr := c * g.KH * g.KW
	var chBase, ky, kx [gemmNR]int
	for j0 := 0; j0 < kr; j0 += gemmNR {
		pw := kr - j0
		if pw > gemmNR {
			pw = gemmNR
		}
		for jj := 0; jj < pw; jj++ {
			j := j0 + jj
			chBase[jj], ky[jj], kx[jj] = j/(g.KH*g.KW)*h*w, j/g.KW%g.KH, j%g.KW
		}
		dst := bp[j0*p : j0*p+p*gemmNR]
		if pw == gemmNR && g.PH == 0 && g.PW == 0 {
			// Unpadded: every window lies inside the image, and a pixel's
			// four taps are four loads at fixed offsets from its corner.
			t0, t1 := chBase[0]+ky[0]*w+kx[0], chBase[1]+ky[1]*w+kx[1]
			t2, t3 := chBase[2]+ky[2]*w+kx[2], chBase[3]+ky[3]*w+kx[3]
			for oy := 0; oy < oh; oy++ {
				corner := img[oy*g.SH*w:]
				for ox := 0; ox < ow && len(dst) >= gemmNR; ox++ {
					src := corner[ox*g.SW:]
					dst[0], dst[1], dst[2], dst[3] = src[t0], src[t1], src[t2], src[t3]
					dst = dst[gemmNR:]
				}
			}
			continue
		}
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				for jj := 0; jj < gemmNR; jj++ {
					iy, ix := oy*g.SH-g.PH+ky[jj], ox*g.SW-g.PW+kx[jj]
					if jj < pw && iy >= 0 && iy < h && ix >= 0 && ix < w {
						dst[jj] = img[chBase[jj]+iy*w+ix]
					} else {
						dst[jj] = 0
					}
				}
				dst = dst[gemmNR:]
			}
		}
	}
}

// gemmScratch recycles packed-B panel buffers across calls; the pool
// holds pointers so steady-state Get/Put never allocates.
type gemmScratch struct{ buf []float64 }

var gemmPool sync.Pool

func getGemmScratch(n int) *gemmScratch {
	if v := gemmPool.Get(); v != nil {
		s := v.(*gemmScratch)
		if cap(s.buf) >= n {
			s.buf = s.buf[:n]
			return s
		}
	}
	return &gemmScratch{buf: make([]float64, n)}
}

func putGemmScratch(s *gemmScratch) { gemmPool.Put(s) }

// panelSlab is rows [l0, l0+kcb) of the packed B panel that starts at
// column j0 — one microkernel call's B operand.
func panelSlab(bp []float64, j0, k, l0, kcb int) []float64 {
	boff := j0*k + l0*gemmNR
	return bp[boff : boff+kcb*gemmNR : boff+kcb*gemmNR]
}

// sweepPairGo runs one packed A row pair (ap, one KC slab of it starting
// at l0) against every B panel through the Go microkernel: cr0 and cr1
// are the pair's C rows from the first of the n columns on. The padded
// last panel runs the full-width kernel on a stack tile seeded from C and
// keeps only the real columns; the pad lanes multiply packed zeros.
// sweepPair (per architecture, gemm_micro_*.go) is what the driver calls.
func sweepPairGo(cr0, cr1, ap, bp []float64, k, l0, n int) {
	kcb := len(ap) / gemmMR
	nFull := n &^ (gemmNR - 1)
	for j0 := 0; j0 < nFull; j0 += gemmNR {
		micro2x4((*[4]float64)(cr0[j0:]), (*[4]float64)(cr1[j0:]), ap, panelSlab(bp, j0, k, l0, kcb))
	}
	if nTail := n - nFull; nTail > 0 {
		var t0, t1 [gemmNR]float64
		copy(t0[:nTail], cr0[nFull:n])
		copy(t1[:nTail], cr1[nFull:n])
		micro2x4(&t0, &t1, ap, panelSlab(bp, nFull, k, l0, kcb))
		copy(cr0[nFull:n], t0[:nTail])
		copy(cr1[nFull:n], t1[:nTail])
	}
}

// sweepRowGo is sweepPairGo for the single row an odd row count leaves.
func sweepRowGo(cr0, ap, bp []float64, k, l0, n int) {
	kcb := len(ap)
	nFull := n &^ (gemmNR - 1)
	for j0 := 0; j0 < nFull; j0 += gemmNR {
		micro1x4((*[4]float64)(cr0[j0:]), ap, panelSlab(bp, j0, k, l0, kcb))
	}
	if nTail := n - nFull; nTail > 0 {
		var t0 [gemmNR]float64
		copy(t0[:nTail], cr0[nFull:n])
		micro1x4(&t0, ap, panelSlab(bp, nFull, k, l0, kcb))
		copy(cr0[nFull:n], t0[:nTail])
	}
}

// gemmPackedRange runs the packed engine over output rows [lo, hi) and
// the n columns starting at column jOff of a destination with row
// stride ldc. bp holds those n columns of B in panel layout; a supplies
// logical A rows. With acc the products accumulate into the existing C
// values (seeding each element's chain), otherwise the rows are zeroed
// first. The epilogue runs per MC row block, after the block's last KC
// slab.
func gemmPackedRange(c []float64, a aSource, bp []float64, k, n, ldc, jOff, lo, hi int, acc bool, epi epilogue) {
	if !acc {
		for i := lo; i < hi; i++ {
			row := c[i*ldc+jOff : i*ldc+jOff+n]
			for j := range row {
				row[j] = 0
			}
		}
	}
	var ap [gemmMR * gemmKC]float64
	mc, kc := tileParams(hi-lo, k, n)
	for i0 := lo; i0 < hi; i0 += mc {
		iEnd := i0 + mc
		if iEnd > hi {
			iEnd = hi
		}
		for l0 := 0; l0 < k; l0 += kc {
			l1 := l0 + kc
			if l1 > k {
				l1 = k
			}
			kcb := l1 - l0
			for r0 := i0; r0 < iEnd; r0 += gemmMR {
				if r0+gemmMR <= iEnd {
					a.pack(ap[:], r0, 2, l0, l1)
					sweepPair(c[r0*ldc+jOff:], c[(r0+1)*ldc+jOff:], ap[:kcb*2:kcb*2], bp, k, l0, n)
				} else {
					a.pack(ap[:], r0, 1, l0, l1)
					sweepRow(c[r0*ldc+jOff:], ap[:kcb:kcb], bp, k, l0, n)
				}
			}
		}
		epi.apply(c, ldc, jOff, n, i0, iEnd)
	}
}

// gemmPackedSerial packs B into pooled scratch and runs the engine over
// all m rows on the calling goroutine — the packed tier behind the
// *Into entry points, whose callers manage their own parallelism.
func gemmPackedSerial(c []float64, a aSource, b []float64, bTrans bool, m, k, n int, acc bool, epi epilogue) {
	s := getGemmScratch(packedBLen(k, n))
	if bTrans {
		packBTransPanels(s.buf, b, k, n)
	} else {
		packBPanels(s.buf, b, k, n)
	}
	gemmPackedRange(c, a, s.buf, k, n, n, 0, 0, m, acc, epi)
	putGemmScratch(s)
}

// gemmPackedParallel packs B once (pooled scratch) and shards the output
// rows across the worker pool at MR-pair-aligned boundaries, so shards
// carry whole microkernel tiles. Serial calls skip the closure entirely
// to stay allocation-free.
func gemmPackedParallel(c []float64, a aSource, b []float64, bTrans bool, m, k, n int, acc bool, epi epilogue) {
	grain := matmulGrain(k, n)
	if parallel.ShardsAligned(m, gemmMR, grain) <= 1 {
		gemmPackedSerial(c, a, b, bTrans, m, k, n, acc, epi)
		return
	}
	s := getGemmScratch(packedBLen(k, n))
	if bTrans {
		packBTransPanels(s.buf, b, k, n)
	} else {
		packBPanels(s.buf, b, k, n)
	}
	bp := s.buf
	parallel.ForAligned(m, gemmMR, grain, func(lo, hi int) {
		gemmPackedRange(c, a, bp, k, n, n, 0, lo, hi, acc, epi)
	})
	putGemmScratch(s)
}

// LinearForward computes dst = x·Wᵀ + bias with an optional fused
// activation: x is n×in, w is out×in (the Torch nn.Linear layout), bias
// has length out (nil for none), dst is n×out. Bias and activation are
// applied in the epilogue as each row block leaves the microkernel —
// bitwise identical to MatMulTransB followed by a bias pass and the
// activation layer, with two full passes over dst saved.
func LinearForward(dst, x, w *Tensor, bias []float64, act EpilogueAct) {
	m, k, n := checkTransBShapes(dst, x, w, "LinearForward")
	if bias != nil && len(bias) != n {
		panic("tensor: LinearForward bias length mismatch")
	}
	epi := epilogue{colBias: bias, act: act}
	if usePacked(m, k, n) {
		gemmPackedParallel(dst.Data, aSource{data: x.Data, ld: k}, w.Data, true, m, k, n, false, epi)
		return
	}
	c, a, b := dst.Data, x.Data, w.Data
	if parallel.Shards(m, matmulGrain(k, n)) <= 1 {
		matMulTransBRange(c, a, b, k, n, 0, m, false)
		epi.apply(c, n, 0, n, 0, m)
		return
	}
	parallel.For(m, matmulGrain(k, n), func(lo, hi int) {
		matMulTransBRange(c, a, b, k, n, lo, hi, false)
		epi.apply(c, n, 0, n, lo, hi)
	})
}

// ConvGemmBiasActInto is the serial fused conv forward for one sample:
// dst (outC × oh·ow) = wmat (outC × c·KH·KW) times the implicit im2col
// matrix of img (c,h,w), with per-channel bias (nil for none) and an
// optional activation fused into the epilogue. Column panels are packed
// directly from the image, so the im2col matrix is never materialized.
// Always serial — the batched conv layer calls it from sample shards.
func ConvGemmBiasActInto(dst, wmat, img []float64, c, h, w int, g ConvGeom, outC int, bias []float64, act EpilogueAct) {
	oh, ow := g.OutSize(h, w)
	k := c * g.KH * g.KW
	p := oh * ow
	s := getGemmScratch(packedBLen(k, p))
	packConvPanels(s.buf, img, c, h, w, g, ow, 0, p)
	gemmPackedRange(dst, aSource{data: wmat, ld: k}, s.buf, k, p, p, 0, 0, outC, false, epilogue{rowBias: bias, act: act})
	putGemmScratch(s)
}

// ConvGemmBiasAct is ConvGemmBiasActInto parallelized over output
// pixels: column shards at NR-aligned boundaries, each packing its own
// panels straight from the image. Every output element accumulates in
// the same ascending-l order regardless of the shard plan, so results
// are bitwise identical to the serial form at any worker count. Used
// when the batch is too small to occupy the pool with sample shards.
func ConvGemmBiasAct(dst, wmat, img []float64, c, h, w int, g ConvGeom, outC int, bias []float64, act EpilogueAct) {
	oh, ow := g.OutSize(h, w)
	k := c * g.KH * g.KW
	p := oh * ow
	grain := gemmNR
	if rowWork := outC * k; rowWork > 0 && parRowFlops/rowWork > grain {
		grain = parRowFlops / rowWork
	}
	if parallel.ShardsAligned(p, gemmNR, grain) <= 1 {
		ConvGemmBiasActInto(dst, wmat, img, c, h, w, g, outC, bias, act)
		return
	}
	epi := epilogue{rowBias: bias, act: act}
	parallel.ForAligned(p, gemmNR, grain, func(jLo, jHi int) {
		nCols := jHi - jLo
		s := getGemmScratch(packedBLen(k, nCols))
		packConvPanels(s.buf, img, c, h, w, g, ow, jLo, jHi)
		gemmPackedRange(dst, aSource{data: wmat, ld: k}, s.buf, k, nCols, p, jLo, 0, outC, false, epi)
		putGemmScratch(s)
	})
}

// ConvGradWeightRows adds one sample's share of a convolution's weight
// gradient to rows [lo, hi) of dw (outC × c·KH·KW): dW += gout·colsᵀ with
// gout the sample's output gradient (outC × oh·ow) and cols the im2col
// matrix of img (c,h,w). It is MatMulAccTransBRows on that matrix — same
// bits, same tiers, same use of tile — without the caller having to hold
// the matrix: a shard on the packed tier packs its B panels straight from
// the image, and any other lowers the image into pooled scratch first.
// Serial, for callers that shard the rows.
func ConvGradWeightRows(dw, gout, img []float64, c, h, w int, g ConvGeom, lo, hi int, tile []float64) {
	oh, ow := g.OutSize(h, w)
	p, kr := oh*ow, c*g.KH*g.KW
	if !usePacked(hi-lo, p, kr) {
		s := getGemmScratch(kr * p)
		Im2ColInto(s.buf, img, c, h, w, g)
		MatMulAccTransBRows(dw, gout, s.buf, p, kr, lo, hi, tile)
		putGemmScratch(s)
		return
	}
	s := getGemmScratch(packedBLen(p, kr))
	packConvTransPanels(s.buf, img, c, h, w, g, oh, ow)
	accPackedRows(dw, tile, aSource{data: gout, ld: p}, s.buf, p, kr, lo, hi)
	putGemmScratch(s)
}
