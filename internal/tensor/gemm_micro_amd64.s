//go:build amd64 && !purego

#include "textflag.h"

// AVX2 forms of the packed engine's microkernels (gemm_micro.go holds the
// contract and the Go kernels these are tested against, gemm_micro_amd64.go
// the declarations) and, at the end of the file, of the skinny tier's row
// folds and dot8. The four columns of a B panel are the four lanes of a YMM
// register, so a lane is one C element and each step performs, per
// element, the scalar kernel's two roundings in its order: the product
// (VMULPD), then accumulator + product (VADDPD, accumulator as first
// source). There is no fused multiply-add in this file and there must
// never be one — it rounds once where the Go kernels round twice
// (scripts/check.sh greps for it).
//
// Every microkernel runs min(len(ap)/MR, len(bp)/NR) steps, the trip
// count of the Go loops. Every kernel loads and stores its C unaligned
// and clears the upper YMM state before returning to SSE code. The
// instructions are all in AVX proper; the gate (cpuHasAVX2) asks for
// AVX2 because that is the class of core these were measured on.

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// One l step of a two-row tile. AX points at the A pair (a0, a1), BX at
// the panel row, R8 at the adjacent panel's row; Y0/Y1 are row 0's
// accumulators, Y2/Y3 row 1's.
#define STEP2x8(a0, a1, b) \
	VBROADCASTSD a0(AX), Y8; \
	VBROADCASTSD a1(AX), Y9; \
	VMOVUPD      b(BX), Y10; \
	VMOVUPD      b(R8), Y11; \
	VMULPD       Y10, Y8, Y12; \
	VMULPD       Y11, Y8, Y13; \
	VMULPD       Y10, Y9, Y14; \
	VMULPD       Y11, Y9, Y15; \
	VADDPD       Y12, Y0, Y0; \
	VADDPD       Y13, Y1, Y1; \
	VADDPD       Y14, Y2, Y2; \
	VADDPD       Y15, Y3, Y3

#define STEP2x4(a0, a1, b) \
	VBROADCASTSD a0(AX), Y8; \
	VBROADCASTSD a1(AX), Y9; \
	VMOVUPD      b(BX), Y10; \
	VMULPD       Y10, Y8, Y12; \
	VMULPD       Y10, Y9, Y14; \
	VADDPD       Y12, Y0, Y0; \
	VADDPD       Y14, Y2, Y2

// One l step of a single-row tile: AX points at the A element.
#define STEP1x8(a0, b) \
	VBROADCASTSD a0(AX), Y8; \
	VMULPD       b(BX), Y8, Y12; \
	VMULPD       b(R8), Y8, Y13; \
	VADDPD       Y12, Y0, Y0; \
	VADDPD       Y13, Y1, Y1

#define STEP1x4(a0, b) \
	VBROADCASTSD a0(AX), Y8; \
	VMULPD       b(BX), Y8, Y12; \
	VADDPD       Y12, Y0, Y0

// func micro2x8AVX2(c0, c1 *[8]float64, ap, bp0, bp1 []float64)
TEXT ·micro2x8AVX2(SB), NOSPLIT, $0-88
	MOVQ    c0+0(FP), DI
	MOVQ    c1+8(FP), SI
	MOVQ    ap_base+16(FP), AX
	MOVQ    ap_len+24(FP), CX
	MOVQ    bp0_base+40(FP), BX
	MOVQ    bp0_len+48(FP), DX
	MOVQ    bp1_base+64(FP), R8
	MOVQ    bp1_len+72(FP), R9
	SHRQ    $1, CX
	SHRQ    $2, DX
	SHRQ    $2, R9
	CMPQ    DX, CX
	CMOVQLT DX, CX
	CMPQ    R9, CX
	CMOVQLT R9, CX
	VMOVUPD (DI), Y0
	VMOVUPD 32(DI), Y1
	VMOVUPD (SI), Y2
	VMOVUPD 32(SI), Y3
	SUBQ    $4, CX
	JLT     tail

loop4:
	STEP2x8(0, 8, 0)
	STEP2x8(16, 24, 32)
	STEP2x8(32, 40, 64)
	STEP2x8(48, 56, 96)
	ADDQ $64, AX
	ADDQ $128, BX
	ADDQ $128, R8
	SUBQ $4, CX
	JGE  loop4

tail:
	ADDQ $4, CX
	JZ   done

loop1:
	STEP2x8(0, 8, 0)
	ADDQ $16, AX
	ADDQ $32, BX
	ADDQ $32, R8
	DECQ CX
	JNZ  loop1

done:
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, (SI)
	VMOVUPD Y3, 32(SI)
	VZEROUPPER
	RET

// func micro2x4AVX2(c0, c1 *[4]float64, ap, bp []float64)
TEXT ·micro2x4AVX2(SB), NOSPLIT, $0-64
	MOVQ    c0+0(FP), DI
	MOVQ    c1+8(FP), SI
	MOVQ    ap_base+16(FP), AX
	MOVQ    ap_len+24(FP), CX
	MOVQ    bp_base+40(FP), BX
	MOVQ    bp_len+48(FP), DX
	SHRQ    $1, CX
	SHRQ    $2, DX
	CMPQ    DX, CX
	CMOVQLT DX, CX
	VMOVUPD (DI), Y0
	VMOVUPD (SI), Y2
	SUBQ    $4, CX
	JLT     tail

loop4:
	STEP2x4(0, 8, 0)
	STEP2x4(16, 24, 32)
	STEP2x4(32, 40, 64)
	STEP2x4(48, 56, 96)
	ADDQ $64, AX
	ADDQ $128, BX
	SUBQ $4, CX
	JGE  loop4

tail:
	ADDQ $4, CX
	JZ   done

loop1:
	STEP2x4(0, 8, 0)
	ADDQ $16, AX
	ADDQ $32, BX
	DECQ CX
	JNZ  loop1

done:
	VMOVUPD Y0, (DI)
	VMOVUPD Y2, (SI)
	VZEROUPPER
	RET

// func micro1x8AVX2(c0 *[8]float64, ap, bp0, bp1 []float64)
TEXT ·micro1x8AVX2(SB), NOSPLIT, $0-80
	MOVQ    c0+0(FP), DI
	MOVQ    ap_base+8(FP), AX
	MOVQ    ap_len+16(FP), CX
	MOVQ    bp0_base+32(FP), BX
	MOVQ    bp0_len+40(FP), DX
	MOVQ    bp1_base+56(FP), R8
	MOVQ    bp1_len+64(FP), R9
	SHRQ    $2, DX
	SHRQ    $2, R9
	CMPQ    DX, CX
	CMOVQLT DX, CX
	CMPQ    R9, CX
	CMOVQLT R9, CX
	VMOVUPD (DI), Y0
	VMOVUPD 32(DI), Y1
	SUBQ    $4, CX
	JLT     tail

loop4:
	STEP1x8(0, 0)
	STEP1x8(8, 32)
	STEP1x8(16, 64)
	STEP1x8(24, 96)
	ADDQ $32, AX
	ADDQ $128, BX
	ADDQ $128, R8
	SUBQ $4, CX
	JGE  loop4

tail:
	ADDQ $4, CX
	JZ   done

loop1:
	STEP1x8(0, 0)
	ADDQ $8, AX
	ADDQ $32, BX
	ADDQ $32, R8
	DECQ CX
	JNZ  loop1

done:
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VZEROUPPER
	RET

// func micro1x4AVX2(c0 *[4]float64, ap, bp []float64)
TEXT ·micro1x4AVX2(SB), NOSPLIT, $0-56
	MOVQ    c0+0(FP), DI
	MOVQ    ap_base+8(FP), AX
	MOVQ    ap_len+16(FP), CX
	MOVQ    bp_base+32(FP), BX
	MOVQ    bp_len+40(FP), DX
	SHRQ    $2, DX
	CMPQ    DX, CX
	CMOVQLT DX, CX
	VMOVUPD (DI), Y0
	SUBQ    $4, CX
	JLT     tail

loop4:
	STEP1x4(0, 0)
	STEP1x4(8, 32)
	STEP1x4(16, 64)
	STEP1x4(24, 96)
	ADDQ $32, AX
	ADDQ $128, BX
	SUBQ $4, CX
	JGE  loop4

tail:
	ADDQ $4, CX
	JZ   done

loop1:
	STEP1x4(0, 0)
	ADDQ $8, AX
	ADDQ $32, BX
	DECQ CX
	JNZ  loop1

done:
	VMOVUPD Y0, (DI)
	VZEROUPPER
	RET

// The skinny tier's row folds (foldRows4Go and foldRowGo in
// gemm_skinny.go state the contract and are the reference): c[j]
// accumulates a_r·b_r[j] row after row, four elements of c in the lanes
// of a YMM register, each lane rounding the product (VMULPD) and then
// accumulator + product (VADDPD, accumulator as first source) in the Go
// loop's order. The last CX mod 4 elements take the same steps on
// scalars. CX is min(len(c), len(b0), …) — the Go kernels panic on a
// short row instead — and AX indexes c and every row. R12 walks the
// accumulator's source: c itself, R13 = 32 bytes a step — or, under
// store, a block of +0 words that it never leaves (R13 = 0), so c is
// written without being read.
GLOBL foldZero<>(SB), RODATA|NOPTR, $32

#define FOLDSRC(store) \
	MOVQ    DI, R12; \
	MOVQ    $32, R13; \
	XORQ    R14, R14; \
	LEAQ    foldZero<>(SB), R11; \
	CMPB    store, $0; \
	CMOVQNE R11, R12; \
	CMOVQNE R14, R13

// CX ← min(CX, len).
#define FOLDLEN(len) \
	MOVQ    len, DX; \
	CMPQ    DX, CX; \
	CMOVQLT DX, CX

// acc ← acc + a·b[AX:], in lanes (MUL/ADD packed) or on scalars.
#define FOLDROW(MUL, ADD, b, a, acc, t) \
	MUL (b)(AX*8), a, t; \
	ADD t, acc, acc

// func foldRows4AVX2(c, b0, b1, b2, b3 []float64, a0, a1, a2, a3 float64, store bool)
TEXT ·foldRows4AVX2(SB), NOSPLIT, $0-153
	MOVQ         c_base+0(FP), DI
	MOVQ         c_len+8(FP), CX
	MOVQ         b0_base+24(FP), SI
	MOVQ         b1_base+48(FP), R8
	MOVQ         b2_base+72(FP), R9
	MOVQ         b3_base+96(FP), R10
	FOLDLEN(b0_len+32(FP))
	FOLDLEN(b1_len+56(FP))
	FOLDLEN(b2_len+80(FP))
	FOLDLEN(b3_len+104(FP))
	VBROADCASTSD a0+120(FP), Y4
	VBROADCASTSD a1+128(FP), Y5
	VBROADCASTSD a2+136(FP), Y6
	VBROADCASTSD a3+144(FP), Y7
	FOLDSRC(store+152(FP))
	XORQ         AX, AX
	MOVQ         CX, DX
	ANDQ         $-4, DX
	JZ           tail

loop4:
	VMOVUPD (R12), Y0
	FOLDROW(VMULPD, VADDPD, SI, Y4, Y0, Y1)
	FOLDROW(VMULPD, VADDPD, R8, Y5, Y0, Y1)
	FOLDROW(VMULPD, VADDPD, R9, Y6, Y0, Y1)
	FOLDROW(VMULPD, VADDPD, R10, Y7, Y0, Y1)
	VMOVUPD Y0, (DI)(AX*8)
	ADDQ    R13, R12
	ADDQ    $4, AX
	CMPQ    AX, DX
	JLT     loop4

tail:
	SHRQ $2, R13
	CMPQ AX, CX
	JGE  done

loop1:
	VMOVSD (R12), X0
	FOLDROW(VMULSD, VADDSD, SI, X4, X0, X1)
	FOLDROW(VMULSD, VADDSD, R8, X5, X0, X1)
	FOLDROW(VMULSD, VADDSD, R9, X6, X0, X1)
	FOLDROW(VMULSD, VADDSD, R10, X7, X0, X1)
	VMOVSD X0, (DI)(AX*8)
	ADDQ   R13, R12
	INCQ   AX
	CMPQ   AX, CX
	JLT    loop1

done:
	VZEROUPPER
	RET

// func foldRowAVX2(c, b0 []float64, a0 float64, store bool)
TEXT ·foldRowAVX2(SB), NOSPLIT, $0-57
	MOVQ         c_base+0(FP), DI
	MOVQ         c_len+8(FP), CX
	MOVQ         b0_base+24(FP), SI
	FOLDLEN(b0_len+32(FP))
	VBROADCASTSD a0+48(FP), Y4
	FOLDSRC(store+56(FP))
	XORQ         AX, AX
	MOVQ         CX, DX
	ANDQ         $-4, DX
	JZ           tail

loop4:
	VMOVUPD (R12), Y0
	FOLDROW(VMULPD, VADDPD, SI, Y4, Y0, Y1)
	VMOVUPD Y0, (DI)(AX*8)
	ADDQ    R13, R12
	ADDQ    $4, AX
	CMPQ    AX, DX
	JLT     loop4

tail:
	SHRQ $2, R13
	CMPQ AX, CX
	JGE  done

loop1:
	VMOVSD (R12), X0
	FOLDROW(VMULSD, VADDSD, SI, X4, X0, X1)
	VMOVSD X0, (DI)(AX*8)
	ADDQ   R13, R12
	INCQ   AX
	CMPQ   AX, CX
	JLT    loop1

done:
	VZEROUPPER
	RET

// The skinny tier's M = 1 forward product (dot8 in gemm_skinny.go states
// the contract and is the reference): eight dot products of a against
// the eight k-long rows of b, s[c] = Σ_l a[l]·b_c[l]. A lane is one output
// column, so Y0 holds the chains of columns 0–3 and Y1 those of 4–7,
// each from +0 in ascending l. Two l steps of a row are one 16-byte load;
// rows c and c+2 share a register (VMOVUPD xmm + VINSERTF128), and
// VUNPCKLPD/VUNPCKHPD of rows (0, 2) against rows (1, 3) give the columns
// 0–3 of step l and of step l+1. Each lane then rounds a[l]·b (VMULPD,
// a as first source) and accumulator + product (VADDPD, accumulator as
// first source), step l before step l+1. An odd k takes one more step
// gathered with VMOVSD/VMOVHPD. SI, DI, R8–R13 point at rows 0–7, DX is
// the byte offset of step l in a and every row, CX counts step pairs.
// b must hold 8·len(a) words (the Go wrapper slices it so).

// func dot8AVX2(s *[8]float64, a, b []float64)
TEXT ·dot8AVX2(SB), NOSPLIT, $0-56
	MOVQ   a_base+8(FP), AX
	MOVQ   a_len+16(FP), CX
	MOVQ   b_base+32(FP), SI
	LEAQ   (CX*8), BX
	LEAQ   (SI)(BX*1), DI
	LEAQ   (DI)(BX*1), R8
	LEAQ   (R8)(BX*1), R9
	LEAQ   (R9)(BX*1), R10
	LEAQ   (R10)(BX*1), R11
	LEAQ   (R11)(BX*1), R12
	LEAQ   (R12)(BX*1), R13
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	XORQ   DX, DX
	SHRQ   $1, CX
	JZ     tail

loop2:
	VMOVUPD      (SI)(DX*1), X2
	VINSERTF128  $1, (R8)(DX*1), Y2, Y2
	VMOVUPD      (DI)(DX*1), X3
	VINSERTF128  $1, (R9)(DX*1), Y3, Y3
	VMOVUPD      (R10)(DX*1), X4
	VINSERTF128  $1, (R12)(DX*1), Y4, Y4
	VMOVUPD      (R11)(DX*1), X5
	VINSERTF128  $1, (R13)(DX*1), Y5, Y5
	VBROADCASTSD (AX)(DX*1), Y8
	VBROADCASTSD 8(AX)(DX*1), Y9
	VUNPCKLPD    Y3, Y2, Y6
	VUNPCKHPD    Y3, Y2, Y7
	VUNPCKLPD    Y5, Y4, Y10
	VUNPCKHPD    Y5, Y4, Y11
	VMULPD       Y6, Y8, Y6
	VMULPD       Y10, Y8, Y10
	VMULPD       Y7, Y9, Y7
	VMULPD       Y11, Y9, Y11
	VADDPD       Y6, Y0, Y0
	VADDPD       Y10, Y1, Y1
	VADDPD       Y7, Y0, Y0
	VADDPD       Y11, Y1, Y1
	ADDQ         $16, DX
	DECQ         CX
	JNZ          loop2

tail:
	TESTQ        $1, a_len+16(FP)
	JZ           done
	VMOVSD       (SI)(DX*1), X2
	VMOVHPD      (DI)(DX*1), X2, X2
	VMOVSD       (R8)(DX*1), X3
	VMOVHPD      (R9)(DX*1), X3, X3
	VINSERTF128  $1, X3, Y2, Y2
	VMOVSD       (R10)(DX*1), X4
	VMOVHPD      (R11)(DX*1), X4, X4
	VMOVSD       (R12)(DX*1), X5
	VMOVHPD      (R13)(DX*1), X5, X5
	VINSERTF128  $1, X5, Y4, Y4
	VBROADCASTSD (AX)(DX*1), Y8
	VMULPD       Y2, Y8, Y2
	VMULPD       Y4, Y8, Y4
	VADDPD       Y2, Y0, Y0
	VADDPD       Y4, Y1, Y1

done:
	MOVQ    s+0(FP), DI
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VZEROUPPER
	RET
