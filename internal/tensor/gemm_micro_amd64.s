//go:build amd64 && !purego

#include "textflag.h"

// AVX2 forms of the packed engine's microkernels (gemm_micro.go holds the
// contract and the Go kernels these are tested against, gemm_micro_amd64.go
// the declarations). The four columns of a B panel are the four lanes of
// a YMM register, so a lane is one C element and each step performs, per
// element, the scalar kernel's two roundings in its order: the product
// (VMULPD), then accumulator + product (VADDPD, accumulator as first
// source). There is no fused multiply-add in this file and there must
// never be one — it rounds once where the Go kernels round twice
// (scripts/check.sh greps for it).
//
// Every kernel runs min(len(ap)/MR, len(bp)/NR) steps, the trip count of
// the Go loops, loads and stores its C tile unaligned, and clears the
// upper YMM state before returning to SSE code. The instructions are all
// in AVX proper; the gate (cpuHasAVX2) asks for AVX2 because that is the
// class of core these were measured on.

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
