//go:build !ndft_noasm

// AVX2 (ymm) solver kernels plus the CPUID/XGETBV probes behind
// detectTier. Every lane executes the EXACT scalar operation sequence
// of the fixed-K adjoint-dot contract (cdot in plan.go): four
// accumulator chains, element i feeding chain i mod 4, the n mod 4 tail
// added into chain 0 in order, and the pinned (s0+s1)+(s2+s3) fold —
// separate multiply and add/subtract instructions, no FMA, which would
// change rounding. Lane-wise vector arithmetic is bit-identical to
// scalar arithmetic, so every tier returns the same solver results; see
// kernels.go.

#include "textflag.h"

// func cpuidex(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuidex(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv0() (eax, edx uint32)
TEXT ·xgetbv0(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// func kernAdjRows(fhRe, fhIm []float64, n int, xRe, xIm, outRe, outIm []float64)
//
// The adjoint product over a run of len(outRe) consecutive rows of the
// row-major block fhRe/fhIm (row stride n). Per row: the four cdot
// accumulator chains run across the four ymm lanes (lane c = chain c,
// element 4i+c) over the first n&^3 elements; the n mod 4 tail is added
// into chain 0 in order with scalar instructions on lane 0; the fold
// (s0+s1)+(s2+s3) runs as two horizontal adds; (re, im) is stored to
// outRe[r], outIm[r]. The caller (adjRows) has checked every length.
TEXT ·kernAdjRows(SB), NOSPLIT, $0-152
	MOVQ fhRe_base+0(FP), SI
	MOVQ fhIm_base+24(FP), DI
	MOVQ n+48(FP), CX
	MOVQ xRe_base+56(FP), R8
	MOVQ xIm_base+80(FP), R9
	MOVQ outRe_base+104(FP), R10
	MOVQ outRe_len+112(FP), R12
	MOVQ outIm_base+128(FP), R11

	MOVQ CX, DX
	ANDQ $-4, DX // n4 = n&^3
	SHLQ $3, DX  // n4*8 bytes
	SHLQ $3, CX  // n*8 bytes: the row stride and the tail bound
	XORQ BX, BX  // row r
	JMP  rcheck

rloop:
	VXORPD Y0, Y0, Y0 // sr chains
	VXORPD Y1, Y1, Y1 // si chains
	XORQ   AX, AX     // byte offset within the row
	JMP    vcheck

vloop:
	VMOVUPD (SI)(AX*1), Y2 // ar
	VMOVUPD (DI)(AX*1), Y3 // ai
	VMOVUPD (R8)(AX*1), Y4 // br
	VMOVUPD (R9)(AX*1), Y5 // bi

	VMULPD Y4, Y2, Y6 // ar*br
	VMULPD Y5, Y3, Y7 // ai*bi
	VSUBPD Y7, Y6, Y6 // ar*br - ai*bi
	VADDPD Y6, Y0, Y0

	VMULPD Y5, Y2, Y6 // ar*bi
	VMULPD Y4, Y3, Y7 // ai*br
	VADDPD Y7, Y6, Y6 // ar*bi + ai*br
	VADDPD Y6, Y1, Y1

	ADDQ $32, AX

vcheck:
	CMPQ AX, DX
	JLT  vloop

	// Split the chains before the scalar tail: a VEX.128 op on X0/X1
	// zeroes the upper ymm half. X0 = (sr0, sr1), X8 = (sr2, sr3),
	// X1 = (si0, si1), X9 = (si2, si3).
	VEXTRACTF128 $1, Y0, X8
	VEXTRACTF128 $1, Y1, X9
	JMP          tcheck

tloop:
	VMOVSD (SI)(AX*1), X2 // ar
	VMOVSD (DI)(AX*1), X3 // ai
	VMOVSD (R8)(AX*1), X4 // br
	VMOVSD (R9)(AX*1), X5 // bi

	VMULSD X4, X2, X6 // ar*br
	VMULSD X5, X3, X7 // ai*bi
	VSUBSD X7, X6, X6 // ar*br - ai*bi
	VADDSD X6, X0, X0 // sr0 += ..., lane 1 (sr1) kept

	VMULSD X5, X2, X6 // ar*bi
	VMULSD X4, X3, X7 // ai*br
	VADDSD X7, X6, X6 // ar*bi + ai*br
	VADDSD X6, X1, X1 // si0 += ..., lane 1 (si1) kept

	ADDQ $8, AX

tcheck:
	CMPQ AX, CX
	JLT  tloop

	VHADDPD X8, X0, X0 // (sr0+sr1, sr2+sr3)
	VHADDPD X9, X1, X1 // (si0+si1, si2+si3)
	VHADDPD X1, X0, X0 // ((sr0+sr1)+(sr2+sr3), (si0+si1)+(si2+si3))
	VMOVSD  X0, (R10)(BX*8)
	VMOVHPD X0, (R11)(BX*8)

	ADDQ CX, SI
	ADDQ CX, DI
	INCQ BX

rcheck:
	CMPQ BX, R12
	JLT  rloop

	VZEROUPPER
	RET

// func kernAxpyCols(fhRe, fhIm []float64, n int, cols []int, srcRe, srcIm, dstRe, dstIm []float64)
//
// The forward product's vector body over the first n&^3 residual
// elements: for each 4-element chunk, load dstRe/dstIm once, add
// conj(Fᴴ[j][chunk])·(srcRe[j]+i·srcIm[j]) for every column j of cols
// in order, in the sign-folded form of the scalar body (dstRe += ar*cr
// + rowIm*ci, dstIm += ar*ci − rowIm*cr — exact: IEEE negation is exact
// and x−(−y) ≡ x+y), and store the chunk once. Each element gets the
// same additions in the same order as the column-by-column scalar loop.
// The caller (axpyCols) has bounds-checked every column and handles the
// n&3 tail.
TEXT ·kernAxpyCols(SB), NOSPLIT, $0-176
	MOVQ fhRe_base+0(FP), SI
	MOVQ fhIm_base+24(FP), DI
	MOVQ n+48(FP), CX
	MOVQ cols_base+56(FP), R8
	MOVQ cols_len+64(FP), R9
	MOVQ srcRe_base+80(FP), R10
	MOVQ srcIm_base+104(FP), R11
	MOVQ dstRe_base+128(FP), R12
	MOVQ dstIm_base+152(FP), R13

	MOVQ CX, DX
	SHRQ $2, DX // chunks left: n>>2
	SHLQ $3, CX // row stride in bytes
	JMP  ccheck

cloop:
	VMOVUPD (R12), Y0 // dstRe chunk
	VMOVUPD (R13), Y1 // dstIm chunk
	XORQ    BX, BX    // column k
	JMP     kcheck

kloop:
	MOVQ         (R8)(BX*8), AX  // j = cols[k]
	VBROADCASTSD (R10)(AX*8), Y2 // cr
	VBROADCASTSD (R11)(AX*8), Y3 // ci
	IMULQ        CX, AX          // row j's byte offset
	VMOVUPD      (SI)(AX*1), Y4  // ar
	VMOVUPD      (DI)(AX*1), Y5  // rowIm

	// dstRe += ar*cr + rowIm*ci
	VMULPD Y2, Y4, Y6
	VMULPD Y3, Y5, Y7
	VADDPD Y7, Y6, Y6
	VADDPD Y6, Y0, Y0

	// dstIm += ar*ci − rowIm*cr
	VMULPD Y3, Y4, Y6
	VMULPD Y2, Y5, Y7
	VSUBPD Y7, Y6, Y6
	VADDPD Y6, Y1, Y1

	INCQ BX

kcheck:
	CMPQ BX, R9
	JLT  kloop

	VMOVUPD Y0, (R12)
	VMOVUPD Y1, (R13)
	ADDQ    $32, SI
	ADDQ    $32, DI
	ADDQ    $32, R12
	ADDQ    $32, R13
	DECQ    DX

ccheck:
	TESTQ DX, DX
	JNZ   cloop

	VZEROUPPER
	RET
