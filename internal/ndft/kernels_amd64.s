//go:build !ndft_noasm

// AVX2 (ymm) solver kernels plus the CPUID/XGETBV probes behind
// detectTier. Every lane executes the EXACT scalar operation sequence
// of the fixed-K adjoint-dot contract (cdot in plan.go): four
// accumulator chains, element i feeding chain i mod 4, the tail and the
// pinned (s0+s1)+(s2+s3) fold left to the Go wrapper — separate
// multiply and add/subtract instructions, no FMA, which would change
// rounding. Lane-wise vector arithmetic is bit-identical to scalar
// arithmetic, so every tier returns the same solver results; see
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

// func dotVec4(aRe, aIm, xRe, xIm *float64, k4 int, part *float64)
//
// The adjoint dot's vector body: the four cdot accumulator chains run
// across the four ymm lanes (lane c = chain c, element 4i+c), each lane
// performing the scalar chain arithmetic exactly. Runs the k4 = k&^3 main-loop
// elements only; the Go wrapper (adjDot) adds the tail into chain 0 and
// applies the pinned fold. part receives the 8 raw partial sums
// (sr0..sr3, si0..si3).
TEXT ·dotVec4(SB), NOSPLIT, $0-48
	MOVQ aRe+0(FP), SI
	MOVQ aIm+8(FP), DI
	MOVQ xRe+16(FP), R8
	MOVQ xIm+24(FP), R9
	MOVQ k4+32(FP), CX

	VXORPD Y0, Y0, Y0 // sr chains
	VXORPD Y1, Y1, Y1 // si chains

	XORQ AX, AX // byte offset

	SHLQ $3, CX // k4*8 bytes
	JMP  vcheck

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
	CMPQ AX, CX
	JLT  vloop

	MOVQ    part+40(FP), R10
	VMOVUPD Y0, (R10)
	VMOVUPD Y1, 32(R10)
	VZEROUPPER
	RET

// func axpyCol4(rowRe, rowIm *float64, cr, ci float64, dstRe, dstIm *float64, n4 int)
//
// The forward column accumulation: dst[i] += conj(row[i])·(cr+i·ci)
// elementwise across ymm lanes, in the sign-folded form of the scalar
// forwardResid body (dstRe += ar*cr + rowIm*ci, dstIm += ar*ci −
// rowIm*cr — exact: IEEE negation is exact and x−(−y) ≡ x+y).
// Elementwise, so there are no chains to preserve; the Go wrapper
// (axpyCol) handles the n&3 tail.
TEXT ·axpyCol4(SB), NOSPLIT, $0-56
	MOVQ         rowRe+0(FP), SI
	MOVQ         rowIm+8(FP), DI
	VBROADCASTSD cr+16(FP), Y2
	VBROADCASTSD ci+24(FP), Y3
	MOVQ         dstRe+32(FP), R8
	MOVQ         dstIm+40(FP), R9
	MOVQ         n4+48(FP), CX

	XORQ AX, AX // byte offset
	SHLQ $3, CX // n4*8 bytes
	JMP  accheck

acloop:
	VMOVUPD (SI)(AX*1), Y4 // ar
	VMOVUPD (DI)(AX*1), Y5 // rowIm

	// dstRe += ar*cr + rowIm*ci
	VMULPD  Y2, Y4, Y6
	VMULPD  Y3, Y5, Y7
	VADDPD  Y7, Y6, Y6
	VMOVUPD (R8)(AX*1), Y8
	VADDPD  Y6, Y8, Y8
	VMOVUPD Y8, (R8)(AX*1)

	// dstIm += ar*ci − rowIm*cr
	VMULPD  Y3, Y4, Y6
	VMULPD  Y2, Y5, Y7
	VSUBPD  Y7, Y6, Y6
	VMOVUPD (R9)(AX*1), Y8
	VADDPD  Y6, Y8, Y8
	VMOVUPD Y8, (R9)(AX*1)

	ADDQ $32, AX

accheck:
	CMPQ AX, CX
	JLT  acloop

	VZEROUPPER
	RET
