//go:build !ndft_noasm

// NEON solver kernels. A 4-lane logical vector is a pair of 2×float64
// q-registers; every lane performs the reference scalar
// accumulator-chain arithmetic exactly, mirroring the AVX2 bodies
// instruction for instruction. The Go arm64 assembler exposes only the
// fused vector FP forms (VFMLA / VFMLS), and fusing would change
// rounding and break the byte-identity contract — so the non-fused
// FMUL.2D / FADD.2D / FSUB.2D and the DUP-element broadcast are emitted
// as WORD-encoded instructions via the macros below.

#include "textflag.h"

// d = n * m  (FMUL Vd.2D, Vn.2D, Vm.2D)
#define VFMUL2D(m, n, d) WORD $(0x6E60DC00 | (m)<<16 | (n)<<5 | (d))
// d = n + m  (FADD Vd.2D, Vn.2D, Vm.2D)
#define VFADD2D(m, n, d) WORD $(0x4E60D400 | (m)<<16 | (n)<<5 | (d))
// d = n - m  (FSUB Vd.2D, Vn.2D, Vm.2D)
#define VFSUB2D(m, n, d) WORD $(0x4EE0D400 | (m)<<16 | (n)<<5 | (d))
// d.2D = broadcast n.D[0]  (DUP Vd.2D, Vn.D[0])
#define VDUPD0(n, d) WORD $(0x4E080400 | (n)<<5 | (d))

// func dotVecNeon(aRe, aIm, xRe, xIm *float64, k4 int, part *float64)
//
// The adjoint dot's vector body: the four cdot accumulator chains run
// across the four lanes (lane c = chain c, element 4i+c), each lane
// performing the scalar chain arithmetic exactly. Runs the k4 = k&^3
// main-loop elements only; the Go caller (kernAdjRows) adds the tail
// into chain 0 and applies the pinned fold. part receives the 8 raw partial
// sums (sr0..sr3, si0..si3).
TEXT ·dotVecNeon(SB), NOSPLIT, $0-48
	MOVD aRe+0(FP), R0
	MOVD aIm+8(FP), R1
	MOVD xRe+16(FP), R2
	MOVD xIm+24(FP), R3
	MOVD k4+32(FP), R4

	VEOR V0.B16, V0.B16, V0.B16 // sr chains 0/1
	VEOR V1.B16, V1.B16, V1.B16 // sr chains 2/3
	VEOR V2.B16, V2.B16, V2.B16 // si chains 0/1
	VEOR V3.B16, V3.B16, V3.B16 // si chains 2/3

vloop:
	CMP $4, R4
	BLT vdone

	VLD1.P 32(R0), [V4.D2, V5.D2]   // ar
	VLD1.P 32(R1), [V6.D2, V7.D2]   // ai
	VLD1.P 32(R2), [V8.D2, V9.D2]   // br
	VLD1.P 32(R3), [V10.D2, V11.D2] // bi

	VFMUL2D(8, 4, 12)  // ar*br
	VFMUL2D(9, 5, 13)
	VFMUL2D(10, 6, 14) // ai*bi
	VFMUL2D(11, 7, 15)
	VFSUB2D(14, 12, 12) // ar*br - ai*bi
	VFSUB2D(15, 13, 13)
	VFADD2D(12, 0, 0)
	VFADD2D(13, 1, 1)

	VFMUL2D(10, 4, 12) // ar*bi
	VFMUL2D(11, 5, 13)
	VFMUL2D(8, 6, 14)  // ai*br
	VFMUL2D(9, 7, 15)
	VFADD2D(14, 12, 12) // ar*bi + ai*br
	VFADD2D(15, 13, 13)
	VFADD2D(12, 2, 2)
	VFADD2D(13, 3, 3)

	SUB $4, R4
	B   vloop

vdone:
	MOVD part+40(FP), R5
	VST1 [V0.D2, V1.D2, V2.D2, V3.D2], (R5)
	RET

// func axpyColNeon(rowRe, rowIm *float64, cr, ci float64, dstRe, dstIm *float64, n4 int)
//
// The forward column accumulation: dst[i] += conj(row[i])·(cr+i·ci)
// elementwise, in the sign-folded form of the scalar forwardResid body
// (dstRe += ar*cr + rowIm*ci, dstIm += ar*ci - rowIm*cr — exact: IEEE
// negation is exact and x-(-y) ≡ x+y). Elementwise, so
// there are no chains to preserve; the Go caller (axpyCols) handles the
// n&3 tail.
TEXT ·axpyColNeon(SB), NOSPLIT, $0-56
	MOVD  rowRe+0(FP), R0
	MOVD  rowIm+8(FP), R1
	FMOVD cr+16(FP), F2
	VDUPD0(2, 2)
	FMOVD ci+24(FP), F3
	VDUPD0(3, 3)
	MOVD  dstRe+32(FP), R4
	MOVD  dstIm+40(FP), R5
	MOVD  n4+48(FP), R6

acloop:
	CMP $4, R6
	BLT acdone

	VLD1.P 32(R0), [V4.D2, V5.D2] // ar
	VLD1.P 32(R1), [V6.D2, V7.D2] // rowIm

	// dstRe += ar*cr + rowIm*ci
	VFMUL2D(2, 4, 12)
	VFMUL2D(2, 5, 13)
	VFMUL2D(3, 6, 14)
	VFMUL2D(3, 7, 15)
	VFADD2D(14, 12, 12)
	VFADD2D(15, 13, 13)
	VLD1 (R4), [V8.D2, V9.D2]
	VFADD2D(8, 12, 12)
	VFADD2D(9, 13, 13)
	VST1.P [V12.D2, V13.D2], 32(R4)

	// dstIm += ar*ci - rowIm*cr
	VFMUL2D(3, 4, 12)
	VFMUL2D(3, 5, 13)
	VFMUL2D(2, 6, 14)
	VFMUL2D(2, 7, 15)
	VFSUB2D(14, 12, 12)
	VFSUB2D(15, 13, 13)
	VLD1 (R5), [V8.D2, V9.D2]
	VFADD2D(8, 12, 12)
	VFADD2D(9, 13, 13)
	VST1.P [V12.D2, V13.D2], 32(R5)

	SUB $4, R6
	B   acloop

acdone:
	RET
