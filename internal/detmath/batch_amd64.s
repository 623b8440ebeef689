//go:build !ndft_noasm

// AVX2 (ymm) forms of the scalar ports in detmath.go, four lanes per
// vector, plus the CPUID/XGETBV probes behind detectAVX2. Every lane
// runs its port's operation sequence in the same order: separate
// multiply and add/subtract instructions (no FMA, which rounds once
// where the port rounds twice), IEEE division and square root, and the
// ports' branches as compares and blends over values that are all
// computed. Negation and the sign flips are XORs of the sign bit, as Go
// compiles them. The constants come from the Go tables in
// batch_amd64.go, each broadcast from its 8 bytes.
//
// Each kernel keeps the sign mask in Y15 and the magnitude mask in Y14,
// and Y13 holds the tail quad's lane mask.

#include "textflag.h"

// tailMask holds three all-ones quadwords then three zeros: the four
// quadwords at index 3−r are the VMASKMOVPD mask of lanes [0, r).
DATA tailMask<>+0(SB)/8, $0xffffffffffffffff
DATA tailMask<>+8(SB)/8, $0xffffffffffffffff
DATA tailMask<>+16(SB)/8, $0xffffffffffffffff
DATA tailMask<>+24(SB)/8, $0
DATA tailMask<>+32(SB)/8, $0
DATA tailMask<>+40(SB)/8, $0
GLOBL tailMask<>(SB), RODATA|NOPTR, $48

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

// MASKS sets Y15 to the sign mask and Y14 to the magnitude mask.
#define MASKS \
	VPCMPEQQ Y15, Y15, Y15; \
	VPSRLQ   $1, Y15, Y14; \
	VPSLLQ   $63, Y15, Y15

// TAIL_MASK loads into Y13 the lane mask of the r = CX − AX (1 to 3)
// elements left at AX, and its lane bits into R10. Clobbers R11.
#define TAIL_MASK \
	MOVQ      CX, R10; \
	SUBQ      AX, R10; \
	NEGQ      R10; \
	ADDQ      $3, R10; \
	LEAQ      tailMask<>(SB), R11; \
	VMOVUPD   (R11)(R10*8), Y13; \
	VMOVMSKPD Y13, R10

// POLY_STEP(K, OFF, ACC, T) is one Horner step ACC = ACC·K + c with c
// broadcast from OFF(R8): the product rounds before the addition, as
// the ports' float64(...) conversions round it.
#define POLY_STEP(K, OFF, ACC, T) \
	VMULPD       K, ACC, ACC; \
	VBROADCASTSD OFF(R8), T; \
	VADDPD       T, ACC, ACC

// ATAN2_DOMAIN sets R9's low four bits to the lanes of y (Y0) and x
// (Y1) that are both finite and non-zero. Clobbers Y2–Y6.
#define ATAN2_DOMAIN \
	VANDPD       Y14, Y0, Y2; \
	VANDPD       Y14, Y1, Y3; \
	VBROADCASTSD 152(R8), Y4; \
	VCMPPD       $0x12, Y4, Y2, Y5; \
	VCMPPD       $0x12, Y4, Y3, Y6; \
	VANDPD       Y6, Y5, Y5; \
	VXORPD       Y4, Y4, Y4; \
	VCMPPD       $0x1e, Y4, Y2, Y6; \
	VANDPD       Y6, Y5, Y5; \
	VCMPPD       $0x1e, Y4, Y3, Y6; \
	VANDPD       Y6, Y5, Y5; \
	VMOVMSKPD    Y5, R9

// ATAN2_CORE computes Atan2(y, x) into Y0 from y in Y0 and x in Y1,
// lanes in ATAN2_DOMAIN. t = y/x may be ±0 or ±Inf. atan(t) is
// satan(|t|) with t's sign bit, since satan(|t|) ≥ +0 (satan(+0) = +0,
// so t = ±0 returns t, as atan does). satan's three branches share one
// division: the numerator and denominator blend to a/1 (a ≤ 0.66,
// where the division is exact), 1/a (a > tan(3π/8)) or (a−1)/(a+1),
// and the result is (base ± xatan) + more with base and more 0, 0 on
// the first branch, where the additions are exact. π/2 − w is computed
// as π/2 + (−w), which rounds the same. The quadrant fix adds ±π.
// Clobbers Y2–Y12.
#define ATAN2_CORE \
	VDIVPD       Y1, Y0, Y2; \
	VANDPD       Y14, Y2, Y3; \
	VANDPD       Y15, Y2, Y2; \
	VBROADCASTSD 0(R8), Y4; \
	VBROADCASTSD 8(R8), Y5; \
	VCMPPD       $0x12, Y5, Y3, Y5; \
	VBROADCASTSD 16(R8), Y6; \
	VCMPPD       $0x1e, Y6, Y3, Y6; \
	VSUBPD       Y4, Y3, Y7; \
	VADDPD       Y4, Y3, Y8; \
	VBLENDVPD    Y6, Y4, Y7, Y7; \
	VBLENDVPD    Y6, Y3, Y8, Y8; \
	VBLENDVPD    Y5, Y3, Y7, Y7; \
	VBLENDVPD    Y5, Y4, Y8, Y8; \
	VDIVPD       Y8, Y7, Y7; \
	VMULPD       Y7, Y7, Y8; \
	VBROADCASTSD 24(R8), Y9; \
	VMULPD       Y8, Y9, Y9; \
	VBROADCASTSD 32(R8), Y10; \
	VADDPD       Y10, Y9, Y9; \
	POLY_STEP(Y8, 40, Y9, Y10); \
	POLY_STEP(Y8, 48, Y9, Y10); \
	POLY_STEP(Y8, 56, Y9, Y10); \
	VBROADCASTSD 64(R8), Y10; \
	VADDPD       Y10, Y8, Y10; \
	POLY_STEP(Y8, 72, Y10, Y11); \
	POLY_STEP(Y8, 80, Y10, Y11); \
	POLY_STEP(Y8, 88, Y10, Y11); \
	POLY_STEP(Y8, 96, Y10, Y11); \
	VMULPD       Y9, Y8, Y9; \
	VDIVPD       Y10, Y9, Y9; \
	VMULPD       Y9, Y7, Y9; \
	VADDPD       Y7, Y9, Y9; \
	VANDPD       Y15, Y6, Y10; \
	VXORPD       Y10, Y9, Y9; \
	VXORPD       Y10, Y10, Y10; \
	VBROADCASTSD 104(R8), Y11; \
	VBROADCASTSD 112(R8), Y12; \
	VBLENDVPD    Y5, Y10, Y12, Y12; \
	VBLENDVPD    Y6, Y11, Y12, Y12; \
	VADDPD       Y9, Y12, Y12; \
	VBROADCASTSD 120(R8), Y11; \
	VBROADCASTSD 128(R8), Y9; \
	VBLENDVPD    Y5, Y10, Y9, Y9; \
	VBLENDVPD    Y6, Y11, Y9, Y9; \
	VADDPD       Y9, Y12, Y12; \
	VXORPD       Y2, Y12, Y12; \
	VCMPPD       $0x11, Y10, Y1, Y3; \
	VCMPPD       $0x12, Y10, Y12, Y4; \
	VBROADCASTSD 136(R8), Y5; \
	VBROADCASTSD 144(R8), Y6; \
	VBLENDVPD    Y4, Y5, Y6, Y4; \
	VADDPD       Y4, Y12, Y4; \
	VBLENDVPD    Y3, Y4, Y12, Y0

// func kernAtan2(dst, y, x []float64) (done int)
TEXT ·kernAtan2(SB), NOSPLIT, $0-80
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ y_base+24(FP), SI
	MOVQ x_base+48(FP), DX
	LEAQ ·atanK(SB), R8
	MASKS
	MOVQ CX, BX
	ANDQ $-4, BX
	XORQ AX, AX
	JMP  a2check

a2loop:
	VMOVUPD (SI)(AX*8), Y0
	VMOVUPD (DX)(AX*8), Y1
	ATAN2_DOMAIN
	CMPQ    R9, $15
	JNE     a2done
	ATAN2_CORE
	VMOVUPD Y0, (DI)(AX*8)
	ADDQ    $4, AX

a2check:
	CMPQ AX, BX
	JLT  a2loop
	CMPQ AX, CX
	JGE  a2done
	TAIL_MASK
	VMASKMOVPD (SI)(AX*8), Y13, Y0
	VMASKMOVPD (DX)(AX*8), Y13, Y1
	ATAN2_DOMAIN
	ANDQ       R10, R9
	CMPQ       R9, R10
	JNE        a2done
	ATAN2_CORE
	VMASKMOVPD Y0, Y13, (DI)(AX*8)
	MOVQ       CX, AX

a2done:
	MOVQ AX, done+72(FP)
	VZEROUPPER
	RET

// SINCOS_DOMAIN computes |x| into Y1 from x in Y0 and sets R9's low
// four bits to the lanes with 0 < |x| < 2²⁹ (NaN fails). Clobbers Y2,
// Y3.
#define SINCOS_DOMAIN \
	VANDPD       Y14, Y0, Y1; \
	VXORPD       Y2, Y2, Y2; \
	VCMPPD       $0x1e, Y2, Y1, Y2; \
	VBROADCASTSD 32(R8), Y3; \
	VCMPPD       $0x11, Y3, Y1, Y3; \
	VANDPD       Y3, Y2, Y2; \
	VMOVMSKPD    Y2, R9

// SINCOS_CORE computes Sincos(x) into Y0 (sine) and Y1 (cosine) from x
// in Y0 and |x| in Y1, lanes in SINCOS_DOMAIN. The octant runs in int32
// lanes: j = trunc(|x|·4/π), and j' = (j+1)&^1 is j rounded up to even,
// so y = float64(j') is the port's y after its j&1 step. With the octant
// j'&7, bit 1 swaps the sine and cosine polynomials, the sine's sign is
// bit 2 XOR x's sign, and the cosine's bit 2 XOR bit 1: VPSLLQ moves
// bits 1 and 2 of the widened j' into the sign position, where
// VBLENDVPD reads its selector. Clobbers Y2–Y8.
#define SINCOS_CORE \
	VANDPD       Y15, Y0, Y0; \
	VBROADCASTSD 0(R8), Y2; \
	VMULPD       Y2, Y1, Y2; \
	VCVTTPD2DQY  Y2, X3; \
	VPCMPEQD     X4, X4, X4; \
	VPSUBD       X4, X3, X3; \
	VPSRLD       $1, X3, X3; \
	VPSLLD       $1, X3, X3; \
	VCVTDQ2PD    X3, Y2; \
	VPMOVZXDQ    X3, Y3; \
	VPSLLQ       $61, Y3, Y4; \
	VPSLLQ       $62, Y3, Y3; \
	VBROADCASTSD 8(R8), Y5; \
	VMULPD       Y5, Y2, Y5; \
	VSUBPD       Y5, Y1, Y1; \
	VBROADCASTSD 16(R8), Y5; \
	VMULPD       Y5, Y2, Y5; \
	VSUBPD       Y5, Y1, Y1; \
	VBROADCASTSD 24(R8), Y5; \
	VMULPD       Y5, Y2, Y5; \
	VSUBPD       Y5, Y1, Y1; \
	VMULPD       Y1, Y1, Y2; \
	VBROADCASTSD 56(R8), Y5; \
	VMULPD       Y2, Y5, Y5; \
	VBROADCASTSD 64(R8), Y6; \
	VADDPD       Y6, Y5, Y5; \
	POLY_STEP(Y2, 72, Y5, Y6); \
	POLY_STEP(Y2, 80, Y5, Y6); \
	POLY_STEP(Y2, 88, Y5, Y6); \
	POLY_STEP(Y2, 96, Y5, Y6); \
	VBROADCASTSD 104(R8), Y6; \
	VMULPD       Y2, Y6, Y6; \
	VBROADCASTSD 112(R8), Y7; \
	VADDPD       Y7, Y6, Y6; \
	POLY_STEP(Y2, 120, Y6, Y7); \
	POLY_STEP(Y2, 128, Y6, Y7); \
	POLY_STEP(Y2, 136, Y6, Y7); \
	POLY_STEP(Y2, 144, Y6, Y7); \
	VBROADCASTSD 40(R8), Y7; \
	VMULPD       Y2, Y7, Y7; \
	VBROADCASTSD 48(R8), Y8; \
	VSUBPD       Y7, Y8, Y8; \
	VMULPD       Y2, Y2, Y7; \
	VMULPD       Y5, Y7, Y7; \
	VADDPD       Y7, Y8, Y8; \
	VMULPD       Y2, Y1, Y7; \
	VMULPD       Y6, Y7, Y7; \
	VADDPD       Y7, Y1, Y7; \
	VBLENDVPD    Y3, Y8, Y7, Y1; \
	VBLENDVPD    Y3, Y7, Y8, Y2; \
	VXORPD       Y4, Y0, Y0; \
	VANDPD       Y15, Y0, Y0; \
	VXORPD       Y0, Y1, Y0; \
	VXORPD       Y4, Y3, Y3; \
	VANDPD       Y15, Y3, Y3; \
	VXORPD       Y3, Y2, Y1

// func kernSincos(sin, cos, x []float64) (done int)
TEXT ·kernSincos(SB), NOSPLIT, $0-80
	MOVQ sin_base+0(FP), DI
	MOVQ cos_base+24(FP), R12
	MOVQ x_base+48(FP), SI
	MOVQ x_len+56(FP), CX
	LEAQ ·sincosK(SB), R8
	MASKS
	MOVQ CX, BX
	ANDQ $-4, BX
	XORQ AX, AX
	JMP  sccheck

scloop:
	VMOVUPD (SI)(AX*8), Y0
	SINCOS_DOMAIN
	CMPQ    R9, $15
	JNE     scdone
	SINCOS_CORE
	VMOVUPD Y0, (DI)(AX*8)
	VMOVUPD Y1, (R12)(AX*8)
	ADDQ    $4, AX

sccheck:
	CMPQ AX, BX
	JLT  scloop
	CMPQ AX, CX
	JGE  scdone
	TAIL_MASK
	VMASKMOVPD (SI)(AX*8), Y13, Y0
	SINCOS_DOMAIN
	ANDQ       R10, R9
	CMPQ       R9, R10
	JNE        scdone
	SINCOS_CORE
	VMASKMOVPD Y0, Y13, (DI)(AX*8)
	VMASKMOVPD Y1, Y13, (R12)(AX*8)
	MOVQ       CX, AX

scdone:
	MOVQ AX, done+72(FP)
	VZEROUPPER
	RET

// HYPOT_DOMAIN takes |p| into Y0, |q| into Y1 and max(|p|, |q|) into Y2
// from p in Y0 and q in Y1, and sets R9's low four bits to the lanes
// with both finite (NaN fails) and not both zero. Clobbers Y3, Y4.
#define HYPOT_DOMAIN \
	VANDPD       Y14, Y0, Y0; \
	VANDPD       Y14, Y1, Y1; \
	VBROADCASTSD 8(R8), Y2; \
	VCMPPD       $0x12, Y2, Y0, Y3; \
	VCMPPD       $0x12, Y2, Y1, Y4; \
	VANDPD       Y4, Y3, Y3; \
	VMAXPD       Y1, Y0, Y2; \
	VXORPD       Y4, Y4, Y4; \
	VCMPPD       $0x1e, Y4, Y2, Y4; \
	VANDPD       Y4, Y3, Y3; \
	VMOVMSKPD    Y3, R9

// HYPOT_CORE computes max·√(1 + (min/max)²) into Y0 from HYPOT_DOMAIN's
// registers. Clobbers Y3, Y4.
#define HYPOT_CORE \
	VMINPD       Y1, Y0, Y3; \
	VDIVPD       Y2, Y3, Y3; \
	VMULPD       Y3, Y3, Y3; \
	VBROADCASTSD 0(R8), Y4; \
	VADDPD       Y4, Y3, Y3; \
	VSQRTPD      Y3, Y3; \
	VMULPD       Y3, Y2, Y0

// func kernHypot(dst, p, q []float64) (done int)
TEXT ·kernHypot(SB), NOSPLIT, $0-80
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ p_base+24(FP), SI
	MOVQ q_base+48(FP), DX
	LEAQ ·hypotK(SB), R8
	MASKS
	MOVQ CX, BX
	ANDQ $-4, BX
	XORQ AX, AX
	JMP  hycheck

hyloop:
	VMOVUPD (SI)(AX*8), Y0
	VMOVUPD (DX)(AX*8), Y1
	HYPOT_DOMAIN
	CMPQ    R9, $15
	JNE     hydone
	HYPOT_CORE
	VMOVUPD Y0, (DI)(AX*8)
	ADDQ    $4, AX

hycheck:
	CMPQ AX, BX
	JLT  hyloop
	CMPQ AX, CX
	JGE  hydone
	TAIL_MASK
	VMASKMOVPD (SI)(AX*8), Y13, Y0
	VMASKMOVPD (DX)(AX*8), Y13, Y1
	HYPOT_DOMAIN
	ANDQ       R10, R9
	CMPQ       R9, R10
	JNE        hydone
	HYPOT_CORE
	VMASKMOVPD Y0, Y13, (DI)(AX*8)
	MOVQ       CX, AX

hydone:
	MOVQ AX, done+72(FP)
	VZEROUPPER
	RET
