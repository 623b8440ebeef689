//go:build !ndft_noasm

// AVX2 (ymm) solver kernels; detmath probes the CPU for them. Every
// lane executes the EXACT scalar operation sequence of its reference
// (cdot in plan.go; axpyColsScalar, shrinkRunScalar and
// momentumRunScalar in kernels.go): for the adjoint, one cell per
// lane with four accumulator chains, element i feeding chain i mod 4,
// the n mod 4 tail added into chain 0 in order, and the pinned
// (s0+s1)+(s2+s3) fold — separate multiply and add/subtract
// instructions, no FMA, which would change rounding. Lane-wise vector arithmetic is bit-identical to
// scalar arithmetic, so every tier returns the same solver results; see
// kernels.go.

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

// AXPY_COLUMN adds one column into the residual chunk Y0/Y1 (re/im) in
// the sign-folded form of the scalar body, given the row's ar in Y4,
// rowIm in Y5 and the broadcast cr/ci in Y2/Y3:
// dstRe += ar*cr + rowIm*ci, dstIm += ar*ci − rowIm*cr. Clobbers Y6/Y7.
#define AXPY_COLUMN \
	VMULPD Y2, Y4, Y6; \
	VMULPD Y3, Y5, Y7; \
	VADDPD Y7, Y6, Y6; \
	VADDPD Y6, Y0, Y0; \
	VMULPD Y3, Y4, Y6; \
	VMULPD Y2, Y5, Y7; \
	VSUBPD Y7, Y6, Y6; \
	VADDPD Y6, Y1, Y1

// ADJ_ELEM adds one element of Fᴴ into accumulator chain (SR, SI) of
// each lane, cdot's step: with the four cells' row entries ar/ai in
// Y8/Y9 and the element's x broadcast from OFF(R8)(AX*1) and
// OFF(R9)(AX*1), SR += ar·xr − ai·xi and SI += ar·xi + ai·xr. Then it
// moves the row pointers R12/R13 down one row. Clobbers Y10–Y13.
#define ADJ_ELEM(OFF, SR, SI) \
	VBROADCASTSD OFF(R8)(AX*1), Y10; \
	VBROADCASTSD OFF(R9)(AX*1), Y11; \
	VMULPD       Y10, Y8, Y12; \
	VMULPD       Y11, Y9, Y13; \
	VSUBPD       Y13, Y12, Y12; \
	VADDPD       Y12, SR, SR; \
	VMULPD       Y11, Y8, Y12; \
	VMULPD       Y10, Y9, Y13; \
	VADDPD       Y13, Y12, Y12; \
	VADDPD       Y12, SI, SI; \
	ADDQ         BX, R12; \
	ADDQ         BX, R13

// ADJ_ZERO clears the four chain pairs: sr0..sr3 in Y0–Y3, si0..si3 in
// Y4–Y7.
#define ADJ_ZERO \
	VXORPD Y0, Y0, Y0; \
	VXORPD Y1, Y1, Y1; \
	VXORPD Y2, Y2, Y2; \
	VXORPD Y3, Y3, Y3; \
	VXORPD Y4, Y4, Y4; \
	VXORPD Y5, Y5, Y5; \
	VXORPD Y6, Y6, Y6; \
	VXORPD Y7, Y7, Y7

// ADJ_FOLD folds the chains lane-wise as cdot does, (s0+s1)+(s2+s3):
// the real parts into Y0, the imaginary parts into Y4.
#define ADJ_FOLD \
	VADDPD Y1, Y0, Y0; \
	VADDPD Y3, Y2, Y2; \
	VADDPD Y2, Y0, Y0; \
	VADDPD Y5, Y4, Y4; \
	VADDPD Y7, Y6, Y6; \
	VADDPD Y6, Y4, Y4

// ADJ_KEY computes the cells' screen keys into Y8 from the folded g in
// Y0/Y4 and c broadcast in Y10: √(gr·gr + gi·gi) − c, as
// adjRowsScreened does. Clobbers Y9.
#define ADJ_KEY \
	VMULPD  Y0, Y0, Y8; \
	VMULPD  Y4, Y4, Y9; \
	VADDPD  Y9, Y8, Y8; \
	VSQRTPD Y8, Y8; \
	VSUBPD  Y10, Y8, Y8

// func kernAdjCells(ftRe, ftIm []float64, m int, xRe, xIm, gRe, gIm, yRe, yIm, pRe, pIm, key []float64, thr, c float64) (skipped int)
//
// The adjoint product over a run of len(gRe) consecutive cells of the
// cell-major Fᴴ (ftRe/ftIm start at the run's first cell; row stride m),
// four cells per vector, one cell per lane. Each lane runs cdot's
// contract: element i < n&^3 feeds chain i mod 4 (accumulator pairs
// Y0/Y4 … Y3/Y7), the n mod 4 tail feeds chain 0 in order, and the
// chains fold lane-wise as (s0+s1)+(s2+s3), so there are no horizontal
// adds and no scalar tail. The last len mod 4 cells are one more quad
// with every cell-indexed load and store masked to its lanes (Y14), so
// nothing past the run is read or written.
//
// With a screen (len(key) > 0), a quad whose y and p lanes are all +0
// bit for bit (the OR of the four vectors tests zero) and whose keys are
// all below thr (ordered <, so NaN fails) is skipped: its g is stored as
// +0 and its cells are added to skipped, which accumulates in the
// result slot. A computed quad's keys become √(gr² + gi²) − c. The
// caller (adjCells) has checked every length.
TEXT ·kernAdjCells(SB), NOSPLIT, $0-296
	MOVQ ftRe_base+0(FP), SI
	MOVQ ftIm_base+24(FP), DI
	MOVQ m+48(FP), BX
	SHLQ $3, BX                // row stride in bytes
	MOVQ xRe_base+56(FP), R8
	MOVQ xRe_len+64(FP), CX
	MOVQ xIm_base+80(FP), R9
	MOVQ CX, R11
	ANDQ $-4, R11
	SHLQ $3, R11               // n&^3 elements, in bytes
	SHLQ $3, CX                // n elements, in bytes
	MOVQ gRe_len+112(FP), R10
	ANDQ $-4, R10
	SHLQ $3, R10               // the whole quads, in bytes
	MOVQ $0, skipped+288(FP)
	XORQ DX, DX                // the quad's byte offset in the run
	JMP  qcheck

qloop:
	MOVQ  key_len+256(FP), R12
	TESTQ R12, R12
	JZ    qcompute
	MOVQ    yRe_base+152(FP), R12
	VMOVUPD (R12)(DX*1), Y8
	MOVQ    yIm_base+176(FP), R12
	VORPD   (R12)(DX*1), Y8, Y8
	MOVQ    pRe_base+200(FP), R12
	VORPD   (R12)(DX*1), Y8, Y8
	MOVQ    pIm_base+224(FP), R12
	VORPD   (R12)(DX*1), Y8, Y8
	VPTEST  Y8, Y8
	JNZ     qcompute
	MOVQ         key_base+248(FP), R12
	VMOVUPD      (R12)(DX*1), Y8
	VBROADCASTSD thr+272(FP), Y9
	VCMPPD       $0x11, Y9, Y8, Y8 // key < thr (ordered LT)
	VMOVMSKPD    Y8, R12
	CMPQ         R12, $15
	JNE          qcompute
	VXORPD       Y0, Y0, Y0
	MOVQ         gRe_base+104(FP), R12
	VMOVUPD      Y0, (R12)(DX*1)
	MOVQ         gIm_base+128(FP), R12
	VMOVUPD      Y0, (R12)(DX*1)
	ADDQ         $4, skipped+288(FP)
	JMP          qnext

qcompute:
	ADJ_ZERO
	LEAQ (SI)(DX*1), R12 // the quad's entries of row 0
	LEAQ (DI)(DX*1), R13
	XORQ AX, AX          // element byte offset into x
	JMP  echeck

eloop:
	VMOVUPD (R12), Y8
	VMOVUPD (R13), Y9
	ADJ_ELEM(0, Y0, Y4)
	VMOVUPD (R12), Y8
	VMOVUPD (R13), Y9
	ADJ_ELEM(8, Y1, Y5)
	VMOVUPD (R12), Y8
	VMOVUPD (R13), Y9
	ADJ_ELEM(16, Y2, Y6)
	VMOVUPD (R12), Y8
	VMOVUPD (R13), Y9
	ADJ_ELEM(24, Y3, Y7)
	ADDQ    $32, AX

echeck:
	CMPQ AX, R11
	JLT  eloop
	JMP  tcheck

tloop:
	VMOVUPD (R12), Y8
	VMOVUPD (R13), Y9
	ADJ_ELEM(0, Y0, Y4)
	ADDQ    $8, AX

tcheck:
	CMPQ AX, CX
	JLT  tloop

	ADJ_FOLD
	MOVQ    gRe_base+104(FP), R12
	VMOVUPD Y0, (R12)(DX*1)
	MOVQ    gIm_base+128(FP), R12
	VMOVUPD Y4, (R12)(DX*1)
	MOVQ    key_len+256(FP), R12
	TESTQ   R12, R12
	JZ      qnext
	VBROADCASTSD c+280(FP), Y10
	ADJ_KEY
	MOVQ    key_base+248(FP), R12
	VMOVUPD Y8, (R12)(DX*1)

qnext:
	ADDQ $32, DX

qcheck:
	CMPQ DX, R10
	JLT  qloop

	// The partial quad: r = len&3 cells, lanes [0, r) of the mask Y14,
	// their bits in R10.
	MOVQ      gRe_len+112(FP), R12
	ANDQ      $3, R12
	JZ        done
	NEGQ      R12
	ADDQ      $3, R12 // 3 − r
	LEAQ      tailMask<>(SB), R13
	VMOVUPD   (R13)(R12*8), Y14
	VMOVMSKPD Y14, R10

	MOVQ       key_len+256(FP), R12
	TESTQ      R12, R12
	JZ         pcompute
	MOVQ       yRe_base+152(FP), R12
	VMASKMOVPD (R12)(DX*1), Y14, Y8
	MOVQ       yIm_base+176(FP), R12
	VMASKMOVPD (R12)(DX*1), Y14, Y9
	VORPD      Y9, Y8, Y8
	MOVQ       pRe_base+200(FP), R12
	VMASKMOVPD (R12)(DX*1), Y14, Y9
	VORPD      Y9, Y8, Y8
	MOVQ       pIm_base+224(FP), R12
	VMASKMOVPD (R12)(DX*1), Y14, Y9
	VORPD      Y9, Y8, Y8
	VPTEST     Y8, Y8
	JNZ        pcompute
	MOVQ         key_base+248(FP), R12
	VMASKMOVPD   (R12)(DX*1), Y14, Y8
	VBROADCASTSD thr+272(FP), Y9
	VCMPPD       $0x11, Y9, Y8, Y8
	VMOVMSKPD    Y8, R12
	ANDQ         R10, R12
	CMPQ         R12, R10
	JNE          pcompute
	VXORPD       Y0, Y0, Y0
	MOVQ         gRe_base+104(FP), R12
	VMASKMOVPD   Y0, Y14, (R12)(DX*1)
	MOVQ         gIm_base+128(FP), R12
	VMASKMOVPD   Y0, Y14, (R12)(DX*1)
	MOVQ         gRe_len+112(FP), R12
	ANDQ         $3, R12
	ADDQ         R12, skipped+288(FP)
	JMP          done

pcompute:
	ADJ_ZERO
	LEAQ (SI)(DX*1), R12
	LEAQ (DI)(DX*1), R13
	XORQ AX, AX
	JMP  pecheck

peloop:
	VMASKMOVPD (R12), Y14, Y8
	VMASKMOVPD (R13), Y14, Y9
	ADJ_ELEM(0, Y0, Y4)
	VMASKMOVPD (R12), Y14, Y8
	VMASKMOVPD (R13), Y14, Y9
	ADJ_ELEM(8, Y1, Y5)
	VMASKMOVPD (R12), Y14, Y8
	VMASKMOVPD (R13), Y14, Y9
	ADJ_ELEM(16, Y2, Y6)
	VMASKMOVPD (R12), Y14, Y8
	VMASKMOVPD (R13), Y14, Y9
	ADJ_ELEM(24, Y3, Y7)
	ADDQ       $32, AX

pecheck:
	CMPQ AX, R11
	JLT  peloop
	JMP  ptcheck

ptloop:
	VMASKMOVPD (R12), Y14, Y8
	VMASKMOVPD (R13), Y14, Y9
	ADJ_ELEM(0, Y0, Y4)
	ADDQ       $8, AX

ptcheck:
	CMPQ AX, CX
	JLT  ptloop

	ADJ_FOLD
	MOVQ       gRe_base+104(FP), R12
	VMASKMOVPD Y0, Y14, (R12)(DX*1)
	MOVQ       gIm_base+128(FP), R12
	VMASKMOVPD Y4, Y14, (R12)(DX*1)
	MOVQ       key_len+256(FP), R12
	TESTQ      R12, R12
	JZ         done
	VBROADCASTSD c+280(FP), Y10
	ADJ_KEY
	MOVQ       key_base+248(FP), R12
	VMASKMOVPD Y8, Y14, (R12)(DX*1)

done:
	VZEROUPPER
	RET

// func kernAxpyCols(fhRe, fhIm []float64, n int, cols []int, srcRe, srcIm, dstRe, dstIm []float64)
//
// The forward product over all n residual elements: for each 4-element
// chunk, load dstRe/dstIm once, add conj(Fᴴ[j][chunk])·(srcRe[j]+i·srcIm[j])
// for every column j of cols in order (AXPY_COLUMN — exact: IEEE
// negation is exact and x−(−y) ≡ x+y), and store the chunk once. The
// n mod 4 tail is one more chunk with every load and the store masked to
// its lanes, so it reads and writes nothing past element n of a row or
// of dst. Each element gets the same additions in the same order as the
// column-by-column scalar loop. The caller (axpyCols) has bounds-checked
// every column.
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
	AXPY_COLUMN
	INCQ         BX

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

	// The tail: r = n&3 elements, lanes [0, r) of the mask Y8.
	MOVQ       n+48(FP), DX
	ANDQ       $3, DX
	JZ         done
	NEGQ       DX
	ADDQ       $3, DX // 3 − r
	LEAQ       tailMask<>(SB), AX
	VMOVUPD    (AX)(DX*8), Y8
	VMASKMOVPD (R12), Y8, Y0
	VMASKMOVPD (R13), Y8, Y1
	XORQ       BX, BX
	JMP        tcheck

tloop:
	MOVQ         (R8)(BX*8), AX
	VBROADCASTSD (R10)(AX*8), Y2
	VBROADCASTSD (R11)(AX*8), Y3
	IMULQ        CX, AX
	VMASKMOVPD   (SI)(AX*1), Y8, Y4
	VMASKMOVPD   (DI)(AX*1), Y8, Y5
	AXPY_COLUMN
	INCQ         BX

tcheck:
	CMPQ BX, R9
	JLT  tloop

	VMASKMOVPD Y0, Y8, (R12)
	VMASKMOVPD Y1, Y8, (R13)

done:
	VZEROUPPER
	RET

// func kernShrinkRun(yRe, yIm, pRe, pIm, gRe, gIm []float64, gamma, thr, diffSq, gdot float64) (diffSqOut, gdotOut float64)
//
// gradStep's shrink over len(gRe)/4 chunks of four consecutive cells, the
// lanes running shrinkRunScalar's arithmetic: pr = yr − γ·gr,
// sq = pr² + pi², the non-zero branch (a = √sq, sc = (a − thr)/a,
// n = p·sc) on every lane, then an and-not with the ordered
// sq ≤ thr² mask, so zeroed cells are +0 and NaN takes the non-zero
// branch as in Go. The step Δ = n − p_prev replaces the gradient, n the
// iterate. X9 carries (diffSq, gdot): each cell's (Δr² + Δi²,
// (yr−nr)·Δr + (yi−ni)·Δi) pair is interleaved out of the lanes and
// added to it in cell order, one 2-lane add per cell. The caller
// (shrinkRun) sliced every run to the chunked length.
TEXT ·kernShrinkRun(SB), NOSPLIT, $0-192
	MOVQ         yRe_base+0(FP), SI
	MOVQ         yIm_base+24(FP), DI
	MOVQ         pRe_base+48(FP), R8
	MOVQ         pIm_base+72(FP), R9
	MOVQ         gRe_base+96(FP), R10
	MOVQ         gRe_len+104(FP), DX
	MOVQ         gIm_base+120(FP), R11
	VBROADCASTSD gamma+144(FP), Y12
	VBROADCASTSD thr+152(FP), Y13
	VMULPD       Y13, Y13, Y14 // thr²
	VMOVSD       diffSq+160(FP), X9
	VMOVHPD      gdot+168(FP), X9, X9

	SHRQ $2, DX // chunks
	XORQ AX, AX // byte offset
	JMP  scheck

sloop:
	VMOVUPD (SI)(AX*1), Y0      // yr
	VMOVUPD (DI)(AX*1), Y1      // yi
	VMULPD  (R10)(AX*1), Y12, Y4
	VSUBPD  Y4, Y0, Y4          // pr = yr − γ·gr
	VMULPD  (R11)(AX*1), Y12, Y5
	VSUBPD  Y5, Y1, Y5          // pi = yi − γ·gi
	VMULPD  Y4, Y4, Y6
	VMULPD  Y5, Y5, Y7
	VADDPD  Y7, Y6, Y6          // sq = pr² + pi²
	VCMPPD  $2, Y14, Y6, Y7     // zeroed: sq ≤ thr² (ordered LE)
	VSQRTPD Y6, Y6              // a
	VSUBPD  Y13, Y6, Y8
	VDIVPD  Y6, Y8, Y8          // sc = (a − thr)/a
	VMULPD  Y8, Y4, Y10
	VMULPD  Y8, Y5, Y11
	VANDNPD Y10, Y7, Y10        // nr = zeroed ? +0 : pr·sc
	VANDNPD Y11, Y7, Y11        // ni
	VMOVUPD (R8)(AX*1), Y2
	VMOVUPD (R9)(AX*1), Y3
	VSUBPD  Y2, Y10, Y2         // dr = nr − p_prev
	VSUBPD  Y3, Y11, Y3         // di
	VMOVUPD Y10, (R8)(AX*1)
	VMOVUPD Y11, (R9)(AX*1)
	VMOVUPD Y2, (R10)(AX*1)
	VMOVUPD Y3, (R11)(AX*1)

	VMULPD       Y2, Y2, Y4
	VMULPD       Y3, Y3, Y5
	VADDPD       Y5, Y4, Y4   // dr² + di²
	VSUBPD       Y10, Y0, Y0
	VMULPD       Y2, Y0, Y0
	VSUBPD       Y11, Y1, Y1
	VMULPD       Y3, Y1, Y1
	VADDPD       Y1, Y0, Y0   // (yr−nr)·dr + (yi−ni)·di
	VUNPCKLPD    Y0, Y4, Y5   // cells 0 and 2
	VUNPCKHPD    Y0, Y4, Y6   // cells 1 and 3
	VADDPD       X5, X9, X9
	VADDPD       X6, X9, X9
	VEXTRACTF128 $1, Y5, X5
	VADDPD       X5, X9, X9
	VEXTRACTF128 $1, Y6, X6
	VADDPD       X6, X9, X9

	ADDQ $32, AX
	DECQ DX

scheck:
	TESTQ DX, DX
	JNZ   sloop

	VMOVSD  X9, diffSqOut+176(FP)
	VMOVHPD X9, gdotOut+184(FP)
	VZEROUPPER
	RET

// func kernMomentumRun(pRe, pIm, gRe, gIm, yRe, yIm []float64, beta float64, lo int, act []int) (k int)
//
// endStep's extrapolation over len(gRe)/4 chunks of four consecutive
// cells, the first at cell lo: y = p + β·Δp per lane as
// momentumRunScalar computes it. The active test is an unordered
// y ≠ 0 compare on each half, so a NaN cell stays active. The active
// cells are appended to act in ascending order without a branch: every
// cell's index is written to act[k], and k advances past the active
// ones, so act needs one slot per cell. Returns k.
TEXT ·kernMomentumRun(SB), NOSPLIT, $0-192
	MOVQ         pRe_base+0(FP), SI
	MOVQ         pIm_base+24(FP), DI
	MOVQ         gRe_base+48(FP), R8
	MOVQ         gRe_len+56(FP), DX
	MOVQ         gIm_base+72(FP), R9
	MOVQ         yRe_base+96(FP), R10
	MOVQ         yIm_base+120(FP), R11
	VBROADCASTSD beta+144(FP), Y13
	MOVQ         lo+152(FP), R12 // the next cell's index
	MOVQ         act_base+160(FP), R13
	VXORPD       Y14, Y14, Y14
	XORQ         CX, CX // k

	SHRQ $2, DX // chunks
	XORQ AX, AX // byte offset
	JMP  mcheck

mloop:
	VMULPD    (R8)(AX*1), Y13, Y0
	VMOVUPD   (SI)(AX*1), Y1
	VADDPD    Y0, Y1, Y1      // yr = pr + β·Δr
	VMULPD    (R9)(AX*1), Y13, Y2
	VMOVUPD   (DI)(AX*1), Y3
	VADDPD    Y2, Y3, Y3      // yi = pi + β·Δi
	VMOVUPD   Y1, (R10)(AX*1)
	VMOVUPD   Y3, (R11)(AX*1)
	VCMPPD    $4, Y14, Y1, Y1 // yr ≠ 0 (unordered NEQ)
	VCMPPD    $4, Y14, Y3, Y3
	VORPD     Y3, Y1, Y1
	VMOVMSKPD Y1, BX

	// For each of the four cells: act[k] = cell; k += its mask bit.
	MOVQ R12, (R13)(CX*8)
	BTQ  $0, BX
	ADCQ $0, CX
	INCQ R12
	MOVQ R12, (R13)(CX*8)
	BTQ  $1, BX
	ADCQ $0, CX
	INCQ R12
	MOVQ R12, (R13)(CX*8)
	BTQ  $2, BX
	ADCQ $0, CX
	INCQ R12
	MOVQ R12, (R13)(CX*8)
	BTQ  $3, BX
	ADCQ $0, CX
	INCQ R12

	ADDQ $32, AX
	DECQ DX

mcheck:
	TESTQ DX, DX
	JNZ   mloop

	MOVQ CX, k+184(FP)
	VZEROUPPER
	RET
