//go:build arm64 && !ndft_noasm

package ndft

// The NEON solver kernels (two 2×float64 q-registers paired per 4-lane
// vector). Every lane performs the reference scalar accumulator-chain
// arithmetic exactly — the NEON bodies mirror the AVX2 ones instruction
// for instruction (separate multiply and add/subtract, never fused
// multiply-add, which would change rounding). See kernels_arm64.s.
//
//go:noescape
func dotVecNeon(aRe, aIm, xRe, xIm *float64, k4 int, part *float64)

//go:noescape
func axpyColNeon(rowRe, rowIm *float64, cr, ci float64, dstRe, dstIm *float64, n4 int)

// detectTier resolves to the NEON tier unconditionally: ASIMD with
// double-precision vectors is an architectural requirement of AArch64,
// so there is nothing to probe (the CHRONOS_NDFT_KERNEL clamp and the
// ndft_noasm build tag remain the ways to force the scalar path).
func detectTier() kernelTier { return tierNEON }

func kernAdjDot(aRe, aIm, xRe, xIm *float64, k4 int, part *float64) {
	dotVecNeon(aRe, aIm, xRe, xIm, k4, part)
}

func kernAxpyCol(rowRe, rowIm *float64, cr, ci float64, dstRe, dstIm *float64, n4 int) {
	axpyColNeon(rowRe, rowIm, cr, ci, dstRe, dstIm, n4)
}
