//go:build arm64 && !ndft_noasm

package ndft

// The NEON solver kernels (two 2×float64 q-registers paired per 4-lane
// vector), one row or one column per call. Every lane performs the
// reference scalar accumulator-chain arithmetic exactly, with separate
// multiply and add/subtract instructions like the AVX2 kernels, never
// fused multiply-add, which would change rounding. See kernels_arm64.s.
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

// kernAdjRows runs the adjoint product over a run of rows on the NEON
// tier: dotVecNeon computes each row's four chains over the first n&^3
// elements, and the n mod 4 tail and the pinned fold run here in Go,
// exactly as cdot does them. The caller (adjRows) has checked every
// length.
func kernAdjRows(fhRe, fhIm []float64, n int, xRe, xIm, outRe, outIm []float64) {
	n4 := n &^ 3
	var p [8]float64 // sr0..sr3, si0..si3
	for r := range outRe {
		aRe, aIm := fhRe[r*n:(r+1)*n], fhIm[r*n:(r+1)*n]
		dotVecNeon(&aRe[0], &aIm[0], &xRe[0], &xIm[0], n4, &p[0])
		sr0, si0 := p[0], p[4]
		for i := n4; i < n; i++ {
			// float64(...) keeps each product rounded: no fused
			// multiply-add (see cdot).
			sr0 += float64(aRe[i]*xRe[i]) - float64(aIm[i]*xIm[i])
			si0 += float64(aRe[i]*xIm[i]) + float64(aIm[i]*xRe[i])
		}
		outRe[r], outIm[r] = (sr0+p[1])+(p[2]+p[3]), (si0+p[5])+(p[6]+p[7])
	}
}

// kernAxpyCols adds every listed column into the first n&^3 residual
// elements on the NEON tier, one axpyColNeon call per column in order;
// the caller (axpyCols) has bounds-checked the columns and adds the
// n mod 4 tail.
func kernAxpyCols(fhRe, fhIm []float64, n int, cols []int, srcRe, srcIm, dstRe, dstIm []float64) {
	n4 := n &^ 3
	for _, j := range cols {
		axpyColNeon(&fhRe[j*n], &fhIm[j*n], srcRe[j], srcIm[j], &dstRe[0], &dstIm[0], n4)
	}
}
