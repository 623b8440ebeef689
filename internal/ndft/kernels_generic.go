//go:build !amd64 || ndft_noasm

package ndft

// The kernel entry points are never reached on the scalar tier (every
// dispatch site gates on activeTier first, and detectTier never picks
// AVX2 where the architecture is not amd64 or the ndft_noasm build tag
// turned the assembly off); the stubs keep the package compiling on any
// architecture.

func kernAdjCells(ftRe, ftIm []float64, m int, xRe, xIm, gRe, gIm, yRe, yIm, pRe, pIm, key []float64, thr, c float64) int {
	panic("ndft: vector kernel called on scalar tier")
}

func kernAxpyCols(fhRe, fhIm []float64, n int, cols []int, srcRe, srcIm, dstRe, dstIm []float64) {
	panic("ndft: vector kernel called on scalar tier")
}

func kernShrinkRun(yRe, yIm, pRe, pIm, gRe, gIm []float64, gamma, thr, diffSq, gdot float64) (float64, float64) {
	panic("ndft: vector kernel called on scalar tier")
}

func kernMomentumRun(pRe, pIm, gRe, gIm, yRe, yIm []float64, beta float64, lo int, act []int) int {
	panic("ndft: vector kernel called on scalar tier")
}
