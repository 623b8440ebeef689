//go:build (!amd64 && !arm64) || ndft_noasm

package ndft

// detectTier resolves to the scalar contract path: either the
// architecture has no vector kernels or the ndft_noasm build tag forced
// them off.
func detectTier() kernelTier { return tierScalar }

// The kernel entry points are never reached on the scalar tier (every
// dispatch site gates on activeTier first); the stubs keep the package
// compiling on any architecture.

func kernAdjRows(fhRe, fhIm []float64, n int, xRe, xIm, outRe, outIm []float64) {
	panic("ndft: vector kernel called on scalar tier")
}

func kernAxpyCols(fhRe, fhIm []float64, n int, cols []int, srcRe, srcIm, dstRe, dstIm []float64) {
	panic("ndft: vector kernel called on scalar tier")
}
