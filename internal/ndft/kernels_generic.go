//go:build (!amd64 && !arm64) || ndft_noasm

package ndft

// detectTier resolves to the scalar contract path: either the
// architecture has no vector kernels or the ndft_noasm build tag forced
// them off.
func detectTier() kernelTier { return tierScalar }

// The kernel entry points are never reached on the scalar tier (every
// dispatch site gates on activeTier first); the stubs keep the package
// compiling on any architecture.

func kernAdjDot(aRe, aIm, xRe, xIm *float64, k4 int, part *float64) {
	panic("ndft: vector kernel called on scalar tier")
}

func kernAxpyCol(rowRe, rowIm *float64, cr, ci float64, dstRe, dstIm *float64, n4 int) {
	panic("ndft: vector kernel called on scalar tier")
}
