//go:build amd64 && !ndft_noasm

package ndft

// The AVX2 (ymm) solver kernels behind adjQuads, axpyCols, shrinkQuads
// and momentumQuads. kernAdjQuads, kernShrinkQuads and kernMomentumQuads
// each walk a whole quad list in one call, four cells to a vector and a
// partial quad masked to its lanes: kernAdjQuads runs the full cdot
// contract for every cell of a quad on the cell-major Fᴴ, one cell per
// lane, with the drift-bound screen fused and every computed quad
// written to live; kernShrinkQuads and kernMomentumQuads run the
// per-cell passes over the live quads. kernAxpyCols keeps each 4-element
// residual chunk in registers while it adds every listed column, the
// n mod 4 tail as one masked chunk. The callers check every length; the
// kernels never run on the scalar tier. See kernels_amd64.s.
//
//go:noescape
func kernAdjQuads(ftRe, ftIm []float64, m int, quads []int, xRe, xIm, gRe, gIm, yRe, yIm, pRe, pIm, key []float64, thr, c float64, live []int) (nLive, skipped int)

//go:noescape
func kernAxpyCols(fhRe, fhIm []float64, n int, cols []int, srcRe, srcIm, dstRe, dstIm []float64)

//go:noescape
func kernShrinkQuads(live []int, yRe, yIm, pRe, pIm, gRe, gIm []float64, gamma, thr, diffSq, gdot float64) (diffSqOut, gdotOut float64)

// kernMomentumQuads writes each active cell's index to act[k] for the
// k-th active cell and returns k. Its append is branchless, so it may
// write up to three slots past the last active cell: act needs three
// spare slots past one per live cell.
//
//go:noescape
func kernMomentumQuads(live []int, pRe, pIm, gRe, gIm, yRe, yIm []float64, beta float64, act []int) (k int)
