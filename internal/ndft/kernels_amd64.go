//go:build amd64 && !ndft_noasm

package ndft

// The AVX2 (ymm) solver kernels behind adjCells, axpyCols, shrinkRun and
// momentumRun: kernAdjCells runs the full cdot contract for every cell
// of a run on the cell-major Fᴴ, one cell per lane, with the
// drift-bound screen fused; kernAxpyCols keeps each 4-element residual
// chunk in registers while it adds every listed column, the n mod 4 tail
// as one masked chunk; kernShrinkRun and kernMomentumRun run the
// per-cell passes over len(gRe)/4 whole chunks of a run, four cells to a
// vector. The callers check every length; the kernels never run on the
// scalar tier. See kernels_amd64.s.
//
//go:noescape
func kernAdjCells(ftRe, ftIm []float64, m int, xRe, xIm, gRe, gIm, yRe, yIm, pRe, pIm, key []float64, thr, c float64) (skipped int)

//go:noescape
func kernAxpyCols(fhRe, fhIm []float64, n int, cols []int, srcRe, srcIm, dstRe, dstIm []float64)

//go:noescape
func kernShrinkRun(yRe, yIm, pRe, pIm, gRe, gIm []float64, gamma, thr, diffSq, gdot float64) (diffSqOut, gdotOut float64)

// kernMomentumRun writes each active cell's index to act[k] for the
// k-th active cell and returns k; act has one slot per cell.
//
//go:noescape
func kernMomentumRun(pRe, pIm, gRe, gIm, yRe, yIm []float64, beta float64, lo int, act []int) (k int)
