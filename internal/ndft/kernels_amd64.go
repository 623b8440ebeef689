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

func cpuidex(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
func xgetbv0() (eax, edx uint32)

// detectTier resolves the best amd64 kernel tier the CPU and OS
// support: AVX2 with ymm state, else the scalar contract path.
func detectTier() kernelTier {
	maxID, _, _, _ := cpuidex(0, 0)
	if maxID < 7 {
		return tierScalar
	}
	_, _, c1, _ := cpuidex(1, 0)
	const osxsave = 1 << 27
	if c1&osxsave == 0 {
		return tierScalar
	}
	lo, _ := xgetbv0()
	_, b7, _, _ := cpuidex(7, 0)
	// AVX2 needs the OS-enabled SSE+AVX state bits (XCR0 bits 1-2) and
	// the leaf-7 AVX2 flag.
	const avx2 = 1 << 5
	if lo&0x6 == 0x6 && b7&avx2 != 0 {
		return tierAVX2
	}
	return tierScalar
}
