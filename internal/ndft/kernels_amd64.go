//go:build amd64 && !ndft_noasm

package ndft

// The AVX2 (ymm) solver kernels behind adjRows and axpyCols:
// kernAdjRows runs the full cdot contract for every row of a run, and
// kernAxpyCols keeps each 4-element residual chunk in registers while
// it adds every listed column. The callers check every length; the
// kernels never run on the scalar tier. See kernels_amd64.s.
//
//go:noescape
func kernAdjRows(fhRe, fhIm []float64, n int, xRe, xIm, outRe, outIm []float64)

//go:noescape
func kernAxpyCols(fhRe, fhIm []float64, n int, cols []int, srcRe, srcIm, dstRe, dstIm []float64)

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
