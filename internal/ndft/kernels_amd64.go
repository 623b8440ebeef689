//go:build amd64 && !ndft_noasm

package ndft

// The AVX2 (ymm) solver kernels: dotVec4 runs the four cdot accumulator
// chains across ymm lanes and axpyCol4 the elementwise column
// accumulation. See kernels_amd64.s.
//
//go:noescape
func dotVec4(aRe, aIm, xRe, xIm *float64, k4 int, part *float64)

//go:noescape
func axpyCol4(rowRe, rowIm *float64, cr, ci float64, dstRe, dstIm *float64, n4 int)

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

// kernAdjDot / kernAxpyCol dispatch to the AVX2 kernels. Never called
// on the scalar tier.
func kernAdjDot(aRe, aIm, xRe, xIm *float64, k4 int, part *float64) {
	dotVec4(aRe, aIm, xRe, xIm, k4, part)
}

func kernAxpyCol(rowRe, rowIm *float64, cr, ci float64, dstRe, dstIm *float64, n4 int) {
	axpyCol4(rowRe, rowIm, cr, ci, dstRe, dstIm, n4)
}
