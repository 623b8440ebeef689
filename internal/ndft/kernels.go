package ndft

import "os"

// kernelTier identifies the SIMD kernel family the solver hot loops run
// on this machine. Exactly one tier is active per process, resolved once
// at init (CPUID on amd64, architecture on arm64) and clamped by the
// CHRONOS_NDFT_KERNEL environment variable (downgrade-only, so a forced
// tier can never select instructions the CPU lacks). Every tier — the
// scalar fallback included — implements the same fixed-K accumulation
// contract (see cdot), so the tier changes throughput, never results.
type kernelTier uint8

const (
	tierScalar kernelTier = iota
	tierAVX2
	tierNEON
)

// String returns the tier name used by VectorKernel, the
// CHRONOS_NDFT_KERNEL variable, BENCH output, and the obs snapshot.
func (t kernelTier) String() string {
	switch t {
	case tierAVX2:
		return "avx2"
	case tierNEON:
		return "neon"
	}
	return "scalar"
}

// activeTier is the resolved kernel tier. Mutate only through
// setKernelTier (tests/benches); the solver reads it on every adjoint
// dot and column accumulation.
var activeTier = resolveTier()

// resolveTier detects the best tier the hardware supports and applies
// the CHRONOS_NDFT_KERNEL clamp. The clamp is downgrade-only: it can
// force the scalar contract path (CI does), never select an unsupported
// tier.
func resolveTier() kernelTier {
	t := detectTier()
	if name := os.Getenv("CHRONOS_NDFT_KERNEL"); name != "" {
		if req, ok := parseTier(name); ok {
			t = clampTier(t, req)
		}
	}
	return t
}

func parseTier(name string) (kernelTier, bool) {
	switch name {
	case "scalar":
		return tierScalar, true
	case "avx2":
		return tierAVX2, true
	case "neon":
		return tierNEON, true
	}
	return tierScalar, false
}

// clampTier resolves a requested tier against the detected one:
// requests for the detected tier or the scalar fallback are honored;
// anything else (an upgrade, or a cross-architecture tier) keeps the
// detection.
func clampTier(detected, requested kernelTier) kernelTier {
	if requested == detected || requested == tierScalar {
		return requested
	}
	return detected
}

// setKernelTier is the test/bench hook behind ForceKernel: it swaps the
// active tier (clamped against detection), returning the previous tier.
// Not safe to call concurrently with solves.
func setKernelTier(t kernelTier) kernelTier {
	prev := activeTier
	activeTier = clampTier(detectTier(), t)
	return prev
}

// VectorKernel reports the active SIMD kernel tier as a string: "avx2",
// "neon", or "scalar". Every tier returns byte-identical solver results;
// the tier determines only throughput. Campaign snapshots and the host
// record of benchmark runs carry this value.
func VectorKernel() string { return activeTier.String() }

// ForceKernel forces the kernel tier by name ("scalar", "avx2", "neon")
// and returns the previously active tier's name. The request is clamped
// downgrade-only against the detected hardware — forcing an unavailable
// tier is an error, so a successful call always means subsequent solves
// run the named tier. It exists for benchmarks and tests that A/B tiers
// in one process (the CHRONOS_NDFT_KERNEL environment variable is the
// process-level equivalent); it is not safe to call concurrently with
// solves.
func ForceKernel(name string) (prev string, err error) {
	req, ok := parseTier(name)
	if !ok {
		return activeTier.String(), errUnknownKernel
	}
	if clampTier(detectTier(), req) != req {
		return activeTier.String(), errKernelUnavailable
	}
	return setKernelTier(req).String(), nil
}

// adjDot is the solver's adjoint inner product Σ a[k]·x[k] (planar, no
// conjugation), dispatched on the active tier. The accumulation-chain
// layout is a fixed contract shared by every implementation: K=4
// partial sums, element i feeding chain i mod 4 through the stride-4
// main loop, the tail (k mod 4 elements) feeding chain 0 sequentially,
// and the pinned fold (s0+s1)+(s2+s3). cdot is the scalar reference;
// the SIMD tiers run the four chains in vector lanes and leave the tail
// and fold to this wrapper, so scalar and vector paths are
// byte-identical to each other on every tier.
func adjDot(aRe, aIm, xRe, xIm []float64) (float64, float64) {
	k := len(aRe)
	if activeTier == tierScalar || k < 8 {
		return cdot(aRe, aIm, xRe, xIm)
	}
	aIm = aIm[:k]
	xRe = xRe[:k]
	xIm = xIm[:k]
	var p [8]float64 // sr0..sr3, si0..si3
	k4 := k &^ 3
	kernAdjDot(&aRe[0], &aIm[0], &xRe[0], &xIm[0], k4, &p[0])
	sr0, si0 := p[0], p[4]
	for i := k4; i < k; i++ {
		sr0 += aRe[i]*xRe[i] - aIm[i]*xIm[i]
		si0 += aRe[i]*xIm[i] + aIm[i]*xRe[i]
	}
	return (sr0 + p[1]) + (p[2] + p[3]), (si0 + p[5]) + (p[6] + p[7])
}

// axpyCol accumulates one scaled conjugated dictionary column into the
// residual: dst[i] += conj(row[i])·(cr+i·ci) elementwise, the inner
// loop of forwardResid, dispatched on the active tier. The operation is
// elementwise — no accumulation chains — so the vector form is
// trivially bit-identical to the scalar loop (the sign-folded form
// dstRe += ar·cr + rowIm·ci is exact: IEEE negation is exact and
// x−(−y) ≡ x+y).
func axpyCol(rowRe, rowIm []float64, cr, ci float64, dstRe, dstIm []float64) {
	n := len(rowRe)
	rowIm = rowIm[:n]
	dstRe = dstRe[:n]
	dstIm = dstIm[:n]
	i := 0
	if activeTier != tierScalar && n >= 8 {
		n4 := n &^ 3
		kernAxpyCol(&rowRe[0], &rowIm[0], cr, ci, &dstRe[0], &dstIm[0], n4)
		i = n4
	}
	for ; i < n; i++ {
		ar := rowRe[i]
		ai := -rowIm[i] // F[i][j] = conj(Fᴴ[j][i])
		dstRe[i] += ar*cr - ai*ci
		dstIm[i] += ar*ci + ai*cr
	}
}
