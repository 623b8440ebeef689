package ndft

import (
	"math"
	"os"
	"slices"

	"chronos/internal/obs"
)

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
// setKernelTier (tests/benches); the solver reads it on every adjoint,
// shrink and momentum run and every forward product.
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
	obs.SetLabel(kernelLabel, activeTier.String())
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

// adjRows is the solver's adjoint product over a run of consecutive
// dictionary rows: out[r] = Σₖ a_r[k]·x[k] (planar, no conjugation) for
// each row a_r = fh[r·n : (r+1)·n] of the row-major block fhRe/fhIm,
// with len(outRe) rows, dispatched on the active tier. Every row runs
// the fixed-K accumulation contract that cdot defines: K=4 partial
// sums, element i feeding chain i mod 4 through the stride-4 main loop,
// the n mod 4 tail feeding chain 0 in order, and the pinned fold
// (s0+s1)+(s2+s3). The scalar tier loops over cdot; the vector tiers
// run the four chains in vector lanes, so every tier returns the same
// bits per row. One call covers a whole run, so the per-call cost is
// paid once per run of cells, not once per cell.
func adjRows(fhRe, fhIm []float64, n int, xRe, xIm, outRe, outIm []float64) {
	rows := len(outRe)
	fhRe, fhIm = fhRe[:rows*n], fhIm[:rows*n]
	xRe, xIm, outIm = xRe[:n], xIm[:n], outIm[:rows]
	if activeTier != tierScalar && n > 0 && rows > 0 {
		kernAdjRows(fhRe, fhIm, n, xRe, xIm, outRe, outIm)
		return
	}
	for r := range outRe {
		outRe[r], outIm[r] = cdot(fhRe[r*n:(r+1)*n], fhIm[r*n:(r+1)*n], xRe, xIm)
	}
}

// axpyCols accumulates scaled conjugated dictionary columns into the
// residual: dst[i] += conj(Fᴴ[j][i])·src[j] for every column j of cols,
// in the listed order, the forward product of forwardResid. fhRe/fhIm is
// the row-major n-column adjoint, so column j of F is the conjugate of
// the contiguous row j. cols must be ascending (the last one
// bounds-checks them all). The scalar tier runs axpyColsScalar over
// every element; the vector tiers take the whole residual, the AVX2
// kernel as n/4 full chunks plus the n mod 4 tail as one masked chunk
// (VMASKMOVPD, which neither reads nor writes past n), the NEON tier
// with axpyColsScalar on the tail. Each element receives the same
// additions in the same order on every tier: the operation is
// elementwise, and the vector bodies use the sign-folded form
// dstRe += ar·cr + rowIm·ci, which is exact (IEEE negation is exact and
// x−(−y) ≡ x+y).
func axpyCols(fhRe, fhIm []float64, n int, cols []int, srcRe, srcIm, dstRe, dstIm []float64) {
	if len(cols) == 0 {
		return
	}
	last := cols[len(cols)-1]
	fhRe, fhIm = fhRe[:(last+1)*n], fhIm[:(last+1)*n]
	srcRe, srcIm = srcRe[:last+1], srcIm[:last+1]
	dstRe, dstIm = dstRe[:n], dstIm[:n]
	if activeTier != tierScalar && n > 0 {
		kernAxpyCols(fhRe, fhIm, n, cols, srcRe, srcIm, dstRe, dstIm)
		return
	}
	axpyColsScalar(fhRe, fhIm, n, 0, cols, srcRe, srcIm, dstRe, dstIm)
}

// axpyColsScalar is axpyCols' scalar body over the residual elements
// [from, n): the scalar tier runs it from 0, the NEON tier over the
// n mod 4 tail. The caller has bounds-checked every column.
func axpyColsScalar(fhRe, fhIm []float64, n, from int, cols []int, srcRe, srcIm, dstRe, dstIm []float64) {
	for _, j := range cols {
		cr, ci := srcRe[j], srcIm[j]
		rowRe, rowIm := fhRe[j*n:(j+1)*n], fhIm[j*n:(j+1)*n]
		for k := from; k < n; k++ {
			ar := rowRe[k]
			ai := -rowIm[k] // F[k][j] = conj(Fᴴ[j][k])
			// float64(...) keeps each product rounded: no fused
			// multiply-add (see cdot).
			dstRe[k] += float64(ar*cr) - float64(ai*ci)
			dstIm[k] += float64(ar*ci) + float64(ai*cr)
		}
	}
}

// shrinkRun is gradStep's shrink over one run of consecutive working-set
// cells: yRe/yIm, pRe/pIm are the run's cells and gRe/gIm their adjoint
// outputs (len(gRe) cells). Each cell takes the gradient step
// y − γ·g, soft-thresholds it at thr into p, and stores the step
// Δp = p − p_prev in place of its gradient; ‖Δp‖² and the restart
// product ⟨y − p, Δp⟩ are added to diffSq and gdot cell by cell, in run
// order, and returned. shrinkRunScalar is the reference body. On the
// AVX2 tier kernShrinkRun takes the first len&^3 cells four to a vector,
// each lane running the scalar arithmetic exactly: the multiplies,
// subtractions, square root and division round as their scalar forms,
// an ordered ≤ compare and an and-not replace the zero branch (NaN
// takes the non-zero branch, zeroed cells are +0), and each cell's
// (‖Δp‖², ⟨y − p, Δp⟩) terms are added to the sums in order, one 2-lane
// add per cell. shrinkRunScalar finishes the len mod 4 tail from the
// kernel's sums, so every tier returns the same bits.
func shrinkRun(gamma, thr float64, yRe, yIm, pRe, pIm, gRe, gIm []float64, diffSq, gdot float64) (float64, float64) {
	c := 0
	if activeTier == tierAVX2 {
		if c = len(gRe) &^ 3; c > 0 {
			diffSq, gdot = kernShrinkRun(yRe[:c], yIm[:c], pRe[:c], pIm[:c], gRe[:c], gIm[:c], gamma, thr, diffSq, gdot)
		}
	}
	return shrinkRunScalar(gamma, thr, yRe[c:], yIm[c:], pRe[c:], pIm[c:], gRe[c:], gIm[c:], diffSq, gdot)
}

// shrinkRunScalar is the reference shrink: shrinkRun's scalar body, run
// over whole runs on the scalar and NEON tiers and over the AVX2 tier's
// tails. The zero test compares squared magnitudes so the (dominant)
// zeroed cells never pay for a square root.
func shrinkRunScalar(gamma, thr float64, yRe, yIm, pRe, pIm, gRe, gIm []float64, diffSq, gdot float64) (float64, float64) {
	n := len(gRe)
	yRe, yIm, pRe, pIm, gIm = yRe[:n], yIm[:n], pRe[:n], pIm[:n], gIm[:n]
	thrSq := thr * thr
	for c := range gRe {
		yr, yi := yRe[c], yIm[c]
		pr := yr - float64(gamma*gRe[c])
		pi := yi - float64(gamma*gIm[c])
		var nr, ni float64
		// "<=" also zeroes sq==thrSq==0, avoiding 0/0 below; a NaN takes
		// the non-zero branch.
		if sq := float64(pr*pr) + float64(pi*pi); sq <= thrSq {
			nr, ni = 0, 0
		} else {
			a := math.Sqrt(sq)
			sc := (a - thr) / a
			nr, ni = float64(pr*sc), float64(pi*sc)
		}
		dr, di := nr-pRe[c], ni-pIm[c]
		pRe[c], pIm[c] = nr, ni
		gRe[c], gIm[c] = dr, di
		diffSq += float64(dr*dr) + float64(di*di)
		gdot += float64((yr-nr)*dr) + float64((yi-ni)*di)
	}
	return diffSq, gdot
}

// momentumRun is endStep's extrapolation over one run of consecutive
// working-set cells starting at cell lo: y = p + β·Δp for each cell,
// with pRe/pIm, yRe/yIm the run's cells and gRe/gIm their stored steps.
// Each cell whose y is non-zero (NaN counts as non-zero) is appended to
// active, in ascending order, and the grown list is returned.
// momentumRunScalar is the reference body. On the AVX2 tier
// kernMomentumRun takes the first len&^3 cells four to a vector, with
// the multiply and add rounding as their scalar forms and the active
// test an unordered ≠ 0 compare; momentumRunScalar finishes the
// len mod 4 tail.
func momentumRun(beta float64, lo int, pRe, pIm, gRe, gIm, yRe, yIm []float64, active []int) []int {
	c := 0
	if activeTier == tierAVX2 {
		if c = len(gRe) &^ 3; c > 0 {
			active = slices.Grow(active, c)
			k := len(active)
			k += kernMomentumRun(pRe[:c], pIm[:c], gRe[:c], gIm[:c], yRe[:c], yIm[:c], beta, lo, active[k:k+c])
			active = active[:k]
		}
	}
	return momentumRunScalar(beta, lo+c, pRe[c:], pIm[c:], gRe[c:], gIm[c:], yRe[c:], yIm[c:], active)
}

// momentumRunScalar is the reference extrapolation: momentumRun's scalar
// body, run over whole runs on the scalar and NEON tiers and over the
// AVX2 tier's tails.
func momentumRunScalar(beta float64, lo int, pRe, pIm, gRe, gIm, yRe, yIm []float64, active []int) []int {
	n := len(gRe)
	pRe, pIm, gIm, yRe, yIm = pRe[:n], pIm[:n], gIm[:n], yRe[:n], yIm[:n]
	for c := range gRe {
		yr := pRe[c] + float64(beta*gRe[c])
		yi := pIm[c] + float64(beta*gIm[c])
		yRe[c], yIm[c] = yr, yi
		if yr != 0 || yi != 0 {
			active = append(active, lo+c)
		}
	}
	return active
}
