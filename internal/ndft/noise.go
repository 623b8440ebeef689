package ndft

import (
	"math"
	"sort"

	"chronos/internal/detmath"
	"chronos/internal/dsp"
)

// This file holds ndft's measurement-domain noise estimator. The
// observation model is h = F·p + w with w circular complex Gaussian
// noise. For any grid cell j the adjoint correlation (Fᴴw)ⱼ is a sum of
// n unit-magnitude rotations of the noise samples, so its magnitude is
// Rayleigh with scale σ·√n (σ the per-component noise std). Cells
// carrying no signal draw |(Fᴴ·)ⱼ| from that one Rayleigh law, and the
// MAD — a robust scale statistic over the off-support bins — recovers
// σ·√n as long as the cells a sparse signal (and its grating-lobe
// sidelobes) lifts stay a minority. That holds for noise-dominated
// measurements; strong signals on this highly coherent dictionary leak
// sidelobe mass into most cells and bias the estimate upward, which is
// why the production estimation stack prefers the tof layer's
// pair-spread estimator (exactly signal-free) and treats this one as
// the no-repeated-pairs fallback.

// rayleighMedian and rayleighMAD are the median and the median absolute
// deviation of the unit-scale Rayleigh distribution: med = √(2·ln 2) and
// the numerical solution of F(med+d) − F(med−d) = ½. They calibrate the
// robust statistics below so the returned scale is unbiased on pure
// noise.
const (
	rayleighMedian = 1.1774100226
	rayleighMAD    = 0.4484937750
)

// noiseScaleMAD estimates the Rayleigh scale of a sample of correlation
// magnitudes via the median absolute deviation, which stays calibrated
// when a minority of the cells carry signal mass (the off-support purity
// property the fuzz target pins). mags is sorted in place. Returns 0 for
// empty input.
func noiseScaleMAD(mags []float64) float64 {
	if len(mags) == 0 {
		return 0
	}
	sort.Float64s(mags)
	med := mags[len(mags)/2]
	for i, v := range mags {
		mags[i] = math.Abs(v - med)
	}
	sort.Float64s(mags)
	return mags[len(mags)/2] / rayleighMAD
}

// noiseNormFromScale converts a Rayleigh correlation scale s = σ·√n into
// the expected L2 norm of the length-n noise vector: E‖w‖² = 2nσ² = 2s²,
// so ‖w‖ ≈ s·√2 — independent of both grid and measurement dimensions.
func noiseNormFromScale(s float64) float64 { return s * math.Sqrt2 }

// NoiseFloor estimates the L2 norm of the noise component of measurement
// h from the scale of its adjoint-correlation magnitudes across the
// delay grid, using the MAD estimator above (a sparse multipath signal
// lifts a minority of cells; the robust scale tracks the noise law of
// the rest). The returned value is directly comparable to
// Result.Residual: a solve converged to the noise floor leaves a
// residual of about this norm. It is scale-equivariant —
// NoiseFloor(c·h) = |c|·NoiseFloor(h) — and costs one dense adjoint
// pass.
func (pl *Plan) NoiseFloor(h dsp.Vec) float64 {
	if len(h) != pl.n {
		return math.NaN()
	}
	w := pl.getWorkspace()
	defer pl.ws.Put(w)
	split(w.hRe, w.hIm, h)
	pl.adjointDense(w, w.hRe, w.hIm)
	// The magnitudes overwrite the real parts they are computed from.
	mags := w.gRe[:pl.m]
	detmath.HypotBatch(mags, mags, w.gIm)
	return noiseNormFromScale(noiseScaleMAD(mags))
}
