package tof

import (
	"math"

	"chronos/internal/csi"
	"chronos/internal/dsp"
)

// Per-sweep noise estimation. Every band dwell captures several CSI
// pairs of the same (quasi-static) channel, and BandValue folds them
// into one mean value; the spread of the per-pair folded values around
// that mean is therefore a direct, signal-free measurement of the
// effective noise on the band value — it includes thermal noise,
// interpolation error, and any residual per-packet effects, exactly the
// disturbances that bound the useful precision of the profile
// inversion. Summing the per-band variances of the mean gives the noise
// energy of the group measurement vector, which scales the solver's
// duality-gap stopping tolerance and the alias-evidence thresholds so
// the whole estimation chain self-calibrates across SNR regimes.

// pairSpread reduces per-pair folded values to their mean and the
// variance of that mean. The variance is the total complex variance
// (real + imaginary components): Σ|vₚ − mean|² / (k·(k−1)), i.e. the
// sample variance shrunk by the 1/k averaging BandValue performs. A
// single pair carries no spread information and reports variance 0 with
// ok=false.
func pairSpread(vals dsp.Vec) (mean complex128, varMean float64, ok bool) {
	k := len(vals)
	if k == 0 {
		return 0, 0, false
	}
	for _, v := range vals {
		mean += v
	}
	mean /= complex(float64(k), 0)
	if k < 2 {
		return mean, 0, false
	}
	var ss float64
	for _, v := range vals {
		d := v - mean
		ss += float64(real(d)*real(d)) + float64(imag(d)*imag(d))
	}
	return mean, ss / float64(k*(k-1)), true
}

// foldValues computes the per-pair CFO-free folded values for one band —
// the terms BandValue averages. dst is reused when it has capacity, and
// sc holds the interpolation's working memory.
func foldValues(dst dsp.Vec, pairs []csi.Pair, power int, mode InterpMode, fwdOnly bool, sc *interpScratch) (dsp.Vec, error) {
	if cap(dst) < len(pairs) {
		dst = make(dsp.Vec, 0, len(pairs))
	}
	dst = dst[:0]
	for _, p := range pairs {
		fwd, err := sc.zeroSubcarrier(p.Forward, power, mode)
		if err != nil {
			return nil, err
		}
		v := fwd
		if !fwdOnly {
			rev, err := sc.zeroSubcarrier(p.Reverse, power, mode)
			if err != nil {
				return nil, err
			}
			v = dsp.Mul(fwd, rev)
		}
		dst = append(dst, v)
	}
	return dst, nil
}

// groupNoiseFloor estimates ‖w‖₂ — the L2 norm of the noise component of
// one band group's measurement vector — by summing the per-band
// variances of the folded means. Bands measured with a single pair carry
// no spread information; their noise is imputed at the average of the
// measured bands (the estimate scales the observed energy up to the full
// band count). Returns 0 when no band has repeated pairs, which
// downstream consumers treat as "no estimate": the solver falls back to
// the fixed iterate tolerance and the alias gates to their fixed
// constants.
func groupNoiseFloor(g []bandMeas) float64 {
	var sum float64
	measured := 0
	for _, m := range g {
		if m.noiseOK {
			sum += m.noiseVar
			measured++
		}
	}
	if measured == 0 {
		return 0
	}
	return math.Sqrt(sum * float64(len(g)) / float64(measured))
}

// finite reports whether x is neither NaN nor an infinity.
func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }
