// Package tof assembles the paper's full time-of-flight pipeline:
//
//  1. per-packet CSI on 30 subcarriers per band (package csi);
//  2. cubic-spline interpolation of phase and magnitude to the zero
//     subcarrier, which is free of packet-detection delay (§5);
//  3. forward×reverse CSI multiplication to cancel carrier frequency
//     offset (§7), yielding the squared channel h̃² per band — and, on
//     2.4 GHz bands affected by the Intel firmware quirk, fourth powers
//     so the π/2 phase folds cancel (§11), yielding h̃⁸;
//  4. sparse inverse-NDFT over the per-band values (§6, Algorithm 1);
//  5. first-peak extraction and division by the channel power to recover
//     the direct-path time of flight.
package tof

import (
	"errors"
	"fmt"
	"math/cmplx"

	"chronos/internal/csi"
	"chronos/internal/dsp"
	"chronos/internal/wifi"
)

// InterpMode selects how the zero-subcarrier channel is estimated.
type InterpMode int

const (
	// InterpSpline is the paper's choice: natural cubic spline across the
	// 30 reported subcarriers (§5, footnote 3).
	InterpSpline InterpMode = iota
	// InterpLinear is the ablation baseline.
	InterpLinear
	// InterpNone skips detection-delay compensation entirely: it reports
	// the raw value of the subcarrier closest to DC, whose phase still
	// carries the ramp error −2π(f_k−f_0)δ of the packet-detection delay.
	// Used to demonstrate how badly uncompensated delay hurts (Fig. 7c).
	InterpNone
)

// ZeroSubcarrier estimates the channel at subcarrier 0 of one measurement:
// the value whose phase is unaffected by packet-detection delay. power is
// applied to each subcarrier value first (4 on quirked 2.4 GHz bands so
// the π/2 folds vanish, 1 otherwise).
func ZeroSubcarrier(m csi.Measurement, power int, mode InterpMode) (complex128, error) {
	var sc interpScratch
	return sc.zeroSubcarrier(m, power, mode)
}

// interpScratch is the working memory of zero-subcarrier interpolation.
// A Sweep keeps one across measurements, so folding a band allocates
// nothing once the buffers have grown to the subcarrier count.
type interpScratch struct {
	vals dsp.Vec   // subcarrier values raised to the fold power
	f    []float64 // knots, magnitudes and phases, then the spline fits
}

func (sc *interpScratch) zeroSubcarrier(m csi.Measurement, power int, mode InterpMode) (complex128, error) {
	n := len(m.Subcarriers)
	if n < 2 || len(m.Values) != n {
		return 0, fmt.Errorf("tof: malformed measurement (%d subcarriers, %d values)", n, len(m.Values))
	}

	vals := m.Values
	if power != 1 {
		if cap(sc.vals) < n {
			sc.vals = make(dsp.Vec, n)
		}
		vals = dsp.Power(sc.vals[:n], m.Values, power)
	}

	if mode == InterpNone {
		best := 0
		for i, k := range m.Subcarriers {
			if abs(k) < abs(m.Subcarriers[best]) {
				best = i
			}
		}
		return vals[best], nil
	}

	// De-ramp before unwrapping: the detection-delay phase slope (times
	// the channel power) can exceed π between reported subcarriers two
	// indices apart, which would send Unwrap down a wrong 2π branch.
	// Estimating the dominant linear slope from adjacent subcarriers and
	// removing it keeps every step small; since the query point is k=0,
	// no re-rotation is needed afterwards.
	slope := estimateSlope(m.Subcarriers, vals)
	if cap(sc.f) < 8*n {
		sc.f = make([]float64, 8*n)
	}
	f := sc.f[:8*n]
	xs, mags, phases, fit := f[:n], f[n:2*n], f[2*n:3*n], f[3*n:]
	for i, k := range m.Subcarriers {
		xs[i] = float64(k)
		mags[i] = cmplx.Abs(vals[i])
		phases[i] = cmplx.Phase(dsp.Mul(vals[i], cmplx.Rect(1, -slope*float64(k))))
	}
	dsp.Unwrap(phases)

	var mag0, ph0 float64
	var err error
	switch mode {
	case InterpSpline:
		if ph0, err = dsp.InterpolateAt(xs, phases, 0, fit); err != nil {
			return 0, err
		}
		if mag0, err = dsp.InterpolateAt(xs, mags, 0, fit); err != nil {
			return 0, err
		}
	case InterpLinear:
		if ph0, err = dsp.LinearAt(xs, phases, 0); err != nil {
			return 0, err
		}
		if mag0, err = dsp.LinearAt(xs, mags, 0); err != nil {
			return 0, err
		}
	default:
		return 0, fmt.Errorf("tof: unknown interpolation mode %d", mode)
	}
	if mag0 < 0 {
		mag0 = 0
	}
	return dsp.FromPolar(mag0, ph0), nil
}

// BandValue reduces the CSI pairs collected on one band to a single
// CFO-free complex channel value, and reports the total channel power of
// that value: 2 for clean bands (h̃²), 8 for quirked 2.4 GHz bands (h̃⁸,
// since each side is raised to the 4th power before multiplication).
//
// When fwdOnly is true the reverse measurement is ignored (the CFO
// ablation) and the power is 1 or 4.
func BandValue(pairs []csi.Pair, quirked bool, mode InterpMode, fwdOnly bool) (complex128, int, error) {
	if len(pairs) == 0 {
		return 0, 0, errors.New("tof: no CSI pairs for band")
	}
	power, total := bandPowers(quirked, fwdOnly)
	var sc interpScratch
	vals, err := foldValues(nil, pairs, power, mode, fwdOnly, &sc)
	if err != nil {
		return 0, 0, err
	}
	acc, _, _ := pairSpread(vals)
	return acc, total, nil
}

// bandPowers is the single home of the channel-power convention: the
// per-side power applied before folding (4 on quirked 2.4 GHz bands so
// the π/2 phase folds cancel, 1 otherwise) and the total power label of
// the folded value (doubled by the forward×reverse CFO product unless
// fwdOnly). BandValue and Sweep.AddBand both resolve it here so the
// batch and incremental paths can never diverge.
func bandPowers(quirked, fwdOnly bool) (power, total int) {
	power = 1
	if quirked {
		power = 4
	}
	total = power
	if !fwdOnly {
		total = 2 * power
	}
	return power, total
}

// IsQuirked reports whether band b needs the 4th-power workaround on a
// radio with the 2.4 GHz firmware quirk.
func IsQuirked(b wifi.Band, quirk bool) bool { return quirk && b.GHz24() }

func abs(k int) int {
	if k < 0 {
		return -k
	}
	return k
}

// estimateSlope returns the dominant linear phase slope of vals across
// subcarrier indices, in radians per index. Stage one takes the phase of
// the sum of conjugate products over index-adjacent pairs (step 1), which
// stays unaliased for detection delays up to ≈350 ns even in the
// fourth-power domain. Stage two de-rotates with the coarse slope and
// refines with a least-squares fit over every consecutive pair.
func estimateSlope(subs []int, vals dsp.Vec) float64 {
	n := len(subs)
	// Coarse: step-1 pairs only.
	var r complex128
	minStep := 1 << 30
	for i := 1; i < n; i++ {
		if d := subs[i] - subs[i-1]; d < minStep {
			minStep = d
		}
	}
	if minStep <= 0 {
		return 0
	}
	for i := 1; i < n; i++ {
		if subs[i]-subs[i-1] == minStep {
			r += dsp.Mul(vals[i], cmplx.Conj(vals[i-1]))
		}
	}
	coarse := cmplx.Phase(r) / float64(minStep)

	// Refine: all consecutive pairs, phases now small after de-rotation.
	var num, den float64
	for i := 1; i < n; i++ {
		d := float64(subs[i] - subs[i-1])
		prod := dsp.Mul(dsp.Mul(vals[i], cmplx.Conj(vals[i-1])), cmplx.Rect(1, -coarse*d))
		w := cmplx.Abs(prod)
		if w == 0 {
			continue
		}
		num += float64(cmplx.Phase(prod) * d * w)
		den += float64(d * d * w)
	}
	if den == 0 {
		return coarse
	}
	return coarse + num/den
}
