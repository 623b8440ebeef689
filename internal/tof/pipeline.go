// Package tof assembles the paper's full time-of-flight pipeline:
//
//  1. per-packet CSI on 30 subcarriers per band (package csi);
//  2. cubic-spline interpolation of phase and magnitude to the zero
//     subcarrier, which is free of packet-detection delay (§5);
//  3. forward×reverse CSI multiplication to cancel carrier frequency
//     offset (§7), yielding the squared channel h̃² per band — and, on
//     the quirked 2.4 GHz bands a Bands24Only sweep folds, fourth powers
//     so the π/2 phase folds cancel (§11), yielding h̃⁸;
//  4. sparse inverse-NDFT over the per-band values (§6, Algorithm 1);
//  5. first-peak extraction and division by the channel power to recover
//     the direct-path time of flight.
package tof

import (
	"fmt"
	"math/cmplx"

	"chronos/internal/csi"
	"chronos/internal/detmath"
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
	vals dsp.Vec // subcarrier values raised to the fold power
	// f holds the knots, magnitudes and phases, then four planar work
	// arrays for the batch math (detmath), which the paired spline fit
	// reuses.
	f []float64
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
	if cap(sc.f) < 7*n {
		sc.f = make([]float64, 7*n)
	}
	f := sc.f[:7*n]
	xs, mags, phases, fit := f[:n], f[n:2*n], f[2*n:3*n], f[3*n:]
	slope := estimateSlope(m.Subcarriers, vals, fit)
	re, im, sin, cos := fit[:n], fit[n:2*n], fit[2*n:3*n], fit[3*n:]
	for i, k := range m.Subcarriers {
		xs[i] = float64(k)
		re[i], im[i] = real(vals[i]), imag(vals[i])
		sin[i] = -slope * float64(k)
	}
	detmath.HypotBatch(mags, re, im)
	detmath.SincosBatch(sin, cos, sin)
	// The de-rotated values vals[i]·e^{−j·slope·k}, formed as dsp.Mul
	// forms them, in place of the values; then their phases.
	for i := range re {
		a, b, c, s := re[i], im[i], cos[i], sin[i]
		re[i], im[i] = float64(a*c)-float64(b*s), float64(a*s)+float64(b*c)
	}
	detmath.Atan2Batch(phases, im, re)
	dsp.Unwrap(phases)

	var mag0, ph0 float64
	var err error
	switch mode {
	case InterpSpline:
		if ph0, mag0, err = dsp.InterpolatePairAt(xs, phases, mags, 0, fit); err != nil {
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
// refines with a least-squares fit over every consecutive pair, whose
// magnitudes and phases run as one batch each (detmath) in w, scratch
// of at least 4·len(subs) elements; the fit's sums stay sequential.
func estimateSlope(subs []int, vals dsp.Vec, w []float64) float64 {
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
	coarse := detmath.Phase(r) / float64(minStep)

	// Refine: all consecutive pairs, phases now small after de-rotation.
	// The de-rotation depends only on the spacing, which takes one or two
	// values per band, so the last two distinct spacings keep theirs
	// (every spacing is at least minStep > 0, so 0 marks an empty slot).
	m := n - 1
	re, im, mag, ph := w[:m], w[m:2*m], w[2*m:3*m], w[3*m:4*m]
	var spacing [2]int
	var rot [2]complex128
	for i := 1; i < n; i++ {
		step := subs[i] - subs[i-1]
		k := 0
		if spacing[0] != step {
			k = 1
			if spacing[1] != step {
				spacing[0], rot[0] = spacing[1], rot[1]
				spacing[1], rot[1] = step, detmath.Rect(1, -coarse*float64(step))
			}
		}
		prod := dsp.Mul(dsp.Mul(vals[i], cmplx.Conj(vals[i-1])), rot[k])
		re[i-1], im[i-1] = real(prod), imag(prod)
	}
	detmath.HypotBatch(mag, re, im)
	detmath.Atan2Batch(ph, im, re)
	var num, den float64
	for i, wt := range mag {
		if wt == 0 {
			continue
		}
		d := float64(subs[i+1] - subs[i])
		num += float64(ph[i] * d * wt)
		den += float64(d * d * wt)
	}
	if den == 0 {
		return coarse
	}
	return coarse + num/den
}
