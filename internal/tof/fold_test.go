package tof

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"runtime"
	"testing"

	"chronos/internal/csi"
	"chronos/internal/dsp"
	"chronos/internal/rf"
	"chronos/internal/wifi"
)

// refEstimateSlope is estimateSlope written per pair with math/cmplx,
// the straight-line reference of the batched form.
func refEstimateSlope(subs []int, vals dsp.Vec) float64 {
	n := len(subs)
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
	var num, den float64
	for i := 1; i < n; i++ {
		d := float64(subs[i] - subs[i-1])
		rot := cmplx.Rect(1, -coarse*d)
		prod := dsp.Mul(dsp.Mul(vals[i], cmplx.Conj(vals[i-1])), rot)
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

// refZeroSubcarrier is zeroSubcarrier's spline and linear modes written
// per subcarrier with math/cmplx.
func refZeroSubcarrier(m csi.Measurement, power int, mode InterpMode) (complex128, error) {
	n := len(m.Subcarriers)
	vals := m.Values
	if power != 1 {
		vals = dsp.Power(make(dsp.Vec, n), m.Values, power)
	}
	slope := refEstimateSlope(m.Subcarriers, vals)
	xs, mags, phases := make([]float64, n), make([]float64, n), make([]float64, n)
	for i, k := range m.Subcarriers {
		xs[i] = float64(k)
		mags[i] = cmplx.Abs(vals[i])
		phases[i] = cmplx.Phase(dsp.Mul(vals[i], cmplx.Rect(1, -slope*float64(k))))
	}
	dsp.Unwrap(phases)
	at := func(xs, ys []float64, x float64) (float64, error) {
		sp, err := dsp.NewSpline(xs, ys)
		if err != nil {
			return 0, err
		}
		return sp.At(x), nil
	}
	if mode == InterpLinear {
		at = dsp.LinearAt
	}
	ph0, err := at(xs, phases, 0)
	if err != nil {
		return 0, err
	}
	mag0, err := at(xs, mags, 0)
	if err != nil {
		return 0, err
	}
	return cmplx.Rect(max(mag0, 0), ph0), nil
}

// foldMeasurement draws a measurement to fold: simulated CSI from a
// random radio pair and multipath channel, or raw values over several
// magnitudes with exact zeros among them (zero-weight pairs and
// out-of-domain lanes of the batch math).
func foldMeasurement(rng *rand.Rand, subs []int) csi.Measurement {
	b := []wifi.Band{band5(), band24()}[rng.Intn(2)]
	if rng.Intn(2) == 0 {
		rx, tx := csi.NewRadio(rng), csi.NewRadio(rng)
		paths := make([]rf.Path, 1+rng.Intn(6))
		for i := range paths {
			paths[i] = rf.Path{Delay: rng.Float64() * 80e-9, Gain: 0.05 + rng.Float64()}
		}
		m := rx.Measure(rng, rf.NewChannel(paths), b, csi.MeasureOptions{SNRdB: 5 + 40*rng.Float64(), TX: tx, Time: rng.Float64()})
		m.Subcarriers, m.Values = append([]int(nil), subs...), m.Values[:len(subs)]
		return m
	}
	vals := make(dsp.Vec, len(subs))
	scale := math.Pow(10, float64(rng.Intn(9)-6))
	for i := range vals {
		if rng.Intn(12) == 0 {
			continue
		}
		vals[i] = complex(rng.NormFloat64()*scale, rng.NormFloat64()*scale)
	}
	return csi.Measurement{Band: b, Subcarriers: append([]int(nil), subs...), Values: vals}
}

// TestFoldMatchesStdReference pins zeroSubcarrier and estimateSlope,
// whose subcarrier math runs through detmath's batch forms, to the
// per-subcarrier math/cmplx reference bit for bit: random measurements,
// fold powers 1 and 4, spline and linear interpolation, on the reported
// subcarriers (spacings 1 and 2) and on lists of one and of two
// spacings. std fuses multiply-adds off amd64, so the comparison runs
// there only.
func TestFoldMatchesStdReference(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("std fuses multiply-adds off amd64")
	}
	// Lists with one spacing and with two; spacings that are not powers
	// of two make the fit's products round.
	spaced := func(steps ...int) []int {
		subs := []int{-30}
		for i := 1; i < 24; i++ {
			subs = append(subs, subs[i-1]+steps[i%len(steps)])
		}
		return subs
	}
	lists := []struct {
		name string
		subs []int
	}{
		{"reported", wifi.CSISubcarriers()}, {"spacing 1", spaced(1)}, {"spacing 2", spaced(2)},
		{"spacing 3", spaced(3)}, {"spacings 3, 5", spaced(3, 5)},
	}
	rng := rand.New(rand.NewSource(41))
	var sc interpScratch
	for _, l := range lists {
		name, subs := l.name, l.subs
		for trial := 0; trial < 150; trial++ {
			m := foldMeasurement(rng, subs)
			for _, power := range []int{1, 4} {
				vals := m.Values
				if power != 1 {
					vals = dsp.Power(make(dsp.Vec, len(subs)), m.Values, power)
				}
				got := estimateSlope(subs, vals, make([]float64, 4*len(subs)))
				if want := refEstimateSlope(subs, vals); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s trial %d power %d: estimateSlope %v, reference %v", name, trial, power, got, want)
				}
				for _, mode := range []InterpMode{InterpSpline, InterpLinear} {
					label := fmt.Sprintf("%s trial %d power %d mode %d", name, trial, power, mode)
					got, gerr := sc.zeroSubcarrier(m, power, mode)
					want, werr := refZeroSubcarrier(m, power, mode)
					if (gerr == nil) != (werr == nil) {
						t.Fatalf("%s: error %v, reference %v", label, gerr, werr)
					}
					if math.Float64bits(real(got)) != math.Float64bits(real(want)) ||
						math.Float64bits(imag(got)) != math.Float64bits(imag(want)) {
						t.Fatalf("%s: zeroSubcarrier %v, reference %v", label, got, want)
					}
				}
			}
		}
	}
}
