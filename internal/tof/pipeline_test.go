package tof

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"chronos/internal/csi"
	"chronos/internal/rf"
	"chronos/internal/wifi"
)

func cleanRadio(rng *rand.Rand) *csi.Radio {
	r := csi.NewRadio(rng)
	r.PhaseJitterRad = 0
	r.QuantBits = 0
	r.Quirk24 = false
	r.Osc.HWPhase = 0
	r.Osc.HWDelayNs = 0
	return r
}

func band5() wifi.Band  { return wifi.Band{Channel: 36, Center: 5.18e9} }
func band24() wifi.Band { return wifi.Band{Channel: 1, Center: 2.412e9} }

func singlePath(tauNs float64) *rf.Channel {
	return rf.NewChannel([]rf.Path{{Delay: tauNs * 1e-9, Gain: 1}})
}

func TestZeroSubcarrierRemovesDetectionDelay(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	rx, tx := cleanRadio(rng), cleanRadio(rng)
	ch := singlePath(5)
	b := band5()

	// Measure twice with very different detection delays; the
	// zero-subcarrier estimates must agree in phase regardless.
	m1 := rx.Measure(rng, ch, b, csi.MeasureOptions{SNRdB: 60, TX: tx})
	rx.DetectDelayMed = 400e-9 // force a very different delay
	m2 := rx.Measure(rng, ch, b, csi.MeasureOptions{SNRdB: 60, TX: tx})

	z1, err := ZeroSubcarrier(m1, 1, InterpSpline)
	if err != nil {
		t.Fatal(err)
	}
	z2, err := ZeroSubcarrier(m2, 1, InterpSpline)
	if err != nil {
		t.Fatal(err)
	}
	truth := ch.Response(b.Center)
	for i, z := range []complex128{z1, z2} {
		diff := math.Abs(phaseDiff(cmplx.Phase(z), cmplx.Phase(truth)))
		if diff > 0.03 {
			t.Errorf("measurement %d: zero-subcarrier phase off by %v rad", i+1, diff)
		}
	}
}

func phaseDiff(a, b float64) float64 {
	d := math.Mod(a-b, 2*math.Pi)
	if d > math.Pi {
		d -= 2 * math.Pi
	} else if d < -math.Pi {
		d += 2 * math.Pi
	}
	return d
}

func TestZeroSubcarrierInterpNoneKeepsDelayError(t *testing.T) {
	// The ablation mode must NOT cancel detection delay: two captures
	// with different δ should disagree in phase.
	rng := rand.New(rand.NewSource(2))
	rx, tx := cleanRadio(rng), cleanRadio(rng)
	ch := singlePath(5)
	b := band5()
	m1 := rx.Measure(rng, ch, b, csi.MeasureOptions{SNRdB: 60, TX: tx})
	rx.DetectDelayMed = 500e-9
	m2 := rx.Measure(rng, ch, b, csi.MeasureOptions{SNRdB: 60, TX: tx})

	z1, _ := ZeroSubcarrier(m1, 1, InterpNone)
	z2, _ := ZeroSubcarrier(m2, 1, InterpNone)
	// The nearest-to-DC subcarrier (±1) keeps a ramp error of
	// 2π·312.5 kHz·δ, so the two captures (δ ≈ 177 vs ≈ 500 ns) should
	// disagree by roughly 2π·312.5e3·Δδ ≈ 0.6 rad.
	if d := math.Abs(phaseDiff(cmplx.Phase(z1), cmplx.Phase(z2))); d < 0.05 {
		t.Errorf("InterpNone phases agree to %v rad — delay unexpectedly cancelled", d)
	}
}

func TestZeroSubcarrierLinearClose(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	rx, tx := cleanRadio(rng), cleanRadio(rng)
	ch := singlePath(3)
	b := band5()
	m := rx.Measure(rng, ch, b, csi.MeasureOptions{SNRdB: 60, TX: tx})
	zs, _ := ZeroSubcarrier(m, 1, InterpSpline)
	zl, _ := ZeroSubcarrier(m, 1, InterpLinear)
	if d := math.Abs(phaseDiff(cmplx.Phase(zs), cmplx.Phase(zl))); d > 0.1 {
		t.Errorf("spline and linear differ by %v rad on a clean channel", d)
	}
}

func TestZeroSubcarrierMalformed(t *testing.T) {
	if _, err := ZeroSubcarrier(csi.Measurement{}, 1, InterpSpline); err == nil {
		t.Error("empty measurement accepted")
	}
	if _, err := ZeroSubcarrier(csi.Measurement{Subcarriers: []int{1, 2}, Values: make([]complex128, 2)}, 1, InterpMode(99)); err == nil {
		t.Error("unknown mode accepted")
	}
}

// foldBand folds pairs captured on band b through Sweep.AddBand on an
// estimator built from cfg, and returns the band's value and its channel
// power.
func foldBand(t *testing.T, cfg Config, b wifi.Band, pairs []csi.Pair) (complex128, int) {
	t.Helper()
	s := NewEstimator(cfg).NewSweep()
	if err := s.AddBand(b, pairs); err != nil {
		t.Fatal(err)
	}
	if s.Bands() != 1 {
		t.Fatalf("AddBand kept %d bands, want 1", s.Bands())
	}
	_, power := cfg.powers()
	return s.meas[0].value, power
}

func TestBandValueCancelsCFO(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	rx, tx := cleanRadio(rng), cleanRadio(rng)
	tx.ResidualCFOHz, rx.ResidualCFOHz = 45, -25
	link := &csi.Link{TX: tx, RX: rx, Channel: singlePath(6), SNRdB: 60}
	b := band5()

	// Collect pairs at two very different times: CFO phase drifts a lot
	// between them, but the products must agree.
	p1 := link.MeasurePair(rng, b, 0.001)
	p2 := link.MeasurePair(rng, b, 0.050)
	v1, pow1 := foldBand(t, Config{}, b, []csi.Pair{p1})
	v2, pow2 := foldBand(t, Config{}, b, []csi.Pair{p2})
	if pow1 != 2 || pow2 != 2 {
		t.Fatalf("power = %d, %d, want 2", pow1, pow2)
	}
	if d := math.Abs(phaseDiff(cmplx.Phase(v1), cmplx.Phase(v2))); d > 0.05 {
		t.Errorf("CFO not cancelled: products differ by %v rad", d)
	}
	truth := link.Channel.Response(b.Center)
	if d := math.Abs(phaseDiff(cmplx.Phase(v1), cmplx.Phase(truth*truth))); d > 0.05 {
		t.Errorf("product phase off truth² by %v rad", d)
	}
}

func TestBandValueForwardOnlyKeepsCFOError(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	rx, tx := cleanRadio(rng), cleanRadio(rng)
	tx.ResidualCFOHz, rx.ResidualCFOHz = 45, -25
	link := &csi.Link{TX: tx, RX: rx, Channel: singlePath(6), SNRdB: 60}
	b := band5()
	p1 := link.MeasurePair(rng, b, 0.001)
	p2 := link.MeasurePair(rng, b, 0.050)
	v1, pow := foldBand(t, Config{ForwardOnly: true}, b, []csi.Pair{p1})
	v2, _ := foldBand(t, Config{ForwardOnly: true}, b, []csi.Pair{p2})
	if pow != 1 {
		t.Fatalf("forward-only power = %d, want 1", pow)
	}
	if d := math.Abs(phaseDiff(cmplx.Phase(v1), cmplx.Phase(v2))); d < 0.1 {
		t.Errorf("forward-only phases agree to %v rad — CFO unexpectedly cancelled", d)
	}
}

func TestBandValueQuirked24GHz(t *testing.T) {
	// With the quirk active the band value must equal h̃⁸ in phase.
	rng := rand.New(rand.NewSource(6))
	rx, tx := cleanRadio(rng), cleanRadio(rng)
	rx.Quirk24, tx.Quirk24 = true, true
	rx.ResidualCFOHz, tx.ResidualCFOHz = 0, 0 // no CFO phase
	link := &csi.Link{TX: tx, RX: rx, Channel: singlePath(4), SNRdB: 60}
	b := band24()
	p := link.MeasurePair(rng, b, 0.001)
	v, pow := foldBand(t, Config{Mode: Bands24Only, Quirk24: true}, b, []csi.Pair{p})
	if pow != 8 {
		t.Fatalf("power = %d, want 8", pow)
	}
	truth := link.Channel.Response(b.Center)
	t8 := complex(1, 0)
	for i := 0; i < 8; i++ {
		t8 *= truth
	}
	if d := math.Abs(phaseDiff(cmplx.Phase(v), cmplx.Phase(t8))); d > 0.1 {
		t.Errorf("quirked product phase off truth⁸ by %v rad", d)
	}
}

func TestBandValueAveragingReducesNoise(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	rx, tx := cleanRadio(rng), cleanRadio(rng)
	link := &csi.Link{TX: tx, RX: rx, Channel: singlePath(5), SNRdB: 15}
	b := band5()
	truth := link.Channel.Response(b.Center)
	truePh := cmplx.Phase(truth * truth)

	spread := func(pairsPer int) float64 {
		var errs []float64
		for trial := 0; trial < 40; trial++ {
			pairs := make([]csi.Pair, pairsPer)
			for i := range pairs {
				pairs[i] = link.MeasurePair(rng, b, float64(trial)*1e-3+float64(i)*1e-4)
			}
			v, _ := foldBand(t, Config{}, b, pairs)
			errs = append(errs, math.Abs(phaseDiff(cmplx.Phase(v), truePh)))
		}
		var s float64
		for _, e := range errs {
			s += e
		}
		return s / float64(len(errs))
	}
	if one, ten := spread(1), spread(10); ten >= one {
		t.Errorf("averaging did not reduce phase error: 1 pair %v vs 10 pairs %v", one, ten)
	}
}

func TestBandValueEmpty(t *testing.T) {
	s := NewEstimator(Config{}).NewSweep()
	if err := s.AddBand(band5(), nil); err != nil || s.Bands() != 0 {
		t.Errorf("empty pairs: err %v and %d bands, want nil and 0", err, s.Bands())
	}
}

func TestIsQuirked(t *testing.T) {
	if IsQuirked(band24(), false) {
		t.Error("quirk reported with quirk disabled")
	}
	if !IsQuirked(band24(), true) {
		t.Error("2.4 GHz band not quirked")
	}
	if IsQuirked(band5(), true) {
		t.Error("5 GHz band quirked")
	}
}
