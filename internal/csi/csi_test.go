package csi

import (
	"math"
	"math/cmplx"
	"math/rand"
	"slices"
	"testing"

	"chronos/internal/rf"
	"chronos/internal/wifi"
)

func cleanRadio(rng *rand.Rand) *Radio {
	r := NewRadio(rng)
	r.PhaseJitterRad = 0
	r.QuantBits = 0
	r.Quirk24 = false
	r.Osc.HWPhase = 0
	r.Osc.HWDelayNs = 0
	return r
}

func singlePathChannel(tauNs float64) *rf.Channel {
	return rf.NewChannel([]rf.Path{{Delay: tauNs * 1e-9, Gain: 1}})
}

func band5() wifi.Band  { return wifi.Band{Channel: 36, Center: 5.18e9} }
func band24() wifi.Band { return wifi.Band{Channel: 1, Center: 2.412e9} }

func TestMeasurementShape(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	r := NewRadio(rng)
	m := r.Measure(rng, singlePathChannel(5), band5(), MeasureOptions{TX: NewRadio(rng)})
	if len(m.Subcarriers) != 30 || len(m.Values) != 30 {
		t.Fatalf("shape: %d subs, %d values", len(m.Subcarriers), len(m.Values))
	}
	if m.DetectionDelay <= 0 {
		t.Error("detection delay not recorded")
	}
}

func TestMeasureIdealRecoversChannelPhase(t *testing.T) {
	// With every impairment disabled, the measured value at each
	// subcarrier must match the true channel response closely.
	rng := rand.New(rand.NewSource(2))
	r := cleanRadio(rng)
	tx := cleanRadio(rng)
	ch := singlePathChannel(7)
	b := band5()
	m := r.Measure(rng, ch, b, MeasureOptions{
		SNRdB: 60, TX: tx, DisableDetectionDelay: true, DisableCFO: true,
	})
	for i, k := range m.Subcarriers {
		want := ch.Response(wifi.SubcarrierFreq(b, k))
		if cmplx.Abs(m.Values[i]-want) > 0.01 {
			t.Fatalf("subcarrier %d: got %v, want %v", k, m.Values[i], want)
		}
	}
}

func TestDetectionDelayAddsLinearPhaseRamp(t *testing.T) {
	// §5: the delay phase is −2π(f_k−f_0)δ — zero at subcarrier 0,
	// linear in k. Verify by comparing a delayed and undelayed capture.
	rng := rand.New(rand.NewSource(3))
	r := cleanRadio(rng)
	tx := cleanRadio(rng)
	ch := singlePathChannel(3)
	b := band5()

	m := r.Measure(rng, ch, b, MeasureOptions{SNRdB: 90, TX: tx, DisableCFO: true})
	delta := m.DetectionDelay
	for i, k := range m.Subcarriers {
		f := wifi.SubcarrierFreq(b, k)
		want := ch.Response(f) * cmplx.Rect(1, -2*math.Pi*(f-b.Center)*delta)
		if cmplx.Abs(m.Values[i]-want) > 0.01 {
			t.Fatalf("subcarrier %d: ramp mismatch: got %v want %v", k, m.Values[i], want)
		}
	}
}

func TestDrawDetectionDelayStatistics(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	r := NewRadio(rng)
	n := 20000
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = r.DrawDetectionDelay(rng, 30)
	}
	var sum float64
	for _, v := range vals {
		if v <= 0 {
			t.Fatal("non-positive delay")
		}
		sum += v
	}
	mean := sum / float64(n)
	// Mean should be near the 177 ns median (slight right skew).
	if mean < 160e-9 || mean > 210e-9 {
		t.Errorf("mean delay = %v, want ≈177–190 ns", mean)
	}
}

// TestDelayModelStatistics pins the Fig. 7c defaults that a zero Radio
// draws with, as the delay ablation's time-of-arrival row does: the
// same draws as NewRadio's, a median near 177 ns, and no draw at or
// below zero.
func TestDelayModelStatistics(t *testing.T) {
	var zero Radio
	r := NewRadio(rand.New(rand.NewSource(2)))
	a, b := rand.New(rand.NewSource(5)), rand.New(rand.NewSource(5))
	for i := 0; i < 1000; i++ {
		if got, want := zero.DrawDetectionDelay(a, 30), r.DrawDetectionDelay(b, 30); got != want {
			t.Fatalf("draw %d: zero radio %v, default radio %v", i, got, want)
		}
	}
	rng := rand.New(rand.NewSource(2))
	vals := make([]float64, 10000)
	for i := range vals {
		vals[i] = zero.DrawDetectionDelay(rng, 30)
		if vals[i] <= 0 {
			t.Fatal("non-positive delay")
		}
	}
	slices.Sort(vals)
	if med := vals[len(vals)/2]; med < 170e-9 || med > 190e-9 {
		t.Errorf("median delay = %v, want ≈177 ns", med)
	}
}

func TestDetectionDelayGrowsAtLowSNR(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	r := NewRadio(rng)
	avg := func(snr float64) float64 {
		var s float64
		for i := 0; i < 5000; i++ {
			s += r.DrawDetectionDelay(rng, snr)
		}
		return s / 5000
	}
	if hi, lo := avg(35), avg(5); lo <= hi {
		t.Errorf("delay at 5 dB (%v) not longer than at 35 dB (%v)", lo, hi)
	}
}

func TestCFOPhaseOppositeSigns(t *testing.T) {
	// The forward and reverse CFO phases must be negatives of each other
	// so the §7 product cancels them.
	rng := rand.New(rand.NewSource(6))
	a := cleanRadio(rng)
	b := cleanRadio(rng)
	a.ResidualCFOHz = 50
	b.ResidualCFOHz = -30
	ch := singlePathChannel(4)
	bd := band5()
	tm := 0.010

	fwd := b.Measure(rng, ch, bd, MeasureOptions{SNRdB: 90, Time: tm, TX: a, DisableDetectionDelay: true})
	rev := a.Measure(rng, ch, bd, MeasureOptions{SNRdB: 90, Time: tm, TX: b, DisableDetectionDelay: true})

	truth := ch.Response(bd.Center)
	// Each individual measurement is rotated far off truth…
	k0 := 0
	for i, k := range fwd.Subcarriers {
		if k == -1 { // nearest to center
			k0 = i
		}
	}
	_ = k0
	prod := fwd.Values[14] * rev.Values[14] // subcarrier -1 (index 14)
	wantProd := truth * truth
	// …but the product phase matches the squared truth (CFO cancelled).
	gotPh := cmplx.Phase(prod)
	wantPh := cmplx.Phase(wantProd)
	diff := math.Abs(math.Mod(gotPh-wantPh+3*math.Pi, 2*math.Pi) - math.Pi)
	// Residual from the two subcarrier frequencies differing slightly
	// from center is tiny at subcarrier −1.
	if diff > 0.05 {
		t.Errorf("product phase %v, want %v (diff %v)", gotPh, wantPh, diff)
	}
}

func TestQuirkFoldsPhase(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	r := cleanRadio(rng)
	r.Quirk24 = true
	tx := cleanRadio(rng)
	ch := singlePathChannel(6)

	m := r.Measure(rng, ch, band24(), MeasureOptions{SNRdB: 90, TX: tx, DisableDetectionDelay: true, DisableCFO: true})
	for i := range m.Values {
		ph := cmplx.Phase(m.Values[i])
		if ph < -1e-9 || ph >= math.Pi/2+1e-9 {
			t.Fatalf("2.4 GHz phase %v outside [0, π/2)", ph)
		}
	}
	// 5 GHz unaffected.
	m5 := r.Measure(rng, ch, band5(), MeasureOptions{SNRdB: 90, TX: tx, DisableDetectionDelay: true, DisableCFO: true})
	anyOutside := false
	for i := range m5.Values {
		if ph := cmplx.Phase(m5.Values[i]); ph < 0 || ph >= math.Pi/2 {
			anyOutside = true
		}
	}
	if !anyOutside {
		t.Error("5 GHz phases all inside [0, π/2): quirk seems applied there too")
	}
}

func TestQuirkFourthPowerInvariant(t *testing.T) {
	// fold(h)⁴ must equal h⁴ in phase — the §11 workaround.
	rng := rand.New(rand.NewSource(8))
	hs := make([]complex128, 200)
	for i := range hs {
		hs[i] = cmplx.Rect(0.5+rng.Float64(), (rng.Float64()*2-1)*math.Pi)
	}
	folds := append([]complex128(nil), hs...)
	quirkFold(folds, make([]float64, 5*len(folds)))
	for i, h := range hs {
		folded := folds[i]
		p1 := cmplx.Phase(h * h * h * h)
		p2 := cmplx.Phase(folded * folded * folded * folded)
		diff := math.Abs(math.Mod(p1-p2+3*math.Pi, 2*math.Pi) - math.Pi)
		if diff > 1e-9 {
			t.Fatalf("4th power phase mismatch: %v vs %v", p1, p2)
		}
	}
}

func TestQuantize(t *testing.T) {
	h := complex(0.123456, -0.654321)
	q := quantize(h, 8, 1)
	if q == h {
		t.Error("quantization is a no-op")
	}
	if cmplx.Abs(q-h) > 2.0/128 {
		t.Errorf("quantization error too large: %v", cmplx.Abs(q-h))
	}
	// Saturation clamps instead of wrapping.
	big := complex(10.0, -10.0)
	qb := quantize(big, 8, 1)
	if real(qb) > 1 || imag(qb) < -1.01 {
		t.Errorf("saturation failed: %v", qb)
	}
	if got := quantize(h, 8, 0); got != h {
		t.Error("zero full-scale should be identity")
	}
}

func TestMeasurePairSeparation(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	l := &Link{
		TX: NewRadio(rng), RX: NewRadio(rng),
		Channel: singlePathChannel(5),
	}
	p := l.MeasurePair(rng, band5(), 1.0)
	if math.Abs(p.Reverse.Time-p.Forward.Time-28e-6) > 1e-12 {
		t.Errorf("pair separation = %v", p.Reverse.Time-p.Forward.Time)
	}
}

func TestSweepShape(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	l := &Link{TX: NewRadio(rng), RX: NewRadio(rng), Channel: singlePathChannel(5)}
	bands := wifi.USBands()
	sw := l.Sweep(rng, bands, 3)
	if len(sw) != len(bands) {
		t.Fatalf("sweep bands = %d", len(sw))
	}
	for i := range sw {
		if len(sw[i]) != 3 {
			t.Fatalf("band %d pairs = %d", i, len(sw[i]))
		}
		if sw[i][0].Forward.Band != bands[i] {
			t.Errorf("band %d mismatch", i)
		}
	}
	// Time advances monotonically across bands.
	if !(sw[1][0].Forward.Time > sw[0][0].Forward.Time) {
		t.Error("time does not advance between bands")
	}
}

func TestSweepDefaults(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	l := &Link{TX: NewRadio(rng), RX: NewRadio(rng), Channel: singlePathChannel(5)}
	sw := l.Sweep(rng, wifi.USBands()[:2], 0)
	if len(sw[0]) != 1 {
		t.Errorf("default pairsPerBand = %d, want 1", len(sw[0]))
	}
}
