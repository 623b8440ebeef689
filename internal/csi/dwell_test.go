package csi

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"runtime"
	"testing"

	"chronos/internal/rf"
	"chronos/internal/wifi"
)

// sameMeasurement requires two measurements to agree bit for bit.
func sameMeasurement(t *testing.T, label string, want, got Measurement) {
	t.Helper()
	if want.Band != got.Band || math.Float64bits(want.DetectionDelay) != math.Float64bits(got.DetectionDelay) ||
		math.Float64bits(want.Time) != math.Float64bits(got.Time) || len(want.Values) != len(got.Values) ||
		len(want.Subcarriers) != len(got.Subcarriers) {
		t.Fatalf("%s: band %v delay %v time %v, %d values; want band %v delay %v time %v, %d values", label,
			got.Band, got.DetectionDelay, got.Time, len(got.Values), want.Band, want.DetectionDelay, want.Time, len(want.Values))
	}
	for i := range want.Values {
		w, g := want.Values[i], got.Values[i]
		if want.Subcarriers[i] != got.Subcarriers[i] ||
			math.Float64bits(real(w)) != math.Float64bits(real(g)) || math.Float64bits(imag(w)) != math.Float64bits(imag(g)) {
			t.Fatalf("%s: subcarrier %d: %v, want %v", label, i, g, w)
		}
	}
}

// dwellLink is a link with random radios, a random multipath channel and
// a random mix of impairment settings.
func dwellLink(rng *rand.Rand) *Link {
	tx, rx := NewRadio(rng), NewRadio(rng)
	tx.Quirk24 = rng.Intn(2) == 0
	rx.Quirk24 = tx.Quirk24
	if rng.Intn(3) == 0 {
		tx.QuantBits, rx.QuantBits = 0, 0
	}
	return &Link{
		TX: tx, RX: rx,
		Channel:               randomChannel(rng),
		SNRdB:                 []float64{0, 12, 30}[rng.Intn(3)],
		PairSeparation:        []float64{0, 40e-6}[rng.Intn(2)],
		DisableDetectionDelay: rng.Intn(4) == 0,
		DisableCFO:            rng.Intn(4) == 0,
	}
}

func randomChannel(rng *rand.Rand) *rf.Channel {
	paths := make([]rf.Path, 1+rng.Intn(4))
	for i := range paths {
		paths[i] = rf.Path{Delay: rng.Float64() * 60e-9, Gain: 0.1 + rng.Float64()}
	}
	return rf.NewChannel(paths)
}

// perPacketPair is the reference for one pair: two Radio.Measure calls,
// forward then reverse, each rendering the channel for its own packet.
func perPacketPair(rng *rand.Rand, l *Link, b wifi.Band, t float64) Pair {
	sep := l.PairSeparation
	if sep == 0 {
		sep = 28e-6
	}
	opts := MeasureOptions{SNRdB: l.SNRdB, Time: t, TX: l.TX,
		DisableDetectionDelay: l.DisableDetectionDelay, DisableCFO: l.DisableCFO}
	fwd := l.RX.Measure(rng, l.Channel, b, opts)
	opts.Time, opts.TX = t+sep, l.RX
	rev := l.TX.Measure(rng, l.Channel, b, opts)
	return Pair{Forward: fwd, Reverse: rev}
}

// TestDwellMatchesPerPacketMeasure pins the dwell rendering bit for bit
// to per-packet Radio.Measure, over random radios, channels, SNRs and
// impairment settings on 2.4 and 5 GHz bands: Link.Sweep (one rendering
// per band for all its pairs) against the same draws through
// Radio.Measure, and the session's capture pattern — one Dwell and one
// pair buffer reused band after band while the channel changes between
// bands — against the same.
func TestDwellMatchesPerPacketMeasure(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	bands := []wifi.Band{band24(), band5(), {Channel: 6, Center: 2.437e9}, {Channel: 149, Center: 5.745e9}}
	for trial := 0; trial < 24; trial++ {
		l := dwellLink(rng)
		pairs := 1 + rng.Intn(3)
		seed := rng.Int63()

		got := l.Sweep(rand.New(rand.NewSource(seed)), bands, pairs, 2.4e-3)
		ref := rand.New(rand.NewSource(seed))
		step := 2.4e-3 / float64(pairs+1)
		for bi, b := range bands {
			for p := 0; p < pairs; p++ {
				want := perPacketPair(ref, l, b, float64(bi)*2.4e-3+float64(p+1)*step)
				sameMeasurement(t, "Sweep forward", want.Forward, got[bi][p].Forward)
				sameMeasurement(t, "Sweep reverse", want.Reverse, got[bi][p].Reverse)
			}
		}

		var d Dwell
		buf := make([]Pair, pairs)
		dwellRng, ref := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
		for bi, b := range bands {
			l.Channel = randomChannel(rng)
			l.RenderDwell(&d, b)
			for p := range buf {
				at := float64(bi) + float64(p)*1e-3
				l.MeasureDwellPair(dwellRng, &d, at, &buf[p])
				want := perPacketPair(ref, l, b, at)
				sameMeasurement(t, "reused forward", want.Forward, buf[p].Forward)
				sameMeasurement(t, "reused reverse", want.Reverse, buf[p].Reverse)
			}
		}
	}
}

// refMeasure is Radio.Measure written per subcarrier with math and
// math/cmplx, as the capture was before its subcarrier math ran in
// batches: the channel response summed path by path, its magnitude,
// the hardware-delay rotation, then per subcarrier the packet's
// rotation, the noise draws, quantization and the quirk's fold.
func refMeasure(r *Radio, rng *rand.Rand, ch *rf.Channel, b wifi.Band, opts MeasureOptions) Measurement {
	delta, cfoPhase := r.drawPacketImpairments(rng, opts)
	snr := opts.SNRdB
	if snr == 0 {
		snr = 30
	}
	hwPhase := r.Osc.HWPhase
	hwDelay := float64(r.Osc.HWDelayNs * 1e-9)
	if opts.TX != nil {
		hwPhase += opts.TX.Osc.HWPhase
		hwDelay += float64(opts.TX.Osc.HWDelayNs * 1e-9)
	}
	subs := wifi.CSISubcarriers()
	resp := make([]complex128, len(subs))
	var rms float64
	for i, k := range subs {
		f := wifi.SubcarrierFreq(b, k)
		var h complex128
		for _, p := range ch.Paths {
			phase := -2 * math.Pi * f * p.Delay
			h += complex(p.Gain*math.Cos(phase), p.Gain*math.Sin(phase))
		}
		rms += cmplx.Abs(h)
		h *= cmplx.Rect(1, -2*math.Pi*f*hwDelay)
		resp[i] = h
	}
	rms /= float64(len(subs))
	sigma := rf.NoiseSigmaForSNR(rms, snr)
	vals := make([]complex128, len(subs))
	for i, k := range subs {
		f := wifi.SubcarrierFreq(b, k)
		h := resp[i]
		ramp := -2 * math.Pi * (f - b.Center) * delta
		h *= cmplx.Rect(1, ramp+cfoPhase+hwPhase)
		h = rf.AWGN(rng, h, sigma)
		if r.QuantBits > 0 {
			h = quantize(h, r.QuantBits, rms*4)
		}
		if r.Quirk24 && b.GHz24() {
			folded := math.Mod(cmplx.Phase(h), math.Pi/2)
			if folded < 0 {
				folded += math.Pi / 2
			}
			h = cmplx.Rect(cmplx.Abs(h), folded)
		}
		vals[i] = h
	}
	return Measurement{Band: b, Subcarriers: subs, Values: vals, DetectionDelay: delta, Time: opts.Time}
}

// TestCaptureMatchesStdReference pins the capture, whose subcarrier
// math runs through detmath's batch forms, to the per-subcarrier
// math/cmplx reference bit for bit: 1–8 paths, the quirk and
// quantization on and off, both bands, through Radio.Measure and
// through one Dwell and one Measurement reused across channels of every
// path count. Each capture must leave its random source where the
// reference leaves it. std fuses multiply-adds off amd64, so the
// comparison runs there only.
func TestCaptureMatchesStdReference(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("std fuses multiply-adds off amd64")
	}
	rng := rand.New(rand.NewSource(43))
	var d Dwell
	var reused Measurement
	for trial := 0; trial < 160; trial++ {
		rx, tx := NewRadio(rng), NewRadio(rng)
		rx.Quirk24 = trial%2 == 0
		if trial%4 < 2 {
			rx.QuantBits = 0
		}
		paths := make([]rf.Path, 1+trial%8)
		for i := range paths {
			paths[i] = rf.Path{Delay: rng.Float64() * 80e-9, Gain: 0.05 + rng.Float64()}
		}
		ch := rf.NewChannel(paths)
		b := []wifi.Band{band24(), band5()}[(trial/8)%2]
		opts := MeasureOptions{SNRdB: []float64{0, 5, 30}[trial%3], Time: rng.Float64(), TX: tx}
		seed := rng.Int63()

		ref := rand.New(rand.NewSource(seed))
		want := refMeasure(rx, ref, ch, b, opts)
		next := ref.Int63()
		label := fmt.Sprintf("trial %d (%d paths, quirk %v, %d bits, band %d)", trial, len(paths), rx.Quirk24, rx.QuantBits, b.Channel)

		src := rand.New(rand.NewSource(seed))
		sameMeasurement(t, label+" Measure", want, rx.Measure(src, ch, b, opts))
		if src.Int63() != next {
			t.Fatalf("%s: Measure left its random source elsewhere than the reference", label)
		}

		src = rand.New(rand.NewSource(seed))
		delta, cfoPhase := rx.drawPacketImpairments(src, opts)
		rx.render(&d, ch, b, tx, opts.SNRdB)
		rx.measureRendered(src, &d, opts.Time, delta, cfoPhase, &reused)
		sameMeasurement(t, label+" reused dwell", want, reused)
		if src.Int63() != next {
			t.Fatalf("%s: the dwell capture left its random source elsewhere than the reference", label)
		}
	}
}

// TestDwellCaptureSteadyStateAllocsNothing pins the allocation-free
// capture: once a Dwell and a Pair have grown, rendering a band dwell
// and measuring a pair from it allocates nothing, on a quirked 2.4 GHz
// band and on a 5 GHz band.
func TestDwellCaptureSteadyStateAllocsNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	l := dwellLink(rng)
	l.TX.Quirk24, l.RX.Quirk24 = true, true
	l.TX.QuantBits, l.RX.QuantBits = 8, 8
	var d Dwell
	var p Pair
	capture := func() {
		for _, b := range []wifi.Band{band24(), band5()} {
			l.RenderDwell(&d, b)
			l.MeasureDwellPair(rng, &d, 0.5, &p)
		}
	}
	capture()
	if n := testing.AllocsPerRun(20, capture); n != 0 {
		t.Errorf("steady-state RenderDwell + MeasureDwellPair allocated %.0f times, want 0", n)
	}
}
