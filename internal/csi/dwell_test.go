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

// dwellLink is a link with random radios, a random multipath channel, a
// random SNR and a random mix of quirk and quantization settings.
func dwellLink(rng *rand.Rand) *Link {
	tx, rx := NewRadio(rng), NewRadio(rng)
	tx.Quirk24 = rng.Intn(2) == 0
	rx.Quirk24 = tx.Quirk24
	if rng.Intn(3) == 0 {
		tx.QuantBits, rx.QuantBits = 0, 0
	}
	return &Link{
		TX: tx, RX: rx,
		Channel: randomChannel(rng),
		SNRdB:   []float64{0, 12, 30}[rng.Intn(3)],
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
// forward then reverse, each rendering the channel for its own packet,
// the reverse 28 µs after the forward.
func perPacketPair(rng *rand.Rand, l *Link, b wifi.Band, t float64) Pair {
	opts := MeasureOptions{SNRdB: l.SNRdB, Time: t, TX: l.TX}
	fwd := l.RX.Measure(rng, l.Channel, b, opts)
	opts.Time, opts.TX = t+28e-6, l.RX
	rev := l.TX.Measure(rng, l.Channel, b, opts)
	return Pair{Forward: fwd, Reverse: rev}
}

// TestDwellMatchesPerPacketMeasure pins the dwell rendering bit for bit
// to per-packet Radio.Measure, over random radios, channels, SNRs, quirk
// and quantization settings on 2.4 and 5 GHz bands: Link.Sweep (one
// rendering per band for all its pairs) against the same draws through
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

		got := l.Sweep(rand.New(rand.NewSource(seed)), bands, pairs)
		ref := rand.New(rand.NewSource(seed))
		step := SweepDwell / float64(pairs+1)
		for bi, b := range bands {
			for p := 0; p < pairs; p++ {
				want := perPacketPair(ref, l, b, float64(bi)*SweepDwell+float64(p+1)*step)
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
		rx.capture(src, &d, opts.Time, delta, cfoPhase, &reused)
		sameMeasurement(t, label+" reused dwell", want, reused)
		if src.Int63() != next {
			t.Fatalf("%s: the dwell capture left its random source elsewhere than the reference", label)
		}
	}
}

// sameDraws requires a drawn-only measurement to carry the band,
// detection delay and time bits of the rendered one beside it, and no
// subcarriers or values.
func sameDraws(t *testing.T, label string, rendered, drawn Measurement) {
	t.Helper()
	if len(rendered.Values) == 0 {
		t.Fatalf("%s: the rendered measurement has no values", label)
	}
	if drawn.Band != rendered.Band || math.Float64bits(drawn.DetectionDelay) != math.Float64bits(rendered.DetectionDelay) ||
		math.Float64bits(drawn.Time) != math.Float64bits(rendered.Time) || len(drawn.Values) != 0 || len(drawn.Subcarriers) != 0 {
		t.Fatalf("%s: drawn band %v delay %v time %v, %d values; rendered band %v delay %v time %v", label,
			drawn.Band, drawn.DetectionDelay, drawn.Time, len(drawn.Values), rendered.Band, rendered.DetectionDelay, rendered.Time)
	}
}

// TestDrawOnlyMakesTheRenderedDraws pins the drawn-only capture to the
// rendered one: two sources from one seed, one capturing from rendered
// dwells and the other from drawn-only ones (Dwell.DrawOnly), must end
// in the same state, and every drawn-only packet must carry its
// rendered twin's band, detection delay and time bits and no values. It
// runs on a 2.4 and a 5 GHz band, with the quirk on and off and the
// phase jitter zero and at NewRadio's default: Link pairs into reused
// buffers, an ArrayLink set, and SweepRendering against Sweep, whose
// rendered bands must match bit for bit.
func TestDrawOnlyMakesTheRenderedDraws(t *testing.T) {
	rng := rand.New(rand.NewSource(79))
	bands := []wifi.Band{band24(), band5(), {Channel: 6, Center: 2.437e9}, {Channel: 149, Center: 5.745e9}}
	for _, b := range bands[:2] {
		for _, quirk := range []bool{false, true} {
			for _, jitter := range []bool{false, true} {
				l := dwellLink(rng)
				l.TX.Quirk24, l.RX.Quirk24 = quirk, quirk
				if !jitter {
					l.TX.PhaseJitterRad, l.RX.PhaseJitterRad = 0, 0
				}
				label := fmt.Sprintf("band %d, quirk %v, jitter %v", b.Channel, quirk, l.RX.PhaseJitterRad)
				sameSources := func(what string, rendered, drawn *rand.Rand) {
					t.Helper()
					if rendered.Int63() != drawn.Int63() {
						t.Fatalf("%s, %s: the drawn-only capture left its source elsewhere than the rendered one", label, what)
					}
				}

				seed := rng.Int63()
				rendered, drawn := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
				var rd, dd Dwell
				var rp, dp Pair
				l.RenderDwell(&rd, b)
				dd.DrawOnly(b)
				for p := 0; p < 3; p++ {
					at := 0.5 + float64(p)*1e-3
					l.MeasureDwellPair(rendered, &rd, at, &rp)
					l.MeasureDwellPair(drawn, &dd, at, &dp)
					sameDraws(t, label+" pair forward", rp.Forward, dp.Forward)
					sameDraws(t, label+" pair reverse", rp.Reverse, dp.Reverse)
				}
				sameSources("pairs", rendered, drawn)

				al := &ArrayLink{TX: l.TX, RX: l.RX, Channels: []*rf.Channel{randomChannel(rng), randomChannel(rng), randomChannel(rng)}, SNRdB: l.SNRdB}
				seed = rng.Int63()
				rendered, drawn = rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
				dds := make([]Dwell, len(al.Channels))
				for i := range dds {
					dds[i].DrawOnly(b)
				}
				want := al.measureSet(rendered, al.renderDwells(nil, b), 0.5)
				got := al.measureSet(drawn, dds, 0.5)
				for a := range want {
					sameDraws(t, fmt.Sprintf("%s set chain %d forward", label, a), want[a].Forward, got[a].Forward)
					sameDraws(t, fmt.Sprintf("%s set chain %d reverse", label, a), want[a].Reverse, got[a].Reverse)
				}
				sameSources("set", rendered, drawn)

				seed = rng.Int63()
				rendered, drawn = rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
				full := l.Sweep(rendered, bands, 2)
				part := l.SweepRendering(drawn, bands, 2, func(b wifi.Band) bool { return !b.GHz24() })
				for bi, b := range bands {
					for p := range full[bi] {
						if b.GHz24() {
							sameDraws(t, label+" sweep forward", full[bi][p].Forward, part[bi][p].Forward)
							sameDraws(t, label+" sweep reverse", full[bi][p].Reverse, part[bi][p].Reverse)
						} else {
							sameMeasurement(t, label+" sweep forward", full[bi][p].Forward, part[bi][p].Forward)
							sameMeasurement(t, label+" sweep reverse", full[bi][p].Reverse, part[bi][p].Reverse)
						}
					}
				}
				sameSources("sweep", rendered, drawn)
			}
		}
	}
}

// TestDwellCaptureSteadyStateAllocsNothing pins the allocation-free
// capture: once a Dwell and a Pair have grown, rendering a band dwell
// and measuring a pair from it allocates nothing, on a quirked 2.4 GHz
// band and on a 5 GHz band, and neither does measuring a pair from a
// drawn-only dwell between them into the same buffers.
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
			d.DrawOnly(b)
			l.MeasureDwellPair(rng, &d, 0.5, &p)
		}
	}
	capture()
	if n := testing.AllocsPerRun(20, capture); n != 0 {
		t.Errorf("steady-state RenderDwell/DrawOnly + MeasureDwellPair allocated %.0f times, want 0", n)
	}
}
