package csi

import (
	"math"
	"math/rand"
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
