package csi

import (
	"math"
	"math/rand"
	"testing"

	"chronos/internal/rf"
	"chronos/internal/wifi"
)

func arrayChannels(base float64, offsets ...float64) []*rf.Channel {
	out := make([]*rf.Channel, len(offsets))
	for i, off := range offsets {
		out[i] = rf.NewChannel([]rf.Path{{Delay: (base + off) * 1e-9, Gain: 1}})
	}
	return out
}

// TestMeasureArraySharesPacketImpairments checks that a set's forward
// packet is one packet across the card's chains: every chain reports the
// same detection delay and timestamp, while each sees its own channel.
func TestMeasureArraySharesPacketImpairments(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	rx, tx := NewRadio(rng), NewRadio(rng)
	l := &ArrayLink{TX: tx, RX: rx, Channels: arrayChannels(10, 0, 0.5, 1.0), SNRdB: 40}
	set := l.MeasureSet(rng, band5(), 0)
	if len(set) != 3 {
		t.Fatalf("measurements = %d", len(set))
	}
	// All chains must report the identical detection delay (one detector
	// per card) and the same timestamp.
	f0 := set[0].Forward
	for i := 1; i < 3; i++ {
		if set[i].Forward.DetectionDelay != f0.DetectionDelay {
			t.Errorf("chain %d delay %v != chain 0 %v", i, set[i].Forward.DetectionDelay, f0.DetectionDelay)
		}
		if set[i].Forward.Time != f0.Time {
			t.Errorf("chain %d time differs", i)
		}
	}
	// Chains see different channels, so values must differ.
	same := true
	for k := range f0.Values {
		if f0.Values[k] != set[1].Forward.Values[k] {
			same = false
			break
		}
	}
	if same {
		t.Error("chains reported identical CSI despite different channels")
	}
}

// perPacketSet is the reference for one ArrayLink set, with the channel
// rendered for every packet and chain: the forward packet's impairments
// drawn once and each chain rendered from the receiver's side, then each
// round-robin ACK through Radio.Measure, rendered from the
// transmitter's.
func perPacketSet(rng *rand.Rand, l *ArrayLink, b wifi.Band, t float64) []Pair {
	sep := l.PairSeparation
	if sep == 0 {
		sep = 28e-6
	}
	opts := MeasureOptions{SNRdB: l.SNRdB, Time: t, TX: l.TX,
		DisableDetectionDelay: l.DisableDetectionDelay, DisableCFO: l.DisableCFO}
	set := make([]Pair, len(l.Channels))
	delta, cfoPhase := l.RX.drawPacketImpairments(rng, opts)
	for i, ch := range l.Channels {
		var d Dwell
		l.RX.render(&d, ch, b, l.TX, l.SNRdB)
		l.RX.measureRendered(rng, &d, t, delta, cfoPhase, &set[i].Forward)
	}
	opts.TX = l.RX
	for i, ch := range l.Channels {
		opts.Time = t + sep + float64(i)*sep
		set[i].Reverse = l.TX.Measure(rng, ch, b, opts)
	}
	return set
}

// TestArrayLinkSweepMatchesMeasureSet pins the array capture's shared
// renderings bit for bit, over random radios, channels, chain counts,
// SNRs and impairment settings on 2.4 and 5 GHz bands: ArrayLink.Sweep
// (each band's chains rendered once for all of its sets) against
// MeasureSet called once per set with the same draws at the same times,
// and MeasureSet (one rendering per chain for the forward packet and the
// chain's ACK) against perPacketSet.
func TestArrayLinkSweepMatchesMeasureSet(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	bands := []wifi.Band{band24(), band5(), {Channel: 6, Center: 2.437e9}, {Channel: 149, Center: 5.745e9}}
	for trial := 0; trial < 12; trial++ {
		dl := dwellLink(rng)
		l := &ArrayLink{
			TX: dl.TX, RX: dl.RX,
			Channels:              make([]*rf.Channel, 1+rng.Intn(3)),
			SNRdB:                 dl.SNRdB,
			PairSeparation:        dl.PairSeparation,
			DisableDetectionDelay: dl.DisableDetectionDelay,
			DisableCFO:            dl.DisableCFO,
		}
		for i := range l.Channels {
			l.Channels[i] = randomChannel(rng)
		}
		sets := 1 + rng.Intn(3)
		dwell := []float64{0, 3e-3}[rng.Intn(2)]
		seed := rng.Int63()

		got := l.Sweep(rand.New(rand.NewSource(seed)), bands, sets, dwell)
		setRng, ref := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
		if dwell == 0 {
			dwell = 2.4e-3
		}
		step := dwell / float64(sets+1)
		at := 0.0
		for bi, b := range bands {
			for p := 0; p < sets; p++ {
				set := l.MeasureSet(setRng, b, at+float64(p+1)*step)
				want := perPacketSet(ref, l, b, at+float64(p+1)*step)
				for a := range l.Channels {
					sameMeasurement(t, "MeasureSet forward", want[a].Forward, set[a].Forward)
					sameMeasurement(t, "MeasureSet reverse", want[a].Reverse, set[a].Reverse)
					sameMeasurement(t, "Sweep forward", set[a].Forward, got[a][bi][p].Forward)
					sameMeasurement(t, "Sweep reverse", set[a].Reverse, got[a][bi][p].Reverse)
				}
			}
			at += dwell
		}
	}
}

func TestArrayLinkMeasureSetRoundRobinACK(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	l := &ArrayLink{
		TX: NewRadio(rng), RX: NewRadio(rng),
		Channels: arrayChannels(10, 0, 2, 4),
		SNRdB:    60,
	}
	l.TX.Quirk24 = false
	l.RX.Quirk24 = false
	set := l.MeasureSet(rng, band5(), 0.5)
	if len(set) != 3 {
		t.Fatalf("pairs = %d", len(set))
	}
	// Reverse measurements are taken at distinct times (round-robin ACKs).
	if set[0].Reverse.Time == set[1].Reverse.Time {
		t.Error("reverse measurements share a timestamp")
	}
	// Each pair's reverse must reflect that antenna's channel delay: the
	// phase slope across subcarriers differs between antennas.
	if set[0].Reverse.Values[0] == set[2].Reverse.Values[0] {
		t.Error("reverse CSI identical across antennas with different channels")
	}
}

func TestArrayLinkSweepShape(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	l := &ArrayLink{
		TX: NewRadio(rng), RX: NewRadio(rng),
		Channels: arrayChannels(8, 0, 1),
	}
	bands := wifi.Bands5GHz()
	sw := l.Sweep(rng, bands, 2, 2e-3)
	if len(sw) != 2 {
		t.Fatalf("antennas = %d", len(sw))
	}
	for a := range sw {
		if len(sw[a]) != len(bands) {
			t.Fatalf("antenna %d: bands = %d", a, len(sw[a]))
		}
		for b := range sw[a] {
			if len(sw[a][b]) != 2 {
				t.Fatalf("antenna %d band %d: pairs = %d", a, b, len(sw[a][b]))
			}
		}
	}
}

func TestArrayLinkDifferentialPrecision(t *testing.T) {
	// The decisive property: the *difference* between two antennas'
	// zero-subcarrier phases must be far more stable than the absolute
	// phases, because detection delay and CFO are packet-level.
	rng := rand.New(rand.NewSource(4))
	l := &ArrayLink{
		TX: NewRadio(rng), RX: NewRadio(rng),
		Channels: arrayChannels(10, 0, 0.7),
		SNRdB:    30,
	}
	l.TX.Quirk24, l.RX.Quirk24 = false, false
	b := band5()

	var absVar, diffVar []float64
	for i := 0; i < 40; i++ {
		set := l.MeasureSet(rng, b, float64(i)*1e-3)
		// Raw subcarrier-0-adjacent forward phase per antenna (index 14
		// is subcarrier −1): absolute phase drifts with CFO per packet.
		p0 := phaseOf(set[0].Forward.Values[14])
		p1 := phaseOf(set[1].Forward.Values[14])
		absVar = append(absVar, p0)
		diffVar = append(diffVar, wrap(p1-p0))
	}
	if spread(diffVar) > spread(absVar)/3 {
		t.Errorf("differential spread %v not much tighter than absolute %v",
			spread(diffVar), spread(absVar))
	}
}

func phaseOf(c complex128) float64 { return math.Atan2(imag(c), real(c)) }

func wrap(x float64) float64 {
	for x > math.Pi {
		x -= 2 * math.Pi
	}
	for x <= -math.Pi {
		x += 2 * math.Pi
	}
	return x
}

// spread returns a crude circular spread measure: mean absolute deviation
// from the circular mean.
func spread(ph []float64) float64 {
	var sx, sy float64
	for _, p := range ph {
		sx += math.Cos(p)
		sy += math.Sin(p)
	}
	mean := math.Atan2(sy, sx)
	var s float64
	for _, p := range ph {
		s += math.Abs(wrap(p - mean))
	}
	return s / float64(len(ph))
}
