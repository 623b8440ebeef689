package csi

import (
	"math/rand"

	"chronos/internal/rf"
	"chronos/internal/wifi"
)

// Pair is the forward/reverse CSI pair §7 multiplies: the receiver's
// measurement of the transmitter's packet and the transmitter's
// measurement of the receiver's acknowledgment, captured a short time
// apart on the same band.
type Pair struct {
	Forward Measurement // measured at the receiver (CSIʳˣ)
	Reverse Measurement // measured at the transmitter (CSIᵗˣ)
}

// Link couples two radios through a common propagation channel and
// produces CSI pairs the way the Chronos hopping protocol does.
type Link struct {
	TX, RX *Radio
	// Channel is the over-the-air channel, assumed reciprocal (§7):
	// identical in both directions up to the hardware constant κ, which
	// the radios add themselves.
	Channel *rf.Channel
	// SNRdB is the per-subcarrier measurement SNR (default 30).
	SNRdB float64
	// PairSeparation is the packet→ACK turnaround (seconds); defaults to
	// 28 µs (SIFS + ACK duration), leaving the small residual CFO phase
	// error the paper notes in §7 observation (1).
	PairSeparation float64
	// DisableDetectionDelay / DisableCFO feed the ablation benches.
	DisableDetectionDelay bool
	DisableCFO            bool
}

// MeasurePair captures one forward/reverse CSI pair on band b at simulated
// time t.
func (l *Link) MeasurePair(rng *rand.Rand, b wifi.Band, t float64) Pair {
	var d Dwell
	var p Pair
	l.RenderDwell(&d, b)
	l.MeasureDwellPair(rng, &d, t, &p)
	return p
}

// RenderDwell renders into d the CSI that every packet the link
// captures on band b shares while the channel holds still (see Dwell),
// reusing d's buffers. Render again when the channel, the band or the
// SNR changes.
func (l *Link) RenderDwell(d *Dwell, b wifi.Band) {
	l.RX.render(d, l.Channel, b, l.TX, l.snr())
}

// MeasureDwellPair captures one forward/reverse CSI pair of the rendered
// dwell d at simulated time t into dst, reusing dst's buffers. It draws
// from rng exactly as two Radio.Measure calls would, forward then
// reverse, and reports the same bits.
func (l *Link) MeasureDwellPair(rng *rand.Rand, d *Dwell, t float64, dst *Pair) {
	sep := l.PairSeparation
	if sep == 0 {
		sep = 28e-6
	}
	opts := MeasureOptions{
		SNRdB: l.snr(), Time: t, TX: l.TX,
		DisableDetectionDelay: l.DisableDetectionDelay,
		DisableCFO:            l.DisableCFO,
	}
	delta, cfoPhase := l.RX.drawPacketImpairments(rng, opts)
	l.RX.measureRendered(rng, d, opts.Time, delta, cfoPhase, &dst.Forward)
	opts.Time, opts.TX = t+sep, l.RX
	delta, cfoPhase = l.TX.drawPacketImpairments(rng, opts)
	l.TX.measureRendered(rng, d, opts.Time, delta, cfoPhase, &dst.Reverse)
}

func (l *Link) snr() float64 {
	if l.SNRdB == 0 {
		return 30
	}
	return l.SNRdB
}

// Sweep measures pairsPerBand CSI pairs on every band, advancing simulated
// time by dwell per band (the 2–3 ms per-band dwell of §4). It returns one
// slice of pairs per band, index-aligned with bands. Each band's dwell is
// rendered once for all of its pairs.
func (l *Link) Sweep(rng *rand.Rand, bands []wifi.Band, pairsPerBand int, dwell float64) [][]Pair {
	if pairsPerBand < 1 {
		pairsPerBand = 1
	}
	if dwell == 0 {
		dwell = 2.4e-3
	}
	out := make([][]Pair, len(bands))
	var d Dwell
	t := 0.0
	for i, b := range bands {
		out[i] = make([]Pair, pairsPerBand)
		step := dwell / float64(pairsPerBand+1)
		l.RenderDwell(&d, b)
		for p := range out[i] {
			l.MeasureDwellPair(rng, &d, t+float64(p+1)*step, &out[i][p])
		}
		t += dwell
	}
	return out
}
