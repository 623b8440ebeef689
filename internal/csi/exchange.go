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
}

// pairSeparation is the packet→ACK turnaround in seconds: 28 µs (SIFS +
// ACK duration), leaving the small residual CFO phase error the paper
// notes in §7 observation (1).
const pairSeparation float64 = 28e-6

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
	l.RX.render(d, l.Channel, b, l.TX, l.SNRdB)
}

// MeasureDwellPair captures one forward/reverse CSI pair of dwell d at
// simulated time t into dst, reusing dst's buffers. It draws from rng
// exactly as two Radio.Measure calls would, forward then reverse, and
// on a rendered dwell reports the same bits; on a drawn-only dwell
// (Dwell.DrawOnly) it makes the same draws and reports no values.
func (l *Link) MeasureDwellPair(rng *rand.Rand, d *Dwell, t float64, dst *Pair) {
	opts := MeasureOptions{SNRdB: l.SNRdB, Time: t, TX: l.TX}
	delta, cfoPhase := l.RX.drawPacketImpairments(rng, opts)
	l.RX.capture(rng, d, opts.Time, delta, cfoPhase, &dst.Forward)
	opts.Time, opts.TX = t+pairSeparation, l.RX
	delta, cfoPhase = l.TX.drawPacketImpairments(rng, opts)
	l.TX.capture(rng, d, opts.Time, delta, cfoPhase, &dst.Reverse)
}

// SweepDwell is the simulated time, in seconds, a Sweep spends on each
// band: the 2–3 ms per-band dwell of §4.
const SweepDwell = 2.4e-3

// Sweep measures pairsPerBand CSI pairs on every band, advancing simulated
// time by SweepDwell per band. It returns one slice of pairs per band,
// index-aligned with bands. Each band's dwell is rendered once for all of
// its pairs.
func (l *Link) Sweep(rng *rand.Rand, bands []wifi.Band, pairsPerBand int) [][]Pair {
	return l.SweepRendering(rng, bands, pairsPerBand, nil)
}

// SweepRendering is Sweep that renders only the bands render selects
// (nil selects every band) and draws the others' dwells only
// (Dwell.DrawOnly): their pairs make the draws Sweep's make and carry
// each packet's band, detection delay and time but no values, so every
// rendered band's pairs are Sweep's bit for bit. A sweep that feeds an
// estimator renders the bands it folds (tof.Config.Folds).
func (l *Link) SweepRendering(rng *rand.Rand, bands []wifi.Band, pairsPerBand int, render func(wifi.Band) bool) [][]Pair {
	if pairsPerBand < 1 {
		pairsPerBand = 1
	}
	out := make([][]Pair, len(bands))
	var d Dwell
	t := 0.0
	for i, b := range bands {
		out[i] = make([]Pair, pairsPerBand)
		step := SweepDwell / float64(pairsPerBand+1)
		if render == nil || render(b) {
			l.RenderDwell(&d, b)
		} else {
			d.DrawOnly(b)
		}
		for p := range out[i] {
			l.MeasureDwellPair(rng, &d, t+float64(p+1)*step, &out[i][p])
		}
		t += SweepDwell
	}
	return out
}
