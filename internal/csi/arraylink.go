package csi

import (
	"math/rand"

	"chronos/internal/rf"
	"chronos/internal/wifi"
)

// ArrayLink couples a single-antenna transmitter with an n-chain receiver
// card for the §8 localization scenario. One forward packet yields one
// CSI measurement per receive antenna, all sharing the packet's detection
// delay and CFO (they are card-level effects); the receiver then sends
// its acknowledgments round-robin from each antenna, so every antenna i
// gets a reverse measurement over its own reciprocal channel and the §7
// product is the clean squared channel h̃ᵢ² with first peak at 2τᵢ —
// the per-antenna "pairwise distances" of §8.
type ArrayLink struct {
	TX *Radio // single-antenna transmitter
	RX *Radio // n-chain receiver card (shared oscillator and detector)
	// Channels is the per-receive-antenna propagation channel.
	Channels []*rf.Channel
	SNRdB    float64
	// PairSeparation is the packet→ACK turnaround (default 28 µs).
	PairSeparation        float64
	DisableDetectionDelay bool
	DisableCFO            bool
}

// MeasureSet captures one forward packet across all chains plus one
// round-robin reverse measurement per antenna, and returns one Pair per
// antenna: the chains' dwells rendered on band b, then one set measured.
func (l *ArrayLink) MeasureSet(rng *rand.Rand, b wifi.Band, t float64) []Pair {
	return l.measureSet(rng, l.renderDwells(nil, b), t)
}

// renderDwells renders every receive chain's dwell on band b into ds,
// resized to one Dwell per channel with its buffers reused, and returns
// it. Like Link's, one rendering serves the chain's forward packet and
// its reverse ACK (see Dwell).
func (l *ArrayLink) renderDwells(ds []Dwell, b wifi.Band) []Dwell {
	if cap(ds) < len(l.Channels) {
		ds = make([]Dwell, len(l.Channels))
	}
	ds = ds[:len(l.Channels)]
	for i, ch := range l.Channels {
		l.RX.render(&ds[i], ch, b, l.TX, l.SNRdB)
	}
	return ds
}

// measureSet captures one set at time t from the rendered dwells ds.
// Every chain's forward CSI shares the packet's detection delay, CFO
// rotation and PLL jitter (they are card-level, not per-antenna), while
// each chain sees its own geometry and its own thermal noise and
// quantization. This per-packet correlation is what makes differential
// (antenna-to-antenna) phase far more precise than absolute phase on
// real multi-chain cards, and it is the property §8's localization
// leans on. The draws are a per-packet capture's (Radio.Measure): the
// forward packet's impairments, each chain's noise, then each ACK's.
func (l *ArrayLink) measureSet(rng *rand.Rand, ds []Dwell, t float64) []Pair {
	sep := l.PairSeparation
	if sep == 0 {
		sep = 28e-6
	}
	opts := MeasureOptions{
		SNRdB: l.SNRdB, Time: t, TX: l.TX,
		DisableDetectionDelay: l.DisableDetectionDelay,
		DisableCFO:            l.DisableCFO,
	}
	pairs := make([]Pair, len(ds))
	delta, cfoPhase := l.RX.drawPacketImpairments(rng, opts)
	for i := range ds {
		l.RX.measureRendered(rng, &ds[i], t, delta, cfoPhase, &pairs[i].Forward)
	}
	opts.TX = l.RX
	for i := range ds {
		// The i-th ACK is transmitted from RX antenna i, so the
		// transmitter measures antenna i's reciprocal channel.
		opts.Time = t + sep + float64(i)*sep
		delta, cfoPhase = l.TX.drawPacketImpairments(rng, opts)
		l.TX.measureRendered(rng, &ds[i], opts.Time, delta, cfoPhase, &pairs[i].Reverse)
	}
	return pairs
}

// Sweep runs pairsPerBand measurement sets on every band and returns the
// per-antenna band sweeps: out[ant][band] is the pair list for that
// antenna and band, directly consumable by one tof.Estimator per antenna.
// Each band's chains are rendered once for all of its sets.
func (l *ArrayLink) Sweep(rng *rand.Rand, bands []wifi.Band, pairsPerBand int, dwell float64) [][][]Pair {
	if pairsPerBand < 1 {
		pairsPerBand = 1
	}
	if dwell == 0 {
		dwell = 2.4e-3
	}
	out := make([][][]Pair, len(l.Channels))
	for a := range out {
		out[a] = make([][]Pair, len(bands))
	}
	var ds []Dwell
	t := 0.0
	for bi, b := range bands {
		step := dwell / float64(pairsPerBand+1)
		ds = l.renderDwells(ds, b)
		for a := range out {
			out[a][bi] = make([]Pair, pairsPerBand)
		}
		for p := 0; p < pairsPerBand; p++ {
			for a, pair := range l.measureSet(rng, ds, t+float64(p+1)*step) {
				out[a][bi][p] = pair
			}
		}
		t += dwell
	}
	return out
}
