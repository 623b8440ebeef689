// Package rf models the over-the-air physics Chronos inverts: geometric
// multipath propagation, attenuation, thermal noise, and the oscillator
// impairments (carrier frequency offset, hardware phase constants) that
// §7 of the paper cancels with forward×reverse CSI multiplication.
//
// The model is deliberately the same equation family the estimator
// assumes — h(f) = Σₖ aₖ·e^{−j2πfτₖ} — because that equation *is* the
// physics: each propagation path delays the passband signal by τₖ and
// scales it by aₖ. Generating CSI from path geometry therefore exercises
// exactly the code path a hardware CSI trace would.
package rf

import (
	"cmp"
	"math"
	"math/rand"
	"slices"

	"chronos/internal/detmath"
)

// Path is a single propagation path between transmitter and receiver.
type Path struct {
	Delay float64 // propagation delay in seconds (τₖ)
	Gain  float64 // linear amplitude (aₖ), incorporating path loss and reflection losses
}

// Channel is a multipath wireless channel: a sparse sum of delayed,
// attenuated copies of the signal.
type Channel struct {
	Paths []Path
}

// NewChannel returns a channel over the given paths sorted by delay (the
// direct path first). The input slice is copied.
func NewChannel(paths []Path) *Channel {
	paths = slices.Clone(paths)
	sortPaths(paths)
	return &Channel{Paths: paths}
}

// sortPaths sorts paths by delay in place. The sort is unstable, and
// ResponseAt adds the paths in order, so the order it leaves paths of
// equal delay in is part of every response's bits.
func sortPaths(paths []Path) {
	slices.SortFunc(paths, func(a, b Path) int { return cmp.Compare(a.Delay, b.Delay) })
}

// Response returns the complex frequency response h(f) = Σ aₖ·e^{−j2πfτₖ}:
// ResponseAt for the one frequency.
func (c *Channel) Response(freq float64) complex128 {
	var re, im, sin, cos [1]float64
	f := [1]float64{freq}
	c.ResponseAt(re[:], im[:], f[:], sin[:], cos[:])
	return complex(re[0], im[0])
}

// ResponseAt stores the frequency response h(f) of each frequency of
// freqs into re and im. Per path, the phases −2π·f·τₖ of every frequency
// go through one detmath.SincosBatch, in sin and cos (scratch,
// len(freqs) each), and each frequency's sum adds the paths in order, so
// element i is Response(freqs[i]) bit for bit.
func (c *Channel) ResponseAt(re, im, freqs, sin, cos []float64) {
	n := len(freqs)
	re, im, sin, cos = re[:n], im[:n], sin[:n], cos[:n]
	clear(re)
	clear(im)
	for _, p := range c.Paths {
		for i, f := range freqs {
			sin[i] = -2 * math.Pi * f * p.Delay
		}
		detmath.SincosBatch(sin, cos, sin)
		for i := range re {
			re[i] += float64(p.Gain * cos[i])
			im[i] += float64(p.Gain * sin[i])
		}
	}
}

// DirectDelay returns the smallest path delay — the true time of flight —
// or 0 for an empty channel.
func (c *Channel) DirectDelay() float64 {
	if len(c.Paths) == 0 {
		return 0
	}
	return c.Paths[0].Delay
}

// FreeSpaceGain returns the linear amplitude gain of free-space
// propagation over distance d meters at frequency f, per the Friis
// equation amplitude λ/(4πd). Distances below 10 cm are clamped to keep
// gains finite when devices nearly touch.
func FreeSpaceGain(d, f float64) float64 {
	if d < 0.1 {
		d = 0.1
	}
	lambda := 299792458.0 / f
	return lambda / (4 * math.Pi * d)
}

// AWGN adds circularly symmetric complex Gaussian noise with the given
// standard deviation per I/Q component to h.
func AWGN(rng *rand.Rand, h complex128, sigma float64) complex128 {
	return h + complex(rng.NormFloat64()*sigma, rng.NormFloat64()*sigma)
}

// NoiseSigmaForSNR returns the per-component noise standard deviation that
// yields the requested SNR (in dB) for a signal of the given RMS
// amplitude. SNR is defined as signalPower / (2σ²) since noise power is
// split across I and Q.
func NoiseSigmaForSNR(signalRMS, snrDB float64) float64 {
	snr := math.Pow(10, snrDB/10)
	if snr <= 0 {
		return 0
	}
	noisePower := signalRMS * signalRMS / snr
	return math.Sqrt(noisePower / 2)
}

// Oscillator models one radio's fixed hardware chain: its phase (the
// per-device component of the reciprocity constant κ in §7) and its group
// delay. Carrier frequency offset is the radio's own (csi's
// Radio.ResidualCFOHz).
type Oscillator struct {
	HWPhase   float64 // constant phase from the TX/RX chain, radians
	HWDelayNs float64 // constant group delay through the chain, nanoseconds
}

// NewOscillator draws a random oscillator with a uniform hardware phase
// and chain delay, modelling manufacturing spread.
func NewOscillator(rng *rand.Rand) Oscillator {
	// A discarded draw (a carrier error no model reads) keeps every
	// seeded stream, and with it every golden, where it was.
	rng.Float64()
	return Oscillator{
		HWPhase: rng.Float64() * 2 * math.Pi,
		// A couple of nanoseconds of chain delay, constant per device;
		// §7 notes it is pre-calibrated once, so keep it small but nonzero.
		HWDelayNs: rng.Float64() * 3,
	}
}
