// Package csi emulates the channel-state-information reports of an Intel
// 5300-class 802.11n radio — the measurement substrate of the paper. It
// layers the documented impairments onto the true over-the-air channel:
//
//   - packet-detection delay: a baseband phase ramp −2π(f_k−f_0)·δ across
//     subcarriers (§5), with δ drawn from an SNR-dependent distribution
//     whose shape matches Fig. 7c (median ≈177 ns, σ ≈25 ns);
//   - carrier frequency offset: a common phase rotation e^{j(f_tx−f_rx)t}
//     (§7), opposite in sign between forward and reverse measurements;
//   - the reciprocity constant κ (hardware phases of the two chains);
//   - the 2.4 GHz firmware quirk that reports phase modulo π/2 (§11);
//   - per-subcarrier complex AWGN and fixed-point quantization.
package csi

import (
	"math"
	"math/rand"

	"chronos/internal/detmath"
	"chronos/internal/dsp"
	"chronos/internal/rf"
	"chronos/internal/wifi"
)

// Measurement is one CSI report: the measured complex channel on each
// reported subcarrier of one band, for one received packet.
type Measurement struct {
	Band        wifi.Band
	Subcarriers []int   // subcarrier indices (len == len(Values))
	Values      dsp.Vec // measured channel per subcarrier
	// DetectionDelay is the packet-detection delay that corrupted this
	// measurement, in seconds. Real hardware does not expose it; the
	// simulator records it for the Fig. 7c ground-truth histogram.
	DetectionDelay float64
	// Time is the receive timestamp in seconds of simulated time (used by
	// the CFO model).
	Time float64
}

// Fig. 7c's packet-detection delay statistics (seconds): the median and
// spread a Radio draws with when its own fields are zero.
const (
	DefaultDetectDelayMed   = 177e-9
	DefaultDetectDelaySigma = 24.76e-9
)

// Radio is one simulated Wi-Fi device's RF front end.
type Radio struct {
	Osc rf.Oscillator
	// ResidualCFOHz is the carrier offset remaining in CSI after the
	// receiver's preamble-based CFO correction. The raw ±20 ppm hardware
	// offset is estimated and removed per packet; what corrupts CSI phase
	// between packets is this residual (tens of Hz), which still
	// accumulates to large phase errors over the tens of milliseconds of
	// a band sweep — exactly the error §7 cancels.
	ResidualCFOHz float64
	// PhaseJitterRad is the per-packet common phase noise (PLL jitter),
	// standard deviation in radians.
	PhaseJitterRad float64
	// DetectDelayMed and DetectDelaySigma parameterize the right-skewed
	// packet-detection delay (seconds); zero means DefaultDetectDelayMed
	// and DefaultDetectDelaySigma.
	DetectDelayMed   float64
	DetectDelaySigma float64
	// Quirk24 enables the 2.4 GHz phase-mod-π/2 firmware bug.
	Quirk24 bool
	// QuantBits, if nonzero, quantizes reported I/Q to that many bits
	// (the 5300 reports 8-bit CSI).
	QuantBits int
}

// NewRadio builds a radio with paper-calibrated defaults and a randomly
// drawn oscillator.
func NewRadio(rng *rand.Rand) *Radio {
	return &Radio{
		Osc:              rf.NewOscillator(rng),
		ResidualCFOHz:    rng.NormFloat64() * 40,
		PhaseJitterRad:   0.02,
		DetectDelayMed:   DefaultDetectDelayMed,
		DetectDelaySigma: DefaultDetectDelaySigma,
		Quirk24:          true,
		QuantBits:        8,
	}
}

// DrawDetectionDelay samples a packet-detection delay. The delay is the
// time for the energy detector to cross threshold, so it is positive,
// right-skewed, and grows as SNR drops. We model it as
// median·(1 + exp-noise) scaled by an SNR factor, clamped positive.
func (r *Radio) DrawDetectionDelay(rng *rand.Rand, snrDB float64) float64 {
	med := r.DetectDelayMed
	if med == 0 {
		med = DefaultDetectDelayMed
	}
	sigma := r.DetectDelaySigma
	if sigma == 0 {
		sigma = DefaultDetectDelaySigma
	}
	// Low SNR lengthens detection: +1%/dB below 25 dB.
	snrFactor := 1.0
	if snrDB < 25 {
		snrFactor += (25 - snrDB) * 0.01
	}
	d := med*snrFactor + rng.NormFloat64()*sigma
	// Skew: occasionally the detector needs extra symbols.
	if rng.Float64() < 0.1 {
		d += rng.Float64() * 2 * sigma
	}
	if d < 10e-9 {
		d = 10e-9
	}
	return d
}

// MeasureOptions controls one simulated CSI capture.
type MeasureOptions struct {
	SNRdB float64 // per-subcarrier SNR for AWGN (default 30 dB)
	Time  float64 // receive time in seconds (for CFO phase)
	// TX is the transmitting radio (its oscillator sets the CFO sign).
	TX *Radio
	// DisableDetectionDelay zeroes δ.
	DisableDetectionDelay bool
}

// defaultSNRdB is the per-subcarrier SNR of a capture whose SNR is zero.
const defaultSNRdB float64 = 30

// snrOrDefault returns snrDB, or defaultSNRdB for zero.
func snrOrDefault(snrDB float64) float64 {
	if snrDB == 0 {
		return defaultSNRdB
	}
	return snrDB
}

// Measure produces the CSI this radio would report for a packet from tx
// over channel ch on band b. It implements Eq. 5–6 and Eq. 11 of the
// paper: measured phase = true channel phase + detection-delay ramp + CFO
// rotation (+ hardware phase), then noise, quantization, and optionally
// the 2.4 GHz quirk. It renders the channel for this one packet: the
// per-packet reference that the dwell captures (Link, ArrayLink) match
// bit for bit.
func (r *Radio) Measure(rng *rand.Rand, ch *rf.Channel, b wifi.Band, opts MeasureOptions) Measurement {
	delta, cfoPhase := r.drawPacketImpairments(rng, opts)
	var d Dwell
	r.render(&d, ch, b, opts.TX, opts.SNRdB)
	m := Measurement{Subcarriers: d.subs, Values: d.resp}
	r.capture(rng, &d, opts.Time, delta, cfoPhase, &m)
	return m
}

// drawPacketImpairments samples the card-level impairments of one
// packet: its detection delay, then its phase jitter. They are a
// packet's first draws; capture makes the rest.
func (r *Radio) drawPacketImpairments(rng *rand.Rand, opts MeasureOptions) (delta, cfoPhase float64) {
	if !opts.DisableDetectionDelay {
		delta = r.DrawDetectionDelay(rng, snrOrDefault(opts.SNRdB))
	}
	// CFO phase at the center frequency; to first order all subcarriers
	// share it because the offset is a carrier-level rotation. The raw
	// ±20 ppm offset is corrected per packet from the preamble; what
	// remains is the residual offset, which is opposite in sign between
	// forward and reverse measurements (Eq. 11 vs Eq. 12).
	if opts.TX != nil {
		cfoPhase = 2 * math.Pi * (opts.TX.ResidualCFOHz - r.ResidualCFOHz) * opts.Time
	}
	if r.PhaseJitterRad > 0 {
		cfoPhase += rng.NormFloat64() * r.PhaseJitterRad
	}
	return delta, cfoPhase
}

// Dwell is the part of a band dwell's CSI that every packet of the dwell
// shares while the channel holds still: the channel response on the
// reported subcarriers times the pair's hardware group delay
// exp(−j2πf·hwDelay), the pair's hardware phase, and the noise scale
// derived from the response's mean magnitude. Link.RenderDwell fills it
// once per dwell (ArrayLink one per receive chain) and
// Link.MeasureDwellPair adds each packet's own impairments, with the same
// random draws in the same order as Radio.Measure, so the output is
// Measure's bit for bit. hwDelay and hwPhase are sums of the two radios'
// constants and IEEE addition commutes, so the forward and the reverse
// measurement share one rendering. A dwell can instead be drawn only
// (DrawOnly): its packets make exactly a rendered dwell's draws and
// render nothing. A Dwell's buffers are reused by the next rendering.
type Dwell struct {
	band       wifi.Band
	subs       []int
	resp       dsp.Vec // channel response × exp(−j2πf·hwDelay) per subcarrier
	hwPhase    float64
	rms, sigma float64 // mean response magnitude and the AWGN σ it sets
	drawn      bool    // DrawOnly: resp, hwPhase, rms and sigma are stale
	// f holds the subcarrier frequencies (its first len(subs) elements,
	// kept from the rendering for the packets) and the planar scratch of
	// the batch math (detmath) behind them.
	f []float64
}

// DrawOnly readies d for packets on band b that are drawn, not
// rendered. A pair measured from it (Link.MeasureDwellPair) makes
// exactly the draws a rendered dwell's pair makes, in the same order,
// and reports each packet's Band, DetectionDelay and Time but no
// Subcarriers or Values. A sweep draws the dwells of the bands its
// estimator does not fold: every later draw lands where a rendered
// sweep puts it, and none of the channel, rendering, rotation,
// quantization or quirk math runs.
func (d *Dwell) DrawOnly(b wifi.Band) {
	if d.subs == nil {
		d.subs = wifi.CSISubcarriers()
	}
	d.band, d.drawn = b, true
}

// scratch returns the dwell's subcarrier frequencies and its planar
// work space of five elements per subcarrier.
func (d *Dwell) scratch() (freqs, w []float64) {
	n := len(d.subs)
	if cap(d.f) < 6*n {
		d.f = make([]float64, 6*n)
	}
	return d.f[:n], d.f[n : 6*n]
}

// render fills d with the dwell-invariant CSI that radio r reports for
// packets from tx (nil: no transmitter constants) over ch on band b at
// the given SNR (0: 30 dB).
func (r *Radio) render(d *Dwell, ch *rf.Channel, b wifi.Band, tx *Radio, snrDB float64) {
	// Hardware constant (part of κ): receiver chain phase plus the
	// transmitter chain phase, and the fixed chain group delays. The
	// forward and the reverse packet share one rendering only if these
	// sums commute, so float64(...) keeps arm64 from fusing either
	// delay's product into the addition.
	hwPhase := r.Osc.HWPhase
	hwDelay := float64(r.Osc.HWDelayNs * 1e-9)
	if tx != nil {
		hwPhase += tx.Osc.HWPhase
		hwDelay += float64(tx.Osc.HWDelayNs * 1e-9)
	}
	if d.subs == nil {
		d.subs = wifi.CSISubcarriers()
	}
	if cap(d.resp) < len(d.subs) {
		d.resp = make(dsp.Vec, len(d.subs))
	}
	d.resp = d.resp[:len(d.subs)]
	d.band, d.hwPhase, d.drawn = b, hwPhase, false

	freqs, w := d.scratch()
	n := len(freqs)
	re, im, sin, cos, mag := w[:n], w[n:2*n], w[2*n:3*n], w[3*n:4*n], w[4*n:]
	for i, k := range d.subs {
		freqs[i] = wifi.SubcarrierFreq(b, k)
	}
	ch.ResponseAt(re, im, freqs, sin, cos)
	// Reference signal RMS for the noise level: the mean channel
	// magnitude across subcarriers.
	detmath.HypotBatch(mag, re, im)
	var rms float64
	for _, m := range mag {
		rms += m
	}
	rms /= float64(n)
	// Hardware group delay acts like extra time of flight at the
	// passband frequency (calibrated out later per §7 note 2).
	for i, f := range freqs {
		sin[i] = -2 * math.Pi * f * hwDelay
	}
	detmath.SincosBatch(sin, cos, sin)
	for i := range d.resp {
		d.resp[i] = dsp.Mul(complex(re[i], im[i]), complex(cos[i], sin[i]))
	}
	d.rms, d.sigma = rms, rf.NoiseSigmaForSNR(rms, snrOrDefault(snrDB))
}

// capture measures one packet that radio r receives at time t on dwell
// d, whose detection delay and CFO phase drawPacketImpairments drew,
// into dst. It makes the packet's remaining draws, two normals per
// reported subcarrier (real, then imaginary, subcarrier by subcarrier),
// and then, on a rendered dwell, the measurement they corrupt
// (measureRendered). On a drawn-only dwell dst keeps its buffers'
// capacity but reports no subcarriers or values.
func (r *Radio) capture(rng *rand.Rand, d *Dwell, t, delta, cfoPhase float64, dst *Measurement) {
	_, w := d.scratch()
	n := len(d.subs)
	// The draws sit past the rotations' sines and cosines (w[:2n]); the
	// quirk's fold reuses their space once the values are formed.
	noise := w[2*n : 4*n]
	for i := range noise {
		noise[i] = rng.NormFloat64()
	}
	if d.drawn {
		*dst = Measurement{
			Band:           d.band,
			Subcarriers:    dst.Subcarriers[:0],
			Values:         dst.Values[:0],
			DetectionDelay: delta,
			Time:           t,
		}
		return
	}
	r.measureRendered(d, t, delta, cfoPhase, noise, dst)
}

// measureRendered writes the CSI radio r reports for one packet of the
// rendered dwell d, received at time t with the packet's detection
// delay, CFO phase and noise draws (two per subcarrier, scaled by the
// dwell's σ), into dst. dst's Subcarriers and Values are reused when
// they have room (Measure hands over d's own buffers, which are read
// before they are written). The packet's rotations run as one batch
// and the quirk's fold as another, in the dwell's scratch.
func (r *Radio) measureRendered(d *Dwell, t, delta, cfoPhase float64, noise []float64, dst *Measurement) {
	n := len(d.subs)
	subs, vals := dst.Subcarriers, dst.Values
	if cap(subs) < n {
		subs = make([]int, n)
	}
	if cap(vals) < n {
		vals = make(dsp.Vec, n)
	}
	subs, vals = subs[:n], vals[:n]
	copy(subs, d.subs)
	b := d.band
	freqs, w := d.scratch()
	sin, cos := w[:n], w[n:2*n]
	for i, f := range freqs {
		// Detection-delay ramp: baseband, so proportional to (f_k − f_0).
		ramp := float64(-2 * math.Pi * (f - b.Center) * delta)
		sin[i] = ramp + cfoPhase + d.hwPhase
	}
	detmath.SincosBatch(sin, cos, sin)
	for i := range vals {
		h := dsp.Mul(d.resp[i], complex(cos[i], sin[i]))
		h += complex(float64(noise[2*i]*d.sigma), float64(noise[2*i+1]*d.sigma))
		if r.QuantBits > 0 {
			h = quantize(h, r.QuantBits, d.rms*4)
		}
		vals[i] = h
	}
	if r.Quirk24 && b.GHz24() {
		quirkFold(vals, w)
	}
	*dst = Measurement{
		Band:           b,
		Subcarriers:    subs,
		Values:         vals,
		DetectionDelay: delta,
		Time:           t,
	}
}

// quantize rounds I/Q components to a bits-wide fixed-point grid spanning
// ±fullScale, mimicking the 5300's integer CSI report.
func quantize(h complex128, bits int, fullScale float64) complex128 {
	if fullScale <= 0 {
		return h
	}
	levels := float64(int(1) << (bits - 1))
	q := func(x float64) float64 {
		s := x / fullScale * levels
		if s > levels-1 {
			s = levels - 1
		} else if s < -levels {
			s = -levels
		}
		return math.Round(s) / levels * fullScale
	}
	return complex(q(real(h)), q(imag(h)))
}

// quirkFold folds the phase of each value of vals modulo π/2 in place,
// reproducing the Intel 5300 2.4 GHz firmware issue (§11 footnote 5):
// magnitude |h| and phase arg h as cmplx.Abs and cmplx.Phase compute
// them, and the folded value as cmplx.Rect, through detmath's batch
// forms. w is scratch of 5·len(vals) elements.
func quirkFold(vals dsp.Vec, w []float64) {
	n := len(vals)
	re, im, mag, ph, cos := w[:n], w[n:2*n], w[2*n:3*n], w[3*n:4*n], w[4*n:5*n]
	for i, h := range vals {
		re[i], im[i] = real(h), imag(h)
	}
	detmath.HypotBatch(mag, re, im)
	detmath.Atan2Batch(ph, im, re)
	for i, p := range ph {
		folded := math.Mod(p, math.Pi/2)
		if folded < 0 {
			folded += math.Pi / 2
		}
		ph[i] = folded
	}
	detmath.SincosBatch(ph, cos, ph)
	for i := range vals {
		vals[i] = complex(mag[i]*cos[i], mag[i]*ph[i])
	}
}
