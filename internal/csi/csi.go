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
	"math/cmplx"
	"math/rand"

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
	// packet-detection delay (seconds). Defaults: 177 ns / 24.76 ns.
	DetectDelayMed   float64
	DetectDelaySigma float64
	// Quirk24 enables the 2.4 GHz phase-mod-π/2 firmware bug.
	Quirk24 bool
	// QuantBits, if nonzero, quantizes reported I/Q to that many bits
	// (the 5300 reports 8-bit CSI).
	QuantBits int
}

// NewRadio builds a radio with paper-calibrated defaults and a randomly
// drawn oscillator (±20 ppm, per 802.11 tolerance).
func NewRadio(rng *rand.Rand) *Radio {
	return &Radio{
		Osc:              rf.NewOscillator(rng, 20),
		ResidualCFOHz:    rng.NormFloat64() * 40,
		PhaseJitterRad:   0.02,
		DetectDelayMed:   177e-9,
		DetectDelaySigma: 24.76e-9,
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
		med = 177e-9
	}
	sigma := r.DetectDelaySigma
	if sigma == 0 {
		sigma = 24.76e-9
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
	// DisableDetectionDelay zeroes δ — used by ablation benches.
	DisableDetectionDelay bool
	// DisableCFO zeroes the carrier frequency offset phase.
	DisableCFO bool
}

// Measure produces the CSI this radio would report for a packet from tx
// over channel ch on band b. It implements Eq. 5–6 and Eq. 11 of the
// paper: measured phase = true channel phase + detection-delay ramp + CFO
// rotation (+ hardware phase), then noise, quantization, and optionally
// the 2.4 GHz quirk.
func (r *Radio) Measure(rng *rand.Rand, ch *rf.Channel, b wifi.Band, opts MeasureOptions) Measurement {
	delta, cfoPhase := r.drawPacketImpairments(rng, opts)
	return r.measureChain(rng, ch, b, opts, delta, cfoPhase)
}

// MeasureArray produces one CSI report per receive chain for a single
// received packet: every chain shares the packet's detection delay, CFO
// rotation and PLL jitter (they are card-level, not per-antenna), while
// each chain sees its own geometry and its own thermal noise and
// quantization. This per-packet correlation is what makes differential
// (antenna-to-antenna) phase far more precise than absolute phase on
// real multi-chain cards, and it is the property §8's localization
// leans on.
func (r *Radio) MeasureArray(rng *rand.Rand, chans []*rf.Channel, b wifi.Band, opts MeasureOptions) []Measurement {
	delta, cfoPhase := r.drawPacketImpairments(rng, opts)
	out := make([]Measurement, len(chans))
	for i, ch := range chans {
		out[i] = r.measureChain(rng, ch, b, opts, delta, cfoPhase)
	}
	return out
}

// drawPacketImpairments samples the card-level impairments of one packet.
func (r *Radio) drawPacketImpairments(rng *rand.Rand, opts MeasureOptions) (delta, cfoPhase float64) {
	if opts.SNRdB == 0 {
		opts.SNRdB = 30
	}
	if !opts.DisableDetectionDelay {
		delta = r.DrawDetectionDelay(rng, opts.SNRdB)
	}
	// CFO phase at the center frequency; to first order all subcarriers
	// share it because the offset is a carrier-level rotation. The raw
	// ±20 ppm offset is corrected per packet from the preamble; what
	// remains is the residual offset, which is opposite in sign between
	// forward and reverse measurements (Eq. 11 vs Eq. 12).
	if !opts.DisableCFO && opts.TX != nil {
		cfoPhase = 2 * math.Pi * (opts.TX.ResidualCFOHz - r.ResidualCFOHz) * opts.Time
	}
	if r.PhaseJitterRad > 0 {
		cfoPhase += rng.NormFloat64() * r.PhaseJitterRad
	}
	return delta, cfoPhase
}

// measureChain renders one chain's CSI given the packet-level impairments.
func (r *Radio) measureChain(rng *rand.Rand, ch *rf.Channel, b wifi.Band, opts MeasureOptions, delta, cfoPhase float64) Measurement {
	if opts.SNRdB == 0 {
		opts.SNRdB = 30
	}
	subs := wifi.CSISubcarriers()
	vals := make(dsp.Vec, len(subs))

	// Hardware constant (part of κ): receiver chain phase plus the
	// transmitter chain phase, and the fixed chain group delays.
	hwPhase := r.Osc.HWPhase
	hwDelay := r.Osc.HWDelayNs * 1e-9
	if opts.TX != nil {
		hwPhase += opts.TX.Osc.HWPhase
		hwDelay += opts.TX.Osc.HWDelayNs * 1e-9
	}

	// Reference signal RMS for the noise level: the mean channel
	// magnitude across subcarriers. vals keeps each response for the
	// loop below.
	var rms float64
	for i, k := range subs {
		vals[i] = ch.Response(wifi.SubcarrierFreq(b, k))
		rms += cmplx.Abs(vals[i])
	}
	rms /= float64(len(subs))
	sigma := rf.NoiseSigmaForSNR(rms, opts.SNRdB)

	for i, k := range subs {
		f := wifi.SubcarrierFreq(b, k)
		h := vals[i]
		// Hardware group delay acts like extra time of flight at the
		// passband frequency (calibrated out later per §7 note 2).
		h *= cmplx.Rect(1, -2*math.Pi*f*hwDelay)
		// Detection-delay ramp: baseband, so proportional to (f_k − f_0).
		ramp := -2 * math.Pi * (f - b.Center) * delta
		h *= cmplx.Rect(1, ramp+cfoPhase+hwPhase)
		h = rf.AWGN(rng, h, sigma)
		if r.QuantBits > 0 {
			h = quantize(h, r.QuantBits, rms*4)
		}
		if r.Quirk24 && b.GHz24() {
			h = quirkFold(h)
		}
		vals[i] = h
	}
	return Measurement{
		Band:           b,
		Subcarriers:    subs,
		Values:         vals,
		DetectionDelay: delta,
		Time:           opts.Time,
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

// quirkFold reports the channel with its phase folded modulo π/2,
// reproducing the Intel 5300 2.4 GHz firmware issue (§11 footnote 5).
// Magnitude is preserved.
func quirkFold(h complex128) complex128 {
	mag := cmplx.Abs(h)
	ph := cmplx.Phase(h)
	folded := math.Mod(ph, math.Pi/2)
	if folded < 0 {
		folded += math.Pi / 2
	}
	return cmplx.Rect(mag, folded)
}
