package tof

import (
	"math"
	"math/rand"
	"testing"

	"chronos/internal/dsp"
	"chronos/internal/rf"
	"chronos/internal/wifi"
)

// TestPairSpreadMoments pins the estimator's arithmetic on a hand-sized
// sample: the mean matches BandValue's fold, and the variance of the
// mean is the sample variance over k·(k−1).
func TestPairSpreadMoments(t *testing.T) {
	vals := dsp.Vec{1 + 2i, 3 - 2i, 2 + 0i}
	mean, varMean, ok := pairSpread(vals)
	if !ok {
		t.Fatal("three pairs reported no spread")
	}
	if mean != 2+0i {
		t.Errorf("mean = %v, want 2", mean)
	}
	// Deviations: (−1+2i), (1−2i), 0 → Σ|d|² = 10; 10/(3·2) = 5/3.
	if math.Abs(varMean-10.0/6.0) > 1e-12 {
		t.Errorf("varMean = %v, want %v", varMean, 10.0/6.0)
	}
}

// TestPairSpreadSignalInvariance pins the property that makes the
// pair-spread estimator signal-free: adding a common (signal) value to
// every pair moves the mean but leaves the spread untouched, and
// scaling all pairs scales the spread quadratically.
func TestPairSpreadSignalInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	vals := make(dsp.Vec, 5)
	for i := range vals {
		vals[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	_, v0, _ := pairSpread(vals)
	shifted := make(dsp.Vec, len(vals))
	for i := range vals {
		shifted[i] = vals[i] + (17 - 9i)
	}
	if _, v1, _ := pairSpread(shifted); math.Abs(v1-v0) > 1e-9*v0 {
		t.Errorf("signal shift changed the spread: %v vs %v", v1, v0)
	}
	scaled := make(dsp.Vec, len(vals))
	for i := range vals {
		scaled[i] = vals[i] * 3
	}
	if _, v9, _ := pairSpread(scaled); math.Abs(v9-9*v0) > 1e-9*v0 {
		t.Errorf("3× scale: spread %v, want %v", v9, 9*v0)
	}
}

// TestPairSpreadDegenerate covers the no-information inputs.
func TestPairSpreadDegenerate(t *testing.T) {
	if _, _, ok := pairSpread(nil); ok {
		t.Error("empty input reported a spread")
	}
	mean, v, ok := pairSpread(dsp.Vec{2 + 1i})
	if ok || v != 0 || mean != 2+1i {
		t.Errorf("single pair: mean %v var %v ok %v, want (2+1i, 0, false)", mean, v, ok)
	}
}

// TestGroupNoiseFloorImputation checks the missing-band scaling: bands
// without repeated pairs are imputed at the measured average, so the
// estimate reflects the full group length.
func TestGroupNoiseFloorImputation(t *testing.T) {
	g := []bandMeas{
		{noiseVar: 4, noiseOK: true},
		{noiseVar: 0, noiseOK: false},
		{noiseVar: 2, noiseOK: true},
		{noiseVar: 0, noiseOK: false},
	}
	want := math.Sqrt(6 * 4.0 / 2.0)
	if got := groupNoiseFloor(g); math.Abs(got-want) > 1e-12 {
		t.Errorf("groupNoiseFloor = %v, want %v", got, want)
	}
	if got := groupNoiseFloor([]bandMeas{{noiseOK: false}}); got != 0 {
		t.Errorf("no measured bands: %v, want 0", got)
	}
}

// TestEstimateNoiseFloorTracksSNR checks the end-to-end per-sweep
// estimator: the relative noise estimate surfaced on Estimate must fall
// monotonically as link SNR rises, and sit near the historical tuning
// point (≈0.05) at the campaign's 26 dB.
func TestEstimateNoiseFloorTracksSNR(t *testing.T) {
	bands := wifi.Bands5GHz()
	prev := math.Inf(1)
	for _, snr := range []float64{12, 18, 26, 35} {
		rng := rand.New(rand.NewSource(5))
		link := testLink(rng, 20, []rf.Path{{Delay: 24.2e-9, Gain: 0.6}}, false)
		link.SNRdB = snr
		est := NewEstimator(Config{Mode: Bands5GHzOnly, MaxIter: 1200})
		r, err := est.Estimate(bands, link.Sweep(rng, bands, 3, 2.4e-3))
		if err != nil {
			t.Fatal(err)
		}
		if r.NoiseFloor <= 0 || r.NoiseFloor >= prev {
			t.Errorf("SNR %v: noiseRel %v, want positive and below %v", snr, r.NoiseFloor, prev)
		}
		if snr == 26 && (r.NoiseFloor < 0.02 || r.NoiseFloor > 0.09) {
			t.Errorf("campaign SNR: noiseRel %v, want near the 0.05 tuning point", r.NoiseFloor)
		}
		prev = r.NoiseFloor
	}
}

// TestAdaptiveGatesAnchoring pins the noise-adaptive threshold formulas
// at their calibration anchor (the historical constants at
// noiseRel = 0.05), their clamps, and the ablation/fallback paths.
func TestAdaptiveGatesAnchoring(t *testing.T) {
	e := NewEstimator(Config{})
	g := e.gatesFor(0.05)
	if math.Abs(g.refitMargin-aliasMargin) > 1e-12 ||
		math.Abs(g.anchorMargin-anchorMargin) > 1e-12 ||
		math.Abs(g.fitGate-refitFitGate) > 1e-12 {
		t.Errorf("gates at the tuning point %+v, want the historical constants", g)
	}
	if g := e.gatesFor(10); g.refitMargin != 0.6 || g.anchorMargin != 1.9 || g.fitGate != 0.6 {
		t.Errorf("deep-fade clamps: %+v", g)
	}
	if g := e.gatesFor(0); g != fixedGates {
		t.Errorf("no estimate: %+v, want fixed gates", g)
	}
	fixed := NewEstimator(Config{FixedThresholds: true})
	if g := fixed.gatesFor(0.3); g != fixedGates {
		t.Errorf("FixedThresholds ablation: %+v, want fixed gates", g)
	}
}

// TestEstimateSinglePairNoiseFallback covers the cross-band MAD
// fallback: a single-pair-per-band dwell has no repeated-pair spread, so
// the per-sweep noise floor must come from ndft.Plan.NoiseFloor instead
// of silently collapsing to zero (which would disable gap stopping for
// exactly the fast low-dwell sweeps that need it most).
func TestEstimateSinglePairNoiseFallback(t *testing.T) {
	bands := wifi.Bands5GHz()
	single := func(snr float64) *Estimate {
		rng := rand.New(rand.NewSource(6))
		link := testLink(rng, 18, []rf.Path{{Delay: 25e-9, Gain: 0.5}}, false)
		link.SNRdB = snr
		est := NewEstimator(Config{Mode: Bands5GHzOnly, MaxIter: 1500})
		r, err := est.Estimate(bands, link.Sweep(rng, bands, 1, 2.4e-3))
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	r := single(26)
	if r.NoiseFloor <= 0 || math.IsInf(r.NoiseFloor, 0) || math.IsNaN(r.NoiseFloor) {
		t.Fatalf("single-pair sweep: NoiseFloor = %v, want the MAD fallback to engage", r.NoiseFloor)
	}
	// The MAD floor is documented as an upper bound under signal leakage
	// (sidelobes of a strong sparse signal lift the off-support cells),
	// so it must never read below the calibrated repeated-pair estimate
	// on the same link — conservatism is what keeps the gap stop from
	// engaging on an underestimated floor.
	rng := rand.New(rand.NewSource(6))
	link := testLink(rng, 18, []rf.Path{{Delay: 25e-9, Gain: 0.5}}, false)
	link.SNRdB = 26
	est := NewEstimator(Config{Mode: Bands5GHzOnly, MaxIter: 1500})
	r3, err := est.Estimate(bands, link.Sweep(rng, bands, 3, 2.4e-3))
	if err != nil {
		t.Fatal(err)
	}
	if r.NoiseFloor < r3.NoiseFloor {
		t.Errorf("fallback noiseRel %v below the pair-spread estimate %v; the upper-bound property broke",
			r.NoiseFloor, r3.NoiseFloor)
	}
	// And it tracks the link: a noisier link must not read cleaner.
	if lo, hi := single(26), single(8); hi.NoiseFloor < lo.NoiseFloor {
		t.Errorf("fallback at 8 dB (%v) reads below 26 dB (%v)", hi.NoiseFloor, lo.NoiseFloor)
	}
}
