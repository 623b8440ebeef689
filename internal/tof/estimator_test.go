package tof

import (
	"errors"
	"math"
	"math/rand"
	"sync"
	"testing"

	"chronos/internal/csi"
	"chronos/internal/dsp"
	"chronos/internal/rf"
	"chronos/internal/sim"
	"chronos/internal/wifi"
)

// testLink builds a link over a multipath channel whose direct path has
// the given delay (ns).
func testLink(rng *rand.Rand, directNs float64, extraPaths []rf.Path, quirk bool) *csi.Link {
	tx, rx := csi.NewRadio(rng), csi.NewRadio(rng)
	tx.Quirk24, rx.Quirk24 = quirk, quirk
	paths := append([]rf.Path{{Delay: directNs * 1e-9, Gain: 1}}, extraPaths...)
	return &csi.Link{TX: tx, RX: rx, Channel: rf.NewChannel(paths), SNRdB: 30}
}

// calibrated returns an estimator and the link's hardware-delay offset
// from the paper's one-time known-distance calibration. The tests
// subtract it from each ToF themselves, so an estimate's error keeps its
// sign.
func calibrated(t *testing.T, cfg Config, link *csi.Link, rng *rand.Rand, bands []wifi.Band) (*Estimator, float64) {
	t.Helper()
	est := NewEstimator(cfg)
	sweep := link.Sweep(rng, bands, 3)
	trueDist := link.Channel.DirectDelay() * wifi.SpeedOfLight
	cal, err := est.Calibrate(bands, sweep, trueDist)
	if err != nil {
		t.Fatal(err)
	}
	return est, cal.Offset
}

func TestEstimateSinglePath5GHz(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	link := testLink(rng, 10, nil, false)
	bands := wifi.Bands5GHz()
	est, off := calibrated(t, Config{Mode: Bands5GHzOnly, MaxIter: 800}, link, rng, bands)

	sweep := link.Sweep(rng, bands, 3)
	got, err := est.Estimate(bands, sweep)
	if err != nil {
		t.Fatal(err)
	}
	if e := math.Abs(got.ToF - off - 10e-9); e > 0.5e-9 {
		t.Errorf("ToF error = %v, want < 0.5 ns", e)
	}
}

func TestEstimateMultipath5GHz(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	extra := []rf.Path{
		{Delay: 14e-9, Gain: 0.6},
		{Delay: 21e-9, Gain: 0.4},
	}
	link := testLink(rng, 8, extra, false)
	bands := wifi.Bands5GHz()
	est, off := calibrated(t, Config{Mode: Bands5GHzOnly, MaxIter: 1200}, link, rng, bands)

	var errs []float64
	for trial := 0; trial < 5; trial++ {
		sweep := link.Sweep(rng, bands, 3)
		got, err := est.Estimate(bands, sweep)
		if err != nil {
			t.Fatal(err)
		}
		errs = append(errs, math.Abs(got.ToF-off-8e-9))
	}
	// Median-ish check: at least 3 of 5 trials within 1 ns.
	good := 0
	for _, e := range errs {
		if e < 1e-9 {
			good++
		}
	}
	if good < 3 {
		t.Errorf("only %d/5 trials within 1 ns: %v", good, errs)
	}
}

func TestEstimateFusedWithQuirk(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	link := testLink(rng, 12, []rf.Path{{Delay: 18e-9, Gain: 0.5}}, true)
	bands := wifi.USBands()
	est, off := calibrated(t, Config{Mode: BandsFused, Quirk24: true, MaxIter: 1200}, link, rng, bands)

	sweep := link.Sweep(rng, bands, 3)
	got, err := est.Estimate(bands, sweep)
	if err != nil {
		t.Fatal(err)
	}
	if e := math.Abs(got.ToF - off - 12e-9); e > 1.5e-9 {
		t.Errorf("fused ToF error = %v", e)
	}
}

func TestEstimateAllCoherentQuirkFree(t *testing.T) {
	// The clean-firmware what-if: all 35 bands in one inversion.
	rng := rand.New(rand.NewSource(4))
	link := testLink(rng, 9, []rf.Path{{Delay: 15e-9, Gain: 0.5}}, false)
	bands := wifi.USBands()
	est, off := calibrated(t, Config{Mode: BandsAllCoherent, MaxIter: 1200}, link, rng, bands)

	sweep := link.Sweep(rng, bands, 3)
	got, err := est.Estimate(bands, sweep)
	if err != nil {
		t.Fatal(err)
	}
	if e := math.Abs(got.ToF - off - 9e-9); e > 0.5e-9 {
		t.Errorf("all-coherent ToF error = %v", e)
	}
}

func TestEstimateAllCoherentRejectsQuirk(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	link := testLink(rng, 9, nil, true)
	bands := wifi.USBands()
	est := NewEstimator(Config{Mode: BandsAllCoherent, Quirk24: true})
	sweep := link.Sweep(rng, bands, 1)
	if _, err := est.Estimate(bands, sweep); err == nil {
		t.Error("BandsAllCoherent accepted quirked radios")
	}
}

func TestEstimateBandsMismatch(t *testing.T) {
	est := NewEstimator(Config{})
	if _, err := est.Estimate(wifi.USBands(), nil); err == nil {
		t.Error("length mismatch accepted")
	}
}

func TestEstimateNoUsableBands(t *testing.T) {
	est := NewEstimator(Config{Mode: Bands5GHzOnly})
	bands := wifi.Bands24GHz()
	sweep := make([][]csi.Pair, len(bands))
	if _, err := est.Estimate(bands, sweep); !errors.Is(err, ErrNoBands) {
		t.Errorf("err = %v, want ErrNoBands", err)
	}
}

func TestEstimateProfilePeaksReported(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	extra := []rf.Path{{Delay: 13e-9, Gain: 0.7}, {Delay: 19e-9, Gain: 0.5}}
	link := testLink(rng, 7, extra, false)
	bands := wifi.Bands5GHz()
	est, _ := calibrated(t, Config{Mode: Bands5GHzOnly, MaxIter: 1200}, link, rng, bands)

	sweep := link.Sweep(rng, bands, 3)
	got, err := est.Estimate(bands, sweep)
	if err != nil {
		t.Fatal(err)
	}
	if got.Profile == nil {
		t.Fatal("no profile")
	}
	if got.Peaks < 1 || got.Peaks > 12 {
		t.Errorf("peaks = %d", got.Peaks)
	}
	if got.Profile.Power != 2 {
		t.Errorf("profile power = %d, want 2", got.Profile.Power)
	}
	// Profile taus must be in true τ units: first peak near 7 ns (sum
	// domain divided by power). Find max tau in the grid: should span
	// maxTau.
	lastTau := got.Profile.Taus[len(got.Profile.Taus)-1]
	if math.Abs(lastTau-maxTau) > gridStep*2 {
		t.Errorf("profile grid ends at %v, want %v", lastTau, maxTau)
	}
}

func TestCalibrationRemovesHardwareOffset(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	link := testLink(rng, 10, nil, false)
	bands := wifi.Bands5GHz()

	// Uncalibrated: the chain delays bias the estimate.
	est := NewEstimator(Config{Mode: Bands5GHzOnly, MaxIter: 800})
	sweep := link.Sweep(rng, bands, 3)
	raw, err := est.Estimate(bands, sweep)
	if err != nil {
		t.Fatal(err)
	}
	hwSum := (link.TX.Osc.HWDelayNs + link.RX.Osc.HWDelayNs) * 1e-9
	if hwSum > 0.5e-9 {
		if math.Abs(raw.ToF-10e-9) < hwSum/2 {
			t.Errorf("expected hardware bias ≈ %v, got error %v", hwSum, math.Abs(raw.ToF-10e-9))
		}
	}

	// Calibrated at a known distance, the bias disappears.
	cal, off := calibrated(t, Config{Mode: Bands5GHzOnly, MaxIter: 800}, link, rng, bands)
	sweep2 := link.Sweep(rng, bands, 3)
	got, err := cal.Estimate(bands, sweep2)
	if err != nil {
		t.Fatal(err)
	}
	if e := math.Abs(got.ToF - off - 10e-9); e > 0.5e-9 {
		t.Errorf("calibrated error = %v", e)
	}
}

// TestCalibrateSharesEstimator runs Calibrate and Estimate on one
// estimator from two goroutines: Calibrate is the calibration sweep's
// Estimate less the true ToF, neither call writes the estimator, and the
// race detector stays quiet.
func TestCalibrateSharesEstimator(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	link := testLink(rng, 10, nil, false)
	bands := wifi.Bands5GHz()
	est := NewEstimator(Config{Mode: Bands5GHzOnly, MaxIter: 400})
	calSweep := link.Sweep(rng, bands, 2)
	sweep := link.Sweep(rng, bands, 2)
	trueDist := link.Channel.DirectDelay() * wifi.SpeedOfLight
	wantCal, err := est.Calibrate(bands, calSweep, trueDist)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := est.Estimate(bands, calSweep)
	if err != nil {
		t.Fatal(err)
	}
	if off := raw.ToF - trueDist/wifi.SpeedOfLight; off != wantCal.Offset {
		t.Errorf("Calibrate returned %v, want the estimate's %v", wantCal.Offset, off)
	}
	want, err := est.Estimate(bands, sweep)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	var gotCal Calibration
	var calErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		gotCal, calErr = est.Calibrate(bands, calSweep, trueDist)
	}()
	got, err := est.Estimate(bands, sweep)
	wg.Wait()
	if err != nil || calErr != nil {
		t.Fatal(err, calErr)
	}
	if gotCal != wantCal {
		t.Errorf("concurrent Calibrate returned %v, want %v", gotCal, wantCal)
	}
	if got.ToF != want.ToF {
		t.Errorf("Estimate beside Calibrate returned ToF %v, want %v", got.ToF, want.ToF)
	}
}

// TestCalibrationRange pins the one conversion from an estimate to
// meters: above zero the range is bit-equal to (τ − offset)·c, below
// zero it is exactly +0, and the zero calibration gives τ·c.
func TestCalibrationRange(t *testing.T) {
	diff := func(tof, off float64) float64 { return (tof - off) * wifi.SpeedOfLight }
	raw := func(tof, _ float64) float64 { return tof * wifi.SpeedOfLight }
	zero := func(float64, float64) float64 { return 0 }
	for _, tc := range []struct {
		name     string
		tof, off float64
		want     func(tof, off float64) float64
	}{
		{"above zero", 23.7e-9, 4.27e-9, diff},
		{"negative offset", 10e-9, -1.5e-9, diff},
		{"at the offset", 4.27e-9, 4.27e-9, zero},
		{"below zero", 2.1e-9, 4.27e-9, zero},
		{"zero ToF", 0, 4.27e-9, zero},
		{"zero calibration", 23.7e-9, 0, raw},
		{"zero calibration, zero ToF", 0, 0, zero},
	} {
		got := Calibration{Offset: tc.off}.Range(&Estimate{ToF: tc.tof})
		if want := tc.want(tc.tof, tc.off); math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("%s: Range(%v s) at offset %v s = %v (%#x), want %v (%#x)",
				tc.name, tc.tof, tc.off, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
}

func TestEstimateNeverNegative(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	link := testLink(rng, 0.5, nil, false) // 15 cm — devices nearly touching
	bands := wifi.Bands5GHz()
	est, _ := calibrated(t, Config{Mode: Bands5GHzOnly, MaxIter: 800}, link, rng, bands)
	for trial := 0; trial < 3; trial++ {
		sweep := link.Sweep(rng, bands, 3)
		got, err := est.Estimate(bands, sweep)
		if err != nil {
			t.Fatal(err)
		}
		if got.ToF < 0 {
			t.Errorf("negative ToF %v", got.ToF)
		}
	}
}

// TestZeroConfigMatches5GHzOnly pins the zero-value Config on quirked
// radios, the facade's quickstart: BandsFused folds no 2.4 GHz band
// whatever Quirk24 says, so a 35-band sweep gives the ToF, Work and
// every profile bit that Bands5GHzOnly gives on the same sweep.
func TestZeroConfigMatches5GHzOnly(t *testing.T) {
	bands := wifi.USBands()
	rng := rand.New(rand.NewSource(3))
	office := sim.NewOffice(rng, sim.OfficeConfig{})
	zero, only5 := NewEstimator(Config{}), NewEstimator(Config{Mode: Bands5GHzOnly})
	for n := 0; n < 6; n++ {
		link := office.NewLink(rng, office.RandomPlacement(rng, 15, n%2 == 1), sim.LinkConfig{Quirk: true})
		sweep := link.Sweep(rng, bands, 3)
		got, err := zero.Estimate(bands, sweep)
		if err != nil {
			t.Fatal(err)
		}
		want, err := only5.Estimate(bands, sweep)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(got.ToF) != math.Float64bits(want.ToF) || got.Work != want.Work {
			t.Errorf("sweep %d: zero config ToF %x work %d, Bands5GHzOnly %x %d", n, got.ToF, got.Work, want.ToF, want.Work)
			continue
		}
		for i, m := range want.Profile.Magnitude {
			if math.Float64bits(got.Profile.Magnitude[i]) != math.Float64bits(m) ||
				math.Float64bits(got.Profile.Taus[i]) != math.Float64bits(want.Profile.Taus[i]) {
				t.Errorf("sweep %d: profile cell %d differs from Bands5GHzOnly", n, i)
				break
			}
		}
	}
}

// TestEstimateScaleInvariant scales every CSI value of a sweep by 2^k.
// A power of two scales every folded value, residual and noise estimate
// exactly, so the fix must come out bit for bit the same, and with the
// same solver cost: the adaptive evidence gates and the gap tolerance
// are relative to the measurement, never absolute.
func TestEstimateScaleInvariant(t *testing.T) {
	bands := wifi.USBands()
	rng := rand.New(rand.NewSource(4))
	office := sim.NewOffice(rng, sim.OfficeConfig{})
	est := NewEstimator(Config{Mode: BandsFused, Quirk24: true, MaxIter: 1200})
	scaled := func(sweep [][]csi.Pair, s float64) [][]csi.Pair {
		scale := func(m csi.Measurement) csi.Measurement {
			v := make(dsp.Vec, len(m.Values))
			for i, c := range m.Values {
				v[i] = complex(real(c)*s, imag(c)*s)
			}
			m.Values = v
			return m
		}
		out := make([][]csi.Pair, len(sweep))
		for i, pairs := range sweep {
			for _, p := range pairs {
				out[i] = append(out[i], csi.Pair{Forward: scale(p.Forward), Reverse: scale(p.Reverse)})
			}
		}
		return out
	}
	for n := 0; n < 12; n++ {
		link := office.NewLink(rng, office.RandomPlacement(rng, 15, n%3 == 2), sim.LinkConfig{Quirk: true})
		sweep := link.Sweep(rng, bands, 3)
		want, err := est.Estimate(bands, sweep)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []int{-20, -4, -1, 1, 4, 20} {
			got, err := est.Estimate(bands, scaled(sweep, math.Ldexp(1, k)))
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(got.ToF) != math.Float64bits(want.ToF) || got.Work != want.Work || got.Iterations != want.Iterations {
				t.Errorf("sweep %d, scale 2^%d: ToF %.6f ns, work %d, %d iterations; unscaled %.6f ns, %d, %d",
					n, k, got.ToF*1e9, got.Work, got.Iterations, want.ToF*1e9, want.Work, want.Iterations)
			}
		}
	}
}
