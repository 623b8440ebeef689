package tof

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"chronos/internal/csi"
	"chronos/internal/obs"
	"chronos/internal/sim"
	"chronos/internal/wifi"
)

// TestSweepIncrementalMatchesBatch is the refactor's core contract: folding
// bands in one at a time and estimating at the end must reproduce the batch
// Estimate bit for bit (same measurements, same grouping, same inversion).
func TestSweepIncrementalMatchesBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	link := testLink(rng, 12, nil, true)
	bands := wifi.USBands()
	est := NewEstimator(Config{Mode: BandsFused, Quirk24: true, MaxIter: 600})
	sweep := link.Sweep(rng, bands, 3)

	batch, err := est.Estimate(bands, sweep)
	if err != nil {
		t.Fatal(err)
	}

	acc := est.NewSweep()
	for i, b := range bands {
		if err := acc.AddBand(b, sweep[i]); err != nil {
			t.Fatal(err)
		}
	}
	inc, err := acc.Estimate()
	if err != nil {
		t.Fatal(err)
	}
	if inc.ToF != batch.ToF || inc.Peaks != batch.Peaks {
		t.Errorf("incremental fix diverged from batch: %+v vs %+v", inc, batch)
	}
}

// TestEstimateBandOrderInvariant pins a fix as a function of the bands a
// sweep measured, not of the order they arrived in: office sweeps, LOS
// and NLOS, estimated in band-plan order, reversed, and randomly
// permuted must agree in ToF, Work and every profile bit. BandsFused
// solves the 5 GHz group, which the band plan lists in frequency order;
// Bands24Only solves the h̃⁸ group, which it does not.
func TestEstimateBandOrderInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	office := sim.NewOffice(rng, sim.OfficeConfig{})
	for _, mode := range []BandMode{BandsFused, Bands24Only} {
		est := NewEstimator(Config{Mode: mode, Quirk24: true, MaxIter: 1200})
		bands := BandsFor(est.Config())
		reversed := make([]int, len(bands))
		for i := range reversed {
			reversed[i] = len(bands) - 1 - i
		}
		for n := 0; n < 24; n++ {
			link := office.NewLink(rng, office.RandomPlacement(rng, 15, n%2 == 1), sim.LinkConfig{Quirk: true})
			sweep := link.Sweep(rng, bands, 3)
			want, err := est.Estimate(bands, sweep)
			if err != nil {
				t.Fatal(err)
			}
			for _, perm := range []struct {
				name  string
				order []int
			}{{"reversed", reversed}, {"permuted", rng.Perm(len(bands))}} {
				pb, ps := make([]wifi.Band, len(bands)), make([][]csi.Pair, len(bands))
				for i, j := range perm.order {
					pb[i], ps[i] = bands[j], sweep[j]
				}
				got, err := est.Estimate(pb, ps)
				if err != nil {
					t.Fatal(err)
				}
				if math.Float64bits(got.ToF) != math.Float64bits(want.ToF) || got.Work != want.Work {
					t.Errorf("mode %d, sweep %d %s: ToF %x work %d, in band-plan order %x %d",
						mode, n, perm.name, got.ToF, got.Work, want.ToF, want.Work)
					continue
				}
				for i, m := range want.Profile.Magnitude {
					if math.Float64bits(got.Profile.Magnitude[i]) != math.Float64bits(m) ||
						math.Float64bits(got.Profile.Taus[i]) != math.Float64bits(want.Profile.Taus[i]) {
						t.Errorf("mode %d, sweep %d %s: profile cell %d differs from band-plan order", mode, n, perm.name, i)
						break
					}
				}
			}
		}
	}
}

// TestSweepEarlyFix checks the streaming property the track subsystem
// relies on: a usable (if degraded) fix is available from a partial band
// set, and the full-sweep fix refines it.
func TestSweepEarlyFix(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	link := testLink(rng, 10, nil, false)
	bands := wifi.Bands5GHz()
	est, off := calibrated(t, Config{Mode: Bands5GHzOnly, MaxIter: 800}, link, rng, bands)

	sweep := link.Sweep(rng, bands, 3)
	acc := est.NewSweep()
	var earlyToF float64
	for i, b := range bands {
		if err := acc.AddBand(b, sweep[i]); err != nil {
			t.Fatal(err)
		}
		if acc.Bands() == 8 {
			early, err := acc.Estimate()
			if err != nil {
				t.Fatalf("early fix at 8 bands: %v", err)
			}
			earlyToF = early.ToF - off
		}
	}
	full, err := acc.Estimate()
	if err != nil {
		t.Fatal(err)
	}
	// The first 8 5 GHz bands all sit on the 20 MHz channel raster, so an
	// early fix is only unambiguous modulo the 25 ns grating-lobe period —
	// the off-lattice bands that resolve the alias arrive later in the
	// sweep. Accept the early fix up to that alias.
	earlyErr := math.Inf(1)
	for k := -1.0; k <= 1; k++ {
		if e := math.Abs(earlyToF - 10e-9 + k*25e-9); e < earlyErr {
			earlyErr = e
		}
	}
	if earlyErr > 6e-9 {
		t.Errorf("early fix error = %v ns (mod alias), want coarse agreement", earlyErr*1e9)
	}
	if e := math.Abs(full.ToF - off - 10e-9); e > 0.5e-9 {
		t.Errorf("full fix error = %v ns, want < 0.5 ns", e*1e9)
	}
}

// TestSweepEmptyAndFiltered covers the no-measurement edge cases.
func TestSweepEmptyAndFiltered(t *testing.T) {
	est := NewEstimator(Config{Mode: Bands5GHzOnly})
	acc := est.NewSweep()
	if _, err := acc.Estimate(); !errors.Is(err, ErrNoBands) {
		t.Errorf("empty sweep error = %v, want ErrNoBands", err)
	}
	// A 2.4 GHz band is mode-filtered: accepted silently, not counted.
	b24 := wifi.Bands24GHz()[0]
	if err := acc.AddBand(b24, make([]csi.Pair, 0)); err != nil {
		t.Errorf("empty pairs: %v", err)
	}
	rng := rand.New(rand.NewSource(13))
	link := testLink(rng, 5, nil, false)
	pairs := []csi.Pair{link.MeasurePair(rng, b24, 0)}
	if err := acc.AddBand(b24, pairs); err != nil {
		t.Errorf("mode-filtered band: %v", err)
	}
	if acc.Bands() != 0 {
		t.Errorf("bands = %d, want 0 after filtered adds", acc.Bands())
	}
	if _, err := acc.Estimate(); !errors.Is(err, ErrNoBands) {
		t.Errorf("filtered sweep error = %v, want ErrNoBands", err)
	}
}

// TestSweepReset confirms a Sweep can be reused across band cycles and
// carries nothing from one cycle into the next: each reused cycle's
// Estimate equals a fresh Estimator.Estimate of the same sweep in ToF,
// Work, Iterations, Converged and every profile bit.
func TestSweepReset(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	link := testLink(rng, 9, nil, false)
	bands := wifi.Bands5GHz()
	est := NewEstimator(Config{Mode: Bands5GHzOnly, MaxIter: 500})

	acc := est.NewSweep()
	for cycle := 0; cycle < 3; cycle++ {
		sweep := link.Sweep(rng, bands, 2)
		for i, b := range bands {
			if err := acc.AddBand(b, sweep[i]); err != nil {
				t.Fatal(err)
			}
		}
		if acc.Bands() != len(bands) {
			t.Fatalf("cycle %d folded %d bands, want %d", cycle, acc.Bands(), len(bands))
		}
		got, err := acc.Estimate()
		if err != nil {
			t.Fatalf("cycle %d estimate: %v", cycle, err)
		}
		want, err := est.Estimate(bands, sweep)
		if err != nil {
			t.Fatal(err)
		}
		if got.ToF != want.ToF || got.Work != want.Work || got.Iterations != want.Iterations || got.Converged != want.Converged {
			t.Errorf("cycle %d: reused sweep ToF %x work %d iterations %d converged %v, fresh %x %d %d %v",
				cycle, got.ToF, got.Work, got.Iterations, got.Converged, want.ToF, want.Work, want.Iterations, want.Converged)
		}
		if len(got.Profile.Magnitude) != len(want.Profile.Magnitude) {
			t.Fatalf("cycle %d: profile length %d, fresh %d", cycle, len(got.Profile.Magnitude), len(want.Profile.Magnitude))
		}
		for i, m := range want.Profile.Magnitude {
			if got.Profile.Magnitude[i] != m || got.Profile.Taus[i] != want.Profile.Taus[i] {
				t.Fatalf("cycle %d: profile cell %d differs from the fresh estimate's", cycle, i)
			}
		}
		acc.Reset()
		if acc.Bands() != 0 {
			t.Fatal("Reset did not clear measurements")
		}
	}
}

// TestAddBandDropsNonFiniteBand pins the guard against silently
// corrupted inversions: one NaN, +Inf, or overflowing subcarrier in one
// CSI pair must cost exactly its band — the estimate equals the same
// sweep with that band removed, in ToF and Work — and the drop is
// counted under tof.bands_dropped. Each case corrupts a band its mode
// folds. On a quirked 2.4 GHz band (Bands24Only) the 8th-power fold
// overflows 1e300 to a non-finite value; on a 5 GHz band 1e300 folds to
// a finite (often exactly zero) pair value that the guard does not see,
// so that band is checked with NaN and +Inf only.
func TestAddBandDropsNonFiniteBand(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	office := sim.NewOffice(rng, sim.OfficeConfig{})
	link := office.NewLink(rng, office.RandomPlacement(rng, 10, false), sim.LinkConfig{Quirk: true})
	bands := wifi.USBands()
	sweep := link.Sweep(rng, bands, 3)

	obs.SetEnabled(true)
	defer obs.SetEnabled(false)
	for _, tc := range []struct {
		mode   BandMode
		band   int
		values []float64
	}{
		{Bands24Only, 1, []float64{math.NaN(), math.Inf(1), 1e300}}, // channel 6, quirked
		{BandsFused, 10, []float64{math.NaN(), math.Inf(1)}},        // channel 64
	} {
		est := NewEstimator(Config{Mode: tc.mode, Quirk24: true, MaxIter: 1200})
		bad := tc.band
		keptBands := append(append([]wifi.Band(nil), bands[:bad]...), bands[bad+1:]...)
		kept := append(append([][]csi.Pair(nil), sweep[:bad]...), sweep[bad+1:]...)
		want, err := est.Estimate(keptBands, kept)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range tc.values {
			corrupt := append([][]csi.Pair(nil), sweep...)
			corrupt[bad] = append([]csi.Pair(nil), sweep[bad]...)
			fwd := &corrupt[bad][1].Forward
			fwd.Values = append(fwd.Values[:0:0], fwd.Values...)
			fwd.Values[7] = complex(v, 0)

			dropped := obsBandsDropped.Value()
			got, err := est.Estimate(bands, corrupt)
			if err != nil {
				t.Fatalf("mode %d, band %d, value %g: %v", tc.mode, bad, v, err)
			}
			if got.ToF != want.ToF || got.Work != want.Work {
				t.Errorf("mode %d, band %d, value %g: fix %.4f ns (work %d), want the band-removed %.4f ns (work %d)",
					tc.mode, bad, v, got.ToF*1e9, got.Work, want.ToF*1e9, want.Work)
			}
			if n := obsBandsDropped.Value() - dropped; n != 1 {
				t.Errorf("mode %d, band %d, value %g: tof.bands_dropped moved by %d, want 1", tc.mode, bad, v, n)
			}
		}
	}
}

// TestAddBandSteadyStateAllocsNothing pins the allocation-free fold
// path: once a Sweep has folded one full sweep, folding the next one
// allocates nothing, in both fold powers. The 35-band sweep is folded by
// BandsFused (zero-subcarrier interpolation of every pair of the 24 5 GHz
// bands, the 11 2.4 GHz bands passed over) and by quirked Bands24Only
// (the 11 2.4 GHz bands raised to the 4th power).
func TestAddBandSteadyStateAllocsNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	office := sim.NewOffice(rng, sim.OfficeConfig{})
	link := office.NewLink(rng, office.RandomPlacement(rng, 10, false), sim.LinkConfig{Quirk: true})
	bands := wifi.USBands()
	sweep := link.Sweep(rng, bands, 3)
	for _, tc := range []struct {
		mode BandMode
		want int
	}{{BandsFused, len(wifi.Bands5GHz())}, {Bands24Only, len(wifi.Bands24GHz())}} {
		s := NewEstimator(Config{Mode: tc.mode, Quirk24: true}).NewSweep()
		fold := func() {
			s.Reset()
			for i, b := range bands {
				if err := s.AddBand(b, sweep[i]); err != nil {
					t.Fatal(err)
				}
			}
		}
		fold()
		if n := testing.AllocsPerRun(10, fold); n != 0 {
			t.Errorf("mode %d: steady-state AddBand sweep allocated %.0f times, want 0", tc.mode, n)
		}
		if s.Bands() != tc.want {
			t.Errorf("mode %d: folded %d bands, want %d", tc.mode, s.Bands(), tc.want)
		}
	}
}

// TestEstimateSteadyStateAllocs pins the allocations of a BandsFused
// Estimate: the quirked 35-band USBands sweep at 2 pairs per band, its
// 5 GHz h̃² bands built, solved and placed on the sweep's scratch. The
// bound is the count the estimator reaches; an Estimate that allocates
// more fails.
func TestEstimateSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-instrumented sync.Pool drops the solver's workspaces")
	}
	rng := rand.New(rand.NewSource(3))
	office := sim.NewOffice(rng, sim.OfficeConfig{})
	link := office.NewLink(rng, office.RandomPlacement(rng, 10, false), sim.LinkConfig{Quirk: true})
	bands := wifi.USBands()
	sweep := link.Sweep(rng, bands, 2)
	s := NewEstimator(Config{Mode: BandsFused, Quirk24: true}).NewSweep()
	for i, b := range bands {
		if err := s.AddBand(b, sweep[i]); err != nil {
			t.Fatal(err)
		}
	}
	estimate := func() {
		if _, err := s.Estimate(); err != nil {
			t.Fatal(err)
		}
	}
	estimate()
	const maxAllocs = 13
	if n := testing.AllocsPerRun(10, estimate); n > maxAllocs {
		t.Errorf("Estimate allocated %.0f times, want at most %d", n, maxAllocs)
	}
}
