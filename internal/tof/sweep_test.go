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
	sweep := link.Sweep(rng, bands, 3, 2.4e-3)

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
	if inc.ToF != batch.ToF || inc.Distance != batch.Distance ||
		inc.Peaks != batch.Peaks || inc.Fused != batch.Fused {
		t.Errorf("incremental fix diverged from batch: %+v vs %+v", inc, batch)
	}
}

// TestSweepEarlyFix checks the streaming property the track subsystem
// relies on: a usable (if degraded) fix is available from a partial band
// set, and the full-sweep fix refines it.
func TestSweepEarlyFix(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	link := testLink(rng, 10, nil, false)
	bands := wifi.Bands5GHz()
	est := calibrated(t, Config{Mode: Bands5GHzOnly, MaxIter: 800}, link, rng, bands)

	sweep := link.Sweep(rng, bands, 3, 2.4e-3)
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
			earlyToF = early.ToF
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
	if e := math.Abs(full.ToF - 10e-9); e > 0.5e-9 {
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

// TestSweepReset confirms a Sweep can be reused across band cycles.
func TestSweepReset(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	link := testLink(rng, 9, nil, false)
	bands := wifi.Bands5GHz()
	est := NewEstimator(Config{Mode: Bands5GHzOnly, MaxIter: 500})

	acc := est.NewSweep()
	for cycle := 0; cycle < 2; cycle++ {
		sweep := link.Sweep(rng, bands, 2, 2.4e-3)
		for i, b := range bands {
			if err := acc.AddBand(b, sweep[i]); err != nil {
				t.Fatal(err)
			}
		}
		if acc.Bands() != len(bands) {
			t.Fatalf("cycle %d folded %d bands, want %d", cycle, acc.Bands(), len(bands))
		}
		if _, err := acc.Estimate(); err != nil {
			t.Fatalf("cycle %d estimate: %v", cycle, err)
		}
		acc.Reset()
		if acc.Bands() != 0 {
			t.Fatal("Reset did not clear measurements")
		}
	}
}

// TestAddBandDropsNonFiniteBand pins the guard against silently
// corrupted band groups: one NaN, +Inf, or overflowing subcarrier in one
// CSI pair must cost exactly its band — the estimate equals the same
// sweep with that band removed, in Distance and Work — and the drop is
// counted under tof.bands_dropped. On a quirked 2.4 GHz band the
// 8th-power fold overflows 1e300 to a non-finite value; on a 5 GHz band
// 1e300 folds to a finite (often exactly zero) pair value that the
// guard does not see, so that band is checked with NaN and +Inf only.
func TestAddBandDropsNonFiniteBand(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	office := sim.NewOffice(rng, sim.OfficeConfig{})
	link := office.NewLink(rng, office.RandomPlacement(rng, 10, false), sim.LinkConfig{Quirk: true})
	bands := wifi.USBands()
	sweep := link.Sweep(rng, bands, 3, 2.4e-3)
	est := NewEstimator(Config{Mode: BandsFused, Quirk24: true, MaxIter: 1200})

	obs.SetEnabled(true)
	defer obs.SetEnabled(false)
	for _, tc := range []struct {
		band   int
		values []float64
	}{
		{1, []float64{math.NaN(), math.Inf(1), 1e300}}, // channel 6, quirked
		{10, []float64{math.NaN(), math.Inf(1)}},       // channel 64
	} {
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
				t.Fatalf("band %d, value %g: %v", bad, v, err)
			}
			if got.Distance != want.Distance || got.Work != want.Work {
				t.Errorf("band %d, value %g: fix %.4f m (work %d), want the band-removed %.4f m (work %d)",
					bad, v, got.Distance, got.Work, want.Distance, want.Work)
			}
			if n := obsBandsDropped.Value() - dropped; n != 1 {
				t.Errorf("band %d, value %g: tof.bands_dropped moved by %d, want 1", bad, v, n)
			}
		}
	}
}
