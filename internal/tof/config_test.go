package tof

import (
	"math"
	"math/rand"
	"testing"

	"chronos/internal/rf"
	"chronos/internal/wifi"
)

func TestConfigDefaults(t *testing.T) {
	cfg := Config{}.withDefaults()
	if cfg.MaxIter != 1500 {
		t.Errorf("solver defaults: %+v", cfg)
	}
}

func TestEstimateAlphaFactorRuns(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	link := testLink(rng, 8, []rf.Path{{Delay: 13e-9, Gain: 0.5}}, false)
	bands := wifi.Bands5GHz()
	for _, f := range []float64{0.3, 3} {
		est := calibrated(t, Config{Mode: Bands5GHzOnly, MaxIter: 800, AlphaFactor: f}, link, rng, bands)
		sweep := link.Sweep(rng, bands, 3, 2.4e-3)
		got, err := est.Estimate(bands, sweep)
		if err != nil {
			t.Fatalf("alpha factor %v: %v", f, err)
		}
		if e := math.Abs(got.ToF - 8e-9); e > 2e-9 {
			t.Errorf("alpha factor %v: error %v", f, e)
		}
	}
}

func TestEstimateAliasNearZeroCandidate(t *testing.T) {
	// A target ~26 ns out places the k=−1 alias hypothesis within 2 ns of
	// zero, exercising the clamped refit window (the canonical [0, 24 ns]
	// plan with the shift clamped to lo=0). The disambiguation must keep
	// the true delay, not shift onto the near-zero ghost.
	rng := rand.New(rand.NewSource(9))
	link := testLink(rng, 26, nil, false)
	bands := wifi.Bands5GHz()
	est := calibrated(t, Config{Mode: Bands5GHzOnly, MaxIter: 1200}, link, rng, bands)
	sweep := link.Sweep(rng, bands, 3, 2.4e-3)
	got, err := est.Estimate(bands, sweep)
	if err != nil {
		t.Fatal(err)
	}
	if e := math.Abs(got.ToF - 26e-9); e > 1e-9 {
		t.Errorf("near-clamp alias error %v ns", e*1e9)
	}
}

func TestSpanOfSingleFrequency(t *testing.T) {
	if got := spanOf([]float64{5e9}); got != wifi.BandwidthHT20 {
		t.Errorf("single-band span = %v, want channel bandwidth", got)
	}
	if got := spanOf([]float64{5e9, 5.1e9}); got != 0.1e9 {
		t.Errorf("span = %v", got)
	}
}

func TestSpanOfFullBandPlan(t *testing.T) {
	// 5.825 GHz − 2.412 GHz ≈ 3.413 GHz across the full band plan.
	if got := spanOf(wifi.Centers(wifi.USBands())); math.Abs(got-3.413e9) > 1e6 {
		t.Errorf("full-plan span = %v", got)
	}
}
