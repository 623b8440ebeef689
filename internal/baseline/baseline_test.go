package baseline

import (
	"math"
	"math/rand"
	"testing"

	"chronos/internal/stats"
	"chronos/internal/wifi"
)

func TestDelayModelStatistics(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m := DefaultDelayModel()
	var vals []float64
	for i := 0; i < 10000; i++ {
		vals = append(vals, m.Draw(rng))
	}
	med := stats.Median(vals)
	if med < 170e-9 || med > 190e-9 {
		t.Errorf("median = %v, want ≈177 ns", med)
	}
	for _, v := range vals {
		if v <= 0 {
			t.Fatal("non-positive delay")
		}
	}
}

func TestToAErrorDominatesChronos(t *testing.T) {
	// Uncompensated ToA error is tens of ns — orders beyond Chronos's
	// sub-ns. This is the Fig. 7c punchline.
	rng := rand.New(rand.NewSource(3))
	m := DefaultDelayModel()
	var errs []float64
	for i := 0; i < 5000; i++ {
		errs = append(errs, math.Abs(ToAError(rng, m)))
	}
	med := stats.Median(errs)
	if med < 5e-9 {
		t.Errorf("median ToA error = %v, implausibly small", med)
	}
	if med > 100e-9 {
		t.Errorf("median ToA error = %v, implausibly large", med)
	}
}

func TestSpeedOfLightConsistency(t *testing.T) {
	// Guard against unit drift between packages.
	if math.Abs(wifi.SpeedOfLight-299792458) > 1 {
		t.Error("speed of light changed")
	}
}
