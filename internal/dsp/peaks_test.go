package dsp

import (
	"math"
	"math/rand"
	"testing"
)

func gaussianBump(xs []float64, center, width, height float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		d := (x - center) / width
		out[i] = height * math.Exp(-d*d)
	}
	return out
}

func addInto(dst, src []float64) {
	for i := range dst {
		dst[i] += src[i]
	}
}

func grid(n int, step float64) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i) * step
	}
	return xs
}

func TestFindPeaksSingleBump(t *testing.T) {
	xs := grid(200, 0.1)
	mag := gaussianBump(xs, 7.23, 0.5, 2.0)
	peaks := FindPeaks(xs, mag, 0.1)
	if len(peaks) != 1 {
		t.Fatalf("got %d peaks, want 1", len(peaks))
	}
	if math.Abs(peaks[0].X-7.23) > 0.05 {
		t.Errorf("peak at %v, want ~7.23", peaks[0].X)
	}
	if math.Abs(peaks[0].Power-2.0) > 0.05 {
		t.Errorf("peak power %v, want ~2.0", peaks[0].Power)
	}
}

func TestFindPeaksThreePathProfile(t *testing.T) {
	// The Fig. 4 scenario: paths at 5.2, 10 and 16 ns with descending power.
	xs := grid(500, 0.05)
	mag := gaussianBump(xs, 5.2, 0.3, 1.0)
	addInto(mag, gaussianBump(xs, 10, 0.3, 0.7))
	addInto(mag, gaussianBump(xs, 16, 0.3, 0.5))
	peaks := FindPeaks(xs, mag, 0.2)
	if len(peaks) != 3 {
		t.Fatalf("got %d peaks, want 3: %+v", len(peaks), peaks)
	}
	wants := []float64{5.2, 10, 16}
	for i, w := range wants {
		if math.Abs(peaks[i].X-w) > 0.1 {
			t.Errorf("peak %d at %v, want ~%v", i, peaks[i].X, w)
		}
	}
	// Ordered by delay, not power.
	if !(peaks[0].Power > peaks[1].Power && peaks[1].Power > peaks[2].Power) {
		t.Errorf("powers not descending: %+v", peaks)
	}
}

func TestFindPeaksThresholdSuppressesWeak(t *testing.T) {
	xs := grid(400, 0.05)
	mag := gaussianBump(xs, 5, 0.3, 1.0)
	addInto(mag, gaussianBump(xs, 12, 0.3, 0.05)) // 5% of max
	if got := len(FindPeaks(xs, mag, 0.2)); got != 1 {
		t.Errorf("peaks at 0.2 = %d, want 1", got)
	}
	if got := len(FindPeaks(xs, mag, 0.01)); got != 2 {
		t.Errorf("low-threshold count = %d, want 2", got)
	}
}

func TestFirstPeakPicksEarliest(t *testing.T) {
	// Direct path weaker than a reflection — first peak must still win.
	xs := grid(400, 0.05)
	mag := gaussianBump(xs, 4, 0.3, 0.6)
	addInto(mag, gaussianBump(xs, 9, 0.3, 1.0))
	peaks := FindPeaks(xs, mag, 0.3)
	if len(peaks) == 0 {
		t.Fatal("no peak found")
	}
	if p := peaks[0]; math.Abs(p.X-4) > 0.1 {
		t.Errorf("first peak at %v, want ~4", p.X)
	}
}

func TestStrongestPeak(t *testing.T) {
	xs := grid(400, 0.05)
	mag := gaussianBump(xs, 4, 0.3, 0.6)
	addInto(mag, gaussianBump(xs, 9, 0.3, 1.0))
	p, ok := StrongestPeak(xs, mag)
	if !ok || math.Abs(p.X-9) > 0.1 {
		t.Errorf("strongest peak = %+v, ok=%v, want ~9", p, ok)
	}
}

func TestFindPeaksEmptyAndZero(t *testing.T) {
	if got := FindPeaks(nil, nil, 0.5); got != nil {
		t.Errorf("nil input: %v", got)
	}
	xs := grid(10, 1)
	zero := make([]float64, 10)
	if got := FindPeaks(xs, zero, 0.5); got != nil {
		t.Errorf("zero profile: %v", got)
	}
	if _, ok := StrongestPeak(xs, zero); ok {
		t.Error("StrongestPeak found peak in zero profile")
	}
}

func TestFindPeaksMismatchedLengths(t *testing.T) {
	if got := FindPeaks([]float64{1, 2}, []float64{1}, 0.5); got != nil {
		t.Errorf("mismatched lengths: %v", got)
	}
}

func TestParabolicRefinementBeatsGrid(t *testing.T) {
	// With a peak deliberately placed off-grid, refinement should land
	// closer to the true center than the nearest grid point.
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		step := 0.1
		xs := grid(300, step)
		center := 5 + rng.Float64()*10
		mag := gaussianBump(xs, center, 0.8, 1.0)
		peaks := FindPeaks(xs, mag, 0.5)
		if len(peaks) == 0 {
			t.Fatal("no peak")
		}
		p := peaks[0]
		gridErr := math.Abs(float64(int(center/step+0.5))*step - center)
		refErr := math.Abs(p.X - center)
		if refErr > gridErr+1e-9 {
			t.Errorf("trial %d: refined err %v worse than grid err %v", trial, refErr, gridErr)
		}
	}
}

func TestPeakAtBoundary(t *testing.T) {
	// Monotone increasing profile peaks at the last sample.
	xs := grid(50, 1)
	mag := make([]float64, 50)
	for i := range mag {
		mag[i] = float64(i)
	}
	peaks := FindPeaks(xs, mag, 0.5)
	if len(peaks) != 1 || peaks[0].Index != 49 {
		t.Errorf("boundary peak: %+v", peaks)
	}
}
