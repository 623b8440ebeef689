package track

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

// noisyRange draws a Chronos-like range fix: tight Gaussian core with
// occasional heavy-tail profile-ghost outliers.
func noisyRange(rng *rand.Rand, truth, sigma, outlierProb, outlierMag float64) float64 {
	m := truth + rng.NormFloat64()*sigma
	if rng.Float64() < outlierProb {
		if rng.Float64() < 0.5 {
			m -= outlierMag
		} else {
			m += outlierMag
		}
	}
	return m
}

// TestRangeTrackerSmoothsMovingTarget is the subsystem's acceptance
// criterion: over a moving-target scenario the Kalman-smoothed error must
// come in below the raw per-sweep fix error.
func TestRangeTrackerSmoothsMovingTarget(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	tr := NewRangeTracker()

	// Target recedes at 0.9 m/s with gentle speed modulation; fixes
	// arrive at the ≈84 ms sweep cadence with 12 cm core noise and 5%
	// ±3.75 m ghosts (the §12.1 CDF tail).
	const dt = 84 * time.Millisecond
	var rawSq, smoothSq float64
	n := 400
	for i := 0; i < n; i++ {
		at := time.Duration(i) * dt
		ts := at.Seconds()
		truth := 3 + 0.9*ts + 0.3*math.Sin(ts/2)
		meas := noisyRange(rng, truth, 0.12, 0.05, 3.75)
		smoothed, _ := tr.Observe(at, meas)
		rawSq += (meas - truth) * (meas - truth)
		smoothSq += (smoothed - truth) * (smoothed - truth)
	}
	raw := math.Sqrt(rawSq / float64(n))
	smooth := math.Sqrt(smoothSq / float64(n))
	if smooth >= raw {
		t.Fatalf("smoothed RMSE %.3f m not below raw %.3f m", smooth, raw)
	}
	// The ghosts dominate the raw RMSE; gating should remove nearly all
	// of them, leaving a large margin.
	if smooth > raw/2 {
		t.Errorf("smoothed RMSE %.3f m, want < half of raw %.3f m", smooth, raw)
	}
	if tr.Rejected == 0 {
		t.Error("gate rejected no outliers despite 5% ghost rate")
	}
}

// TestRangeTrackerTracksVelocity checks the constant-velocity state
// converges to the target's true radial speed.
func TestRangeTrackerTracksVelocity(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	tr := NewRangeTracker()
	const dt = 100 * time.Millisecond
	for i := 0; i < 200; i++ {
		at := time.Duration(i) * dt
		truth := 2 + 1.2*at.Seconds()
		tr.Observe(at, truth+rng.NormFloat64()*0.1)
	}
	if v := tr.Velocity(); math.Abs(v-1.2) > 0.25 {
		t.Errorf("velocity estimate = %.2f m/s, want ≈1.2", v)
	}
}

// TestRangeTrackerReacquires checks the maxRejects escape hatch: a target
// that genuinely jumps (reacquisition after a tracking gap) must not be
// gated out forever.
func TestRangeTrackerReacquires(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	tr := NewRangeTracker()
	const dt = 100 * time.Millisecond
	at := time.Duration(0)
	for i := 0; i < 50; i++ {
		tr.Observe(at, 4+rng.NormFloat64()*0.05)
		at += dt
	}
	// The target teleports 8 m away and stays there.
	var lastAccepted bool
	var last float64
	for i := 0; i < 10; i++ {
		last, lastAccepted = tr.Observe(at, 12+rng.NormFloat64()*0.05)
		at += dt
	}
	if !lastAccepted {
		t.Fatal("tracker never reacquired the jumped target")
	}
	if math.Abs(last-12) > 0.5 {
		t.Errorf("post-reacquisition range = %.2f m, want ≈12", last)
	}
}

// TestTrackerFirstObservationPrimes pins the initialization contract.
func TestTrackerFirstObservationPrimes(t *testing.T) {
	tr := NewRangeTracker()
	got, ok := tr.Observe(0, 7.5)
	if !ok || got != 7.5 {
		t.Errorf("first observation = (%v, %v), want (7.5, true)", got, ok)
	}
}
