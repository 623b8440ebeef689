// Package crt implements the §4 Chinese-remainder-style time-of-flight
// solver: each Wi-Fi band's channel phase pins the time of flight modulo
// 1/fᵢ, and the solver finds the τ that best satisfies every band's
// congruence simultaneously — the "most aligned colored lines" search of
// Fig. 3 in the paper.
//
// Real measurements are noisy, so rather than exact modular arithmetic the
// solver scores candidate τ values by phase agreement and returns the
// best-scoring candidate. This is the noise-tolerant CRT resolution the
// paper cites [13]; the full multipath-aware generalization is the sparse
// inverse NDFT in package ndft.
package crt

import (
	"errors"
	"math"
)

// Observation is one band's phase measurement: the channel phase observed
// at carrier frequency Freq.
type Observation struct {
	Freq  float64 // carrier frequency in Hz
	Phase float64 // measured channel phase ∠h in radians
}

// The alignment search: a coarse scan at coarseStep seconds, then
// refineIters golden-section steps around the best coarse candidate.
const (
	coarseStep  float64 = 10e-12
	refineIters         = 40
)

// ErrNoObservations reports an empty observation set.
var ErrNoObservations = errors.New("crt: no observations")

// Score returns the phase-alignment score of candidate τ: the mean of
// cos(∠hᵢ + 2πfᵢτ) over all observations. A perfect noiseless candidate
// scores 1; random candidates score near 0. This is the continuous
// analogue of counting aligned lines in Fig. 3.
func Score(obs []Observation, tau float64) float64 {
	if len(obs) == 0 {
		return 0
	}
	var s float64
	for _, o := range obs {
		s += math.Cos(o.Phase + 2*math.Pi*o.Freq*tau)
	}
	return s / float64(len(obs))
}

// Solve scans τ ∈ [0, maxTau] (seconds) for the best phase-aligned time
// of flight and refines it. It returns the estimated τ and its alignment
// score.
func Solve(obs []Observation, maxTau float64) (tau, score float64, err error) {
	if len(obs) == 0 {
		return 0, 0, ErrNoObservations
	}

	bestTau, bestScore := 0.0, math.Inf(-1)
	for t := 0.0; t <= maxTau; t += coarseStep {
		if s := Score(obs, t); s > bestScore {
			bestTau, bestScore = t, s
		}
	}

	// Golden-section refinement in a ±1 coarse-step bracket.
	lo := math.Max(0, bestTau-coarseStep)
	hi := math.Min(maxTau, bestTau+coarseStep)
	const invPhi = 0.6180339887498949
	a, b := lo, hi
	c1 := b - (b-a)*invPhi
	c2 := a + (b-a)*invPhi
	f1, f2 := Score(obs, c1), Score(obs, c2)
	for i := 0; i < refineIters; i++ {
		if f1 > f2 {
			b, c2, f2 = c2, c1, f1
			c1 = b - (b-a)*invPhi
			f1 = Score(obs, c1)
		} else {
			a, c1, f1 = c1, c2, f2
			c2 = a + (b-a)*invPhi
			f2 = Score(obs, c2)
		}
	}
	mid := (a + b) / 2
	if s := Score(obs, mid); s > bestScore {
		bestTau, bestScore = mid, s
	}
	return bestTau, bestScore, nil
}

// Candidates returns, for one observation, every τ in [0, maxTau] that
// satisfies its congruence τ ≡ −∠h/(2πf) (mod 1/f) — the colored vertical
// lines of Fig. 3. Useful for visualization and for testing the solver.
func Candidates(o Observation, maxTau float64) []float64 {
	period := 1 / o.Freq
	base := math.Mod(-o.Phase/(2*math.Pi*o.Freq), period)
	if base < 0 {
		base += period
	}
	var out []float64
	for t := base; t <= maxTau; t += period {
		out = append(out, t)
	}
	return out
}
