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

// Config tunes the alignment search.
type Config struct {
	// MaxTau bounds the search range in seconds (default 200 ns, the
	// paper's 2.4 GHz unambiguous range, ≈60 m).
	MaxTau float64
	// CoarseStep is the scan resolution in seconds (default 10 ps).
	CoarseStep float64
	// RefineIters controls the golden-section refinement around the best
	// coarse candidate (default 40).
	RefineIters int
}

func (c Config) withDefaults() Config {
	if c.MaxTau == 0 {
		c.MaxTau = 200e-9
	}
	if c.CoarseStep == 0 {
		c.CoarseStep = 10e-12
	}
	if c.RefineIters == 0 {
		c.RefineIters = 40
	}
	return c
}

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

// Solve scans τ ∈ [0, MaxTau] for the best phase-aligned time of flight
// and refines it. It returns the estimated τ and its alignment score.
func Solve(obs []Observation, cfg Config) (tau, score float64, err error) {
	if len(obs) == 0 {
		return 0, 0, ErrNoObservations
	}
	cfg = cfg.withDefaults()

	bestTau, bestScore := 0.0, math.Inf(-1)
	for t := 0.0; t <= cfg.MaxTau; t += cfg.CoarseStep {
		if s := Score(obs, t); s > bestScore {
			bestTau, bestScore = t, s
		}
	}

	// Golden-section refinement in a ±1 coarse-step bracket.
	lo := math.Max(0, bestTau-cfg.CoarseStep)
	hi := math.Min(cfg.MaxTau, bestTau+cfg.CoarseStep)
	const invPhi = 0.6180339887498949
	a, b := lo, hi
	c1 := b - (b-a)*invPhi
	c2 := a + (b-a)*invPhi
	f1, f2 := Score(obs, c1), Score(obs, c2)
	for i := 0; i < cfg.RefineIters; i++ {
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
