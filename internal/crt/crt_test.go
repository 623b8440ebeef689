package crt

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"chronos/internal/wifi"
)

// makeObs builds noiseless observations for a single path of delay tau.
func makeObs(freqs []float64, tau float64, rng *rand.Rand, phaseNoise float64) []Observation {
	obs := make([]Observation, len(freqs))
	for i, f := range freqs {
		ph := -2 * math.Pi * f * tau
		if phaseNoise > 0 {
			ph += rng.NormFloat64() * phaseNoise
		}
		// Wrap as a real receiver would.
		ph = math.Mod(ph, 2*math.Pi)
		obs[i] = Observation{Freq: f, Phase: ph}
	}
	return obs
}

// fig3Freqs are the five bands of the paper's Fig. 3 example.
func fig3Freqs() []float64 {
	return []float64{2.412e9, 2.462e9, 5.18e9, 5.3e9, 5.825e9}
}

func TestSolveFig3Scenario(t *testing.T) {
	// A source at 0.6 m → τ = 2 ns, the exact example of Fig. 3.
	tau := 2e-9
	obs := makeObs(fig3Freqs(), tau, nil, 0)
	got, score, err := Solve(obs, 10e-9)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-tau) > 5e-12 {
		t.Errorf("tau = %v, want %v", got, tau)
	}
	if score < 0.999 {
		t.Errorf("score = %v, want ≈1", score)
	}
}

func TestSolveAllUSBands(t *testing.T) {
	freqs := wifi.Centers(wifi.USBands())
	for _, tau := range []float64{0.5e-9, 2e-9, 17e-9, 49.9e-9} {
		obs := makeObs(freqs, tau, nil, 0)
		got, _, err := Solve(obs, 60e-9)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-tau) > 5e-12 {
			t.Errorf("tau = %v, want %v", got, tau)
		}
	}
}

func TestSolveWithPhaseNoise(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	freqs := wifi.Centers(wifi.USBands())
	tau := 10e-9
	var worst float64
	for trial := 0; trial < 20; trial++ {
		obs := makeObs(freqs, tau, rng, 0.2) // ~11° of phase noise
		got, _, err := Solve(obs, 60e-9)
		if err != nil {
			t.Fatal(err)
		}
		if e := math.Abs(got - tau); e > worst {
			worst = e
		}
	}
	// Sub-nanosecond accuracy despite noise — the paper's core claim for
	// the single-path case.
	if worst > 0.5e-9 {
		t.Errorf("worst error = %v, want < 0.5 ns", worst)
	}
}

func TestSolveEmpty(t *testing.T) {
	if _, _, err := Solve(nil, 10e-9); !errors.Is(err, ErrNoObservations) {
		t.Errorf("err = %v", err)
	}
}

func TestScorePerfectAndRandom(t *testing.T) {
	freqs := fig3Freqs()
	tau := 3e-9
	obs := makeObs(freqs, tau, nil, 0)
	if s := Score(obs, tau); s < 0.9999 {
		t.Errorf("true-tau score = %v", s)
	}
	// A far-off candidate scores clearly lower.
	if s := Score(obs, tau+1.77e-9); s > 0.9 {
		t.Errorf("wrong-tau score = %v, too high", s)
	}
	if got := Score(nil, 0); got != 0 {
		t.Errorf("empty score = %v", got)
	}
}

func TestCandidatesSpacingAndMembership(t *testing.T) {
	tau := 2e-9
	f := 2.412e9
	o := Observation{Freq: f, Phase: math.Mod(-2*math.Pi*f*tau, 2*math.Pi)}
	cands := Candidates(o, 5e-9)
	if len(cands) == 0 {
		t.Fatal("no candidates")
	}
	period := 1 / f
	for i, c := range cands {
		if c < 0 || c > 5e-9+1e-15 {
			t.Errorf("candidate %v out of range", c)
		}
		if i > 0 && math.Abs((c-cands[i-1])-period) > 1e-15 {
			t.Errorf("spacing %v != period %v", c-cands[i-1], period)
		}
	}
	// 2 ns must be (approximately) among the candidates.
	found := false
	for _, c := range cands {
		if math.Abs(c-tau) < 1e-13 {
			found = true
		}
	}
	if !found {
		t.Errorf("true tau not among candidates %v", cands)
	}
}

func TestCandidatesCountMatchesPeriod(t *testing.T) {
	o := Observation{Freq: 5e9, Phase: 0}
	cands := Candidates(o, 1e-9)
	// Period 0.2 ns → candidates at 0, 0.2, ..., 1.0 ns.
	if len(cands) != 6 {
		t.Errorf("got %d candidates: %v", len(cands), cands)
	}
}

func TestUnequalSpacingBoostsAmbiguityRange(t *testing.T) {
	// §4: unequally separated bands share fewer common factors, pushing
	// the first ambiguous alias farther out. With two bands 100 MHz apart
	// the alias appears at 10 ns; adding an offset band must break that
	// alias.
	tau := 1e-9
	twoBands := makeObs([]float64{5.0e9, 5.1e9}, tau, nil, 0)
	// Score at the first joint alias of the two-band system (10 ns).
	alias := tau + 10e-9
	if s := Score(twoBands, alias); s < 0.999 {
		t.Fatalf("expected alias at %v, score %v", alias, s)
	}
	three := makeObs([]float64{5.0e9, 5.1e9, 5.745e9}, tau, nil, 0)
	if s := Score(three, alias); s > 0.99 {
		t.Errorf("third band failed to break alias: score %v", s)
	}
}
