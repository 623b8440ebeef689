package ndft

import (
	"testing"

	"chronos/internal/dsp"
	"chronos/internal/wifi"
)

func TestAlphaScaleSweepsSparsity(t *testing.T) {
	freqs := wifi.Centers(wifi.USBands())
	taus := TauGrid(30e-9, 0.2e-9)
	pl, _ := NewPlan(freqs, taus)
	h := synthChannel(freqs, []float64{5, 9, 13}, []float64{1, 0.7, 0.5})

	nonzeros := func(scale float64) int {
		res, err := pl.Solve(SolveRequest{H: h, InvertOptions: InvertOptions{AlphaScale: scale, MaxIter: 3000}})
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for _, v := range res.Profile {
			if v != 0 {
				n++
			}
		}
		return n
	}
	if small, large := nonzeros(0.2), nonzeros(5); large >= small {
		t.Errorf("AlphaScale 5 gave %d nonzeros vs %d at 0.2 — sparsity knob inverted", large, small)
	}
}

func TestInvertEpsilonStopsEarly(t *testing.T) {
	freqs := wifi.Centers(wifi.Bands5GHz())
	taus := TauGrid(20e-9, 0.5e-9)
	pl, _ := NewPlan(freqs, taus)
	h := synthChannel(freqs, []float64{7}, []float64{1})
	loose, err := pl.Solve(SolveRequest{H: h, InvertOptions: InvertOptions{Epsilon: 1e-1 * dsp.Norm2(h), MaxIter: 5000}})
	if err != nil {
		t.Fatal(err)
	}
	tight, err := pl.Solve(SolveRequest{H: h, InvertOptions: InvertOptions{Epsilon: 1e-9 * dsp.Norm2(h), MaxIter: 5000}})
	if err != nil {
		t.Fatal(err)
	}
	if !loose.Converged {
		t.Error("loose epsilon did not converge")
	}
	if loose.Iterations >= tight.Iterations {
		t.Errorf("loose epsilon took %d iterations vs tight %d", loose.Iterations, tight.Iterations)
	}
}

// TestContinuationStallExitsEarly is the regression for the
// α-continuation early-exit bug: the Epsilon exit is gated on the
// continuation schedule having reached the target α, and the schedule
// used to decay at a fixed 0.97/iteration regardless of progress — a
// solve whose iterate had already stalled idled through the remaining
// ramp (53+ iterations at the default α ratio) before it was allowed to
// stop. With the stall-accelerated decay the same solve exits in a
// handful of iterations.
func TestContinuationStallExitsEarly(t *testing.T) {
	freqs := wifi.Centers(wifi.Bands5GHz())
	pl, _ := NewPlan(freqs, TauGrid(20e-9, 0.5e-9))
	h := synthChannel(freqs, []float64{7}, []float64{1})
	res, err := pl.Solve(SolveRequest{H: h, InvertOptions: InvertOptions{Epsilon: 1e-2 * dsp.Norm2(h), MaxIter: 5000}})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("loose-epsilon solve did not converge")
	}
	// The fixed 0.97 ramp alone takes ~53 iterations here; the stalled
	// iterate must fall through it far faster.
	if res.Iterations > 30 {
		t.Errorf("stalled continuation took %d iterations, want ≤ 30", res.Iterations)
	}
}

// TestContinuationScheduleFitsBudget pins the schedule-termination
// guarantee: with a forced tiny α the fixed decay needs more iterations
// than the whole budget (ln(250)/ln(1/0.97) ≈ 182 > 200), so the old
// solver could never reach the target α, never arm the Epsilon exit,
// and always burned the cap. The steepened schedule must hand the
// target α at least half the budget and converge.
func TestContinuationScheduleFitsBudget(t *testing.T) {
	freqs := wifi.Centers(wifi.Bands5GHz())
	pl, _ := NewPlan(freqs, TauGrid(20e-9, 0.5e-9))
	h := synthChannel(freqs, []float64{7}, []float64{1})
	res, err := pl.Solve(SolveRequest{H: h, InvertOptions: InvertOptions{AlphaScale: 0.01, Epsilon: 1e-2 * dsp.Norm2(h), MaxIter: 200}})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Errorf("tiny-α solve capped at %d iterations without converging", res.Iterations)
	}
	if res.Iterations >= 200 {
		t.Errorf("tiny-α solve used the whole budget (%d)", res.Iterations)
	}
}
