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
// and always burned the cap. The schedule must hand the target α at
// least half the budget and converge.
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

// TestContinuationEndsAtHalfBudget pins the ramp's cap on its own. With
// Epsilon < 0 the stall decay never fires, so the 0.97 decay alone would
// still be ramping toward this tiny α at half the budget; the threshold
// must sit on α from that iteration on.
func TestContinuationEndsAtHalfBudget(t *testing.T) {
	freqs := wifi.Centers(wifi.Bands5GHz())
	pl, _ := NewPlan(freqs, TauGrid(20e-9, 0.5e-9))
	const budget = 200
	req := SolveRequest{
		H: synthChannel(freqs, []float64{7}, []float64{1}), Dst: &Result{},
		InvertOptions: InvertOptions{AlphaScale: 0.01, Epsilon: -1, MaxIter: budget},
	}
	w := pl.getWorkspace()
	defer pl.ws.Put(w)
	var task solveTask
	task.init(pl, &req, w)
	task.beginIterate(pl.allIdx, task.start(), budget, false)
	for task.iter < budget {
		if stop, _ := task.endStep(task.gradStep()); stop {
			t.Fatalf("the solve stopped at iteration %d with Epsilon < 0", task.iter)
		}
		switch ramping := task.curAlpha != task.alpha; {
		case task.iter == budget/2-1 && !ramping:
			t.Fatalf("the decay reached α by iteration %d; the case no longer needs the cap", task.iter)
		case task.iter >= budget/2 && ramping:
			t.Fatalf("iteration %d: threshold %g, want α = %g from iteration %d on", task.iter, task.curAlpha, task.alpha, budget/2)
		}
	}
}
