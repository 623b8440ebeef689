package ndft

import (
	"math"
	"math/rand"
	"testing"

	"chronos/internal/dsp"
	"chronos/internal/wifi"
)

// yieldFixture builds a plan and a noisy two-path measurement of the
// kind a bulk tracking stream solves: enough noise that a cold solve
// runs well past the first gap-check boundary.
func yieldFixture(t testing.TB) (*Plan, dsp.Vec, InvertOptions) {
	t.Helper()
	freqs := wifi.Centers(wifi.Bands5GHz())
	pl, err := NewPlan(freqs, TauGrid(20e-9, 0.5e-9))
	if err != nil {
		t.Fatal(err)
	}
	n, _ := pl.Dims()
	rng := rand.New(rand.NewSource(23))
	h := synthChannel(freqs, []float64{7, 11.2}, []float64{1, 0.6})
	for i := range h {
		h[i] += complex(rng.NormFloat64()*0.05, rng.NormFloat64()*0.05)
	}
	wNorm := 0.05 * math.Sqrt(2*float64(n))
	return pl, h, InvertOptions{MaxIter: 4000, NoiseFloor: wNorm}
}

// TestSolveYieldIdentical pins the yield contract: a hook cannot change
// a solve. An idle hook, and a hook that runs a whole other Plan.Solve
// on the same plan, leave every result field bit-identical to a solve
// without a hook: from a cold start, from a warm seed whose KKT audit
// falls back to the cold solve, and on the iterate rule, where the hook
// rides the check cadence alone. The solve the hook ran matches the
// same request solved on its own.
func TestSolveYieldIdentical(t *testing.T) {
	pl, h, opts := yieldFixture(t)
	freqs := wifi.Centers(wifi.Bands5GHz())
	rng := rand.New(rand.NewSource(29))
	other := synthChannel(freqs, []float64{5, 9.3}, []float64{1, 0.5})
	for i := range other {
		other[i] += complex(rng.NormFloat64()*0.05, rng.NormFloat64()*0.05)
	}
	otherReq := SolveRequest{H: other, InvertOptions: opts}
	otherRef, err := pl.Solve(otherReq)
	if err != nil {
		t.Fatal(err)
	}

	cold, err := pl.Solve(SolveRequest{H: h, InvertOptions: opts})
	if err != nil {
		t.Fatal(err)
	}
	// A seed 12 cells off the optimum: the restricted solve's KKT audit
	// falls back to the cold full-grid solve, whose iterate yields too.
	warm := append(dsp.Vec(nil), cold.Profile...)
	ShiftProfile(warm, 12)
	iterOpts := opts
	iterOpts.Stop = StopIterate

	for _, tc := range []struct {
		name string
		warm dsp.Vec
		opts InvertOptions
	}{
		{"cold", nil, opts},
		{"warm", warm, opts},
		{"iterate", nil, iterOpts},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ref, err := pl.Solve(SolveRequest{H: h, Warm: tc.warm, InvertOptions: tc.opts})
			if err != nil {
				t.Fatal(err)
			}
			idle := tc.opts
			idle.Yield = func() {}
			got, err := pl.Solve(SolveRequest{H: h, Warm: tc.warm, InvertOptions: idle})
			if err != nil {
				t.Fatal(err)
			}
			sameResult(t, "idle hook", ref, got)

			var calls int
			var inner *Result
			nested := tc.opts
			nested.Yield = func() {
				calls++
				r, err := pl.Solve(otherReq)
				if err != nil {
					t.Error(err)
					return
				}
				inner = r
			}
			got, err = pl.Solve(SolveRequest{H: h, Warm: tc.warm, InvertOptions: nested})
			if err != nil {
				t.Fatal(err)
			}
			if calls == 0 {
				t.Fatalf("hook never called over %d iterations", ref.Iterations)
			}
			sameResult(t, "nested solve", ref, got)
			sameResult(t, "solve run by the hook", otherRef, inner)
		})
	}
}
