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
// without a hook: on the gap rule, and on the iterate rule, where the
// hook rides the check cadence alone. The solve the hook ran matches the
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

	iterOpts := opts
	iterOpts.NoiseFloor = 0

	for _, tc := range []struct {
		name string
		opts InvertOptions
	}{
		{"cold", opts},
		{"iterate", iterOpts},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ref, err := pl.Solve(SolveRequest{H: h, InvertOptions: tc.opts})
			if err != nil {
				t.Fatal(err)
			}
			idle := tc.opts
			idle.Yield = func() {}
			got, err := pl.Solve(SolveRequest{H: h, InvertOptions: idle})
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
			got, err = pl.Solve(SolveRequest{H: h, InvertOptions: nested})
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

// TestSolveYieldCadence pins where a solve yields. A hook cannot change
// a result, so TestSolveYieldIdentical would pass whether a solve
// yielded at every gap check or at none; but the yield points are the
// daemon's preemption points, and a latency solve waits for the next
// one. Each count is the number of gap-check boundaries the main
// iterate reaches (a polish never yields).
func TestSolveYieldCadence(t *testing.T) {
	count := func(pl *Plan, req SolveRequest) int {
		var calls int
		req.Yield = func() { calls++ }
		if _, err := pl.Solve(req); err != nil {
			t.Fatal(err)
		}
		return calls
	}
	pl, reqs := solveFixture(t)
	want := []int{4, 2, 2, 2, 2, 2, 10, 4}
	for i, req := range reqs {
		if got := count(pl, cloneReq(req)); got != want[i] {
			t.Errorf("solveFixture request %d: %d yields, want %d", i, got, want[i])
		}
	}
	ypl, h, opts := yieldFixture(t)
	iterOpts := opts
	iterOpts.NoiseFloor = 0
	for _, tc := range []struct {
		name string
		opts InvertOptions
		want int
	}{
		{"gap", opts, 2},
		{"iterate", iterOpts, 4},
	} {
		if got := count(ypl, SolveRequest{H: h, InvertOptions: tc.opts}); got != tc.want {
			t.Errorf("yieldFixture %s solve: %d yields, want %d", tc.name, got, tc.want)
		}
	}
}
