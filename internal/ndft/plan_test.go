package ndft

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"chronos/internal/dsp"
	"chronos/internal/wifi"
)

func fig4Plan(t testing.TB) (*Plan, dsp.Vec) {
	t.Helper()
	freqs := wifi.Centers(wifi.USBands())
	taus := TauGrid(40e-9, 0.1e-9)
	pl, err := NewPlan(freqs, taus)
	if err != nil {
		t.Fatal(err)
	}
	return pl, synthChannel(freqs, []float64{5.2, 10, 16}, []float64{1, 0.7, 0.5})
}

// TestPlanSolveDstReuse checks that a recycled Result reproduces a fresh
// one exactly — the allocation-free steady-state path.
func TestPlanSolveDstReuse(t *testing.T) {
	pl, h := fig4Plan(t)
	opts := InvertOptions{MaxIter: 1500}
	fresh, err := pl.Solve(SolveRequest{H: h, InvertOptions: opts})
	if err != nil {
		t.Fatal(err)
	}
	dst := &Result{}
	for k := 0; k < 3; k++ {
		got, err := pl.Solve(SolveRequest{H: h, Dst: dst, InvertOptions: opts})
		if err != nil {
			t.Fatal(err)
		}
		if got != dst {
			t.Fatal("Solve did not return dst")
		}
		if got.Iterations != fresh.Iterations || got.Residual != fresh.Residual {
			t.Fatalf("pass %d diverged: %d/%v vs %d/%v", k, got.Iterations, got.Residual, fresh.Iterations, fresh.Residual)
		}
		for i := range fresh.Profile {
			if got.Profile[i] != fresh.Profile[i] {
				t.Fatalf("pass %d profile[%d] differs", k, i)
			}
		}
	}
}

// TestPlanSolveSteadyStateAllocsNothing is the zero-alloc acceptance
// criterion: with a recycled Result, repeat solves on one plan perform
// no heap allocation.
func TestPlanSolveSteadyStateAllocsNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("race-instrumented sync.Pool drops items; zero-alloc holds only in normal builds")
	}
	pl, h := fig4Plan(t)
	opts := InvertOptions{MaxIter: 200}
	req := SolveRequest{H: h, Dst: &Result{}, InvertOptions: opts}
	if _, err := pl.Solve(req); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := pl.Solve(req); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state Solve allocated %.1f objects/op, want 0", allocs)
	}
}

// TestPlanSolveConcurrentIdentical exercises the shared-plan contract
// under the race detector: concurrent solves on one Plan must not
// interfere and must all produce the serial result.
func TestPlanSolveConcurrentIdentical(t *testing.T) {
	pl, h := fig4Plan(t)
	opts := InvertOptions{MaxIter: 800}
	want, err := pl.Solve(SolveRequest{H: h, InvertOptions: opts})
	if err != nil {
		t.Fatal(err)
	}
	const workers = 8
	var wg sync.WaitGroup
	errs := make([]error, workers)
	results := make([]*Result, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			results[w], errs[w] = pl.Solve(SolveRequest{H: h, InvertOptions: opts})
		}(w)
	}
	wg.Wait()
	for w := 0; w < workers; w++ {
		if errs[w] != nil {
			t.Fatal(errs[w])
		}
		if results[w].Iterations != want.Iterations || results[w].Residual != want.Residual {
			t.Fatalf("worker %d diverged: %d/%v vs %d/%v",
				w, results[w].Iterations, results[w].Residual, want.Iterations, want.Residual)
		}
		for i := range want.Profile {
			if results[w].Profile[i] != want.Profile[i] {
				t.Fatalf("worker %d profile[%d] differs", w, i)
			}
		}
	}
}

// --- Plan.Solve micro-benchmarks (the zero-alloc perf trajectory) ---

// benchPlan is the Fig. 4 plan and a noisy measurement of its three
// paths.
func benchPlan(b *testing.B) (*Plan, dsp.Vec) {
	b.Helper()
	pl, _ := fig4Plan(b)
	rng := rand.New(rand.NewSource(5))
	h := synthChannel(pl.Freqs, []float64{5.2, 10, 16}, []float64{1, 0.7, 0.5})
	for i := range h {
		h[i] += complex(rng.NormFloat64()*0.05, rng.NormFloat64()*0.05)
	}
	return pl, h
}

func BenchmarkPlanSolve(b *testing.B) {
	pl, h := benchPlan(b)
	dst := &Result{}
	req := SolveRequest{H: h, Dst: dst, InvertOptions: InvertOptions{MaxIter: 4000}}
	// One solve before the timer grows dst, so allocs/op reads the
	// steady state even at -benchtime=1x.
	if _, err := pl.Solve(req); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := pl.Solve(req)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.Iterations), "iters/op")
	}
}

// TestGapStopAgreesWithFixedTolerance is the PR-5 acceptance fixture
// for the noise-adaptive stopping rule, at three SNRs: with a per-sweep
// noise floor supplied, a solve must stop early via the duality-gap
// certificate (below the fixed-tolerance work), report convergence, and
// agree with the fixed-tolerance solve on the first-peak delay — the
// polish pass canonicalizes the stopped iterate, so early stopping
// trades iterations, not answers.
func TestGapStopAgreesWithFixedTolerance(t *testing.T) {
	freqs := wifi.Centers(wifi.Bands5GHz())
	pl, err := NewPlan(freqs, TauGrid(20e-9, 0.5e-9))
	if err != nil {
		t.Fatal(err)
	}
	n, _ := pl.Dims()
	for _, sigma := range []float64{0.02, 0.05, 0.1} {
		rng := rand.New(rand.NewSource(9))
		h := synthChannel(freqs, []float64{7, 11.2}, []float64{1, 0.6})
		for i := range h {
			h[i] += complex(rng.NormFloat64()*sigma, rng.NormFloat64()*sigma)
		}
		wNorm := sigma * math.Sqrt(2*float64(n))
		gap, err := pl.Solve(SolveRequest{H: h, InvertOptions: InvertOptions{MaxIter: 4000, NoiseFloor: wNorm}})
		if err != nil {
			t.Fatal(err)
		}
		full, err := pl.Solve(SolveRequest{H: h, InvertOptions: InvertOptions{MaxIter: 4000}})
		if err != nil {
			t.Fatal(err)
		}
		if !gap.Converged {
			t.Fatalf("sigma=%v: gap solve did not converge", sigma)
		}
		if gap.GapAtStop <= 0 {
			t.Errorf("sigma=%v: gap telemetry missing (GapAtStop=%v)", sigma, gap.GapAtStop)
		}
		if gap.Work >= full.Work {
			t.Errorf("sigma=%v: gap-stopped work %d not below fixed-tolerance work %d", sigma, gap.Work, full.Work)
		}
		pg, okG := firstPeakDelay(gap, 0.3)
		pf, okF := firstPeakDelay(full, 0.3)
		if !okG || !okF {
			t.Fatalf("sigma=%v: missing peaks", sigma)
		}
		if math.Abs(pg-pf) > 0.5e-9 {
			t.Errorf("sigma=%v: gap-stopped first peak %v vs fixed-tolerance %v", sigma, pg, pf)
		}
	}
}

// TestGapRuleNeedsNoiseFloor pins that a zero NoiseFloor disables the
// gap rule entirely: with no tolerance to stop against, no gap check
// runs.
func TestGapRuleNeedsNoiseFloor(t *testing.T) {
	pl, h := fig4Plan(t)
	plain, err := pl.Solve(SolveRequest{H: h, InvertOptions: InvertOptions{MaxIter: 2000}})
	if err != nil {
		t.Fatal(err)
	}
	if plain.GapAtStop != 0 {
		t.Errorf("no tolerance source: gap checks ran anyway (GapAtStop=%v)", plain.GapAtStop)
	}
}
