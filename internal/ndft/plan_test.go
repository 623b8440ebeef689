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

// TestPlanWarmStartEquivalence is the warm-start acceptance test: warm
// and cold solves must converge to the same first-peak delay (the
// solver's fixed points do not depend on the start), and on the
// steady-state case warm starts are built for — a target that barely
// moved, a fresh noise draw — the warm solve must take far fewer
// iterations.
func TestPlanWarmStartEquivalence(t *testing.T) {
	pl, _ := fig4Plan(t)
	freqs := pl.Freqs
	opts := InvertOptions{MaxIter: 4000}
	rng := rand.New(rand.NewSource(21))
	noisy := func(delaysNs ...float64) dsp.Vec {
		h := synthChannel(freqs, delaysNs, []float64{1, 0.7, 0.5})
		for i := range h {
			h[i] += complex(rng.NormFloat64()*0.05, rng.NormFloat64()*0.05)
		}
		return h
	}

	cold0, err := pl.Solve(SolveRequest{H: noisy(5.2, 10, 16), InvertOptions: opts})
	if err != nil {
		t.Fatal(err)
	}
	// The static steady state: same geometry, new measurement noise.
	h := noisy(5.2, 10, 16)
	cold, err := pl.Solve(SolveRequest{H: h, InvertOptions: opts})
	if err != nil {
		t.Fatal(err)
	}
	warm, err := pl.Solve(SolveRequest{H: h, Warm: cold0.Profile, InvertOptions: opts})
	if err != nil {
		t.Fatal(err)
	}
	pc, okC := firstPeakDelay(cold, 0.3)
	pw, okW := firstPeakDelay(warm, 0.3)
	if !okC || !okW {
		t.Fatal("missing peaks")
	}
	if math.Abs(pc-pw) > 0.2e-9 {
		t.Errorf("warm first peak %v vs cold %v", pw, pc)
	}
	if !warm.Converged {
		t.Error("warm solve did not converge")
	}
	if warm.Iterations*2 > cold.Iterations {
		t.Errorf("steady-state warm start took %d iterations vs cold %d, want < half", warm.Iterations, cold.Iterations)
	}
	t.Logf("static steady state: cold %d, warm %d iterations", cold.Iterations, warm.Iterations)

	// A drifted target (~0.2 ns): the warm fix must still agree with the
	// cold one — warm starting trades iterations, never the answer.
	hd := noisy(5.4, 10.2, 16.2)
	coldD, err := pl.Solve(SolveRequest{H: hd, InvertOptions: opts})
	if err != nil {
		t.Fatal(err)
	}
	warmD, err := pl.Solve(SolveRequest{H: hd, Warm: cold0.Profile, InvertOptions: opts})
	if err != nil {
		t.Fatal(err)
	}
	pcD, okC := firstPeakDelay(coldD, 0.3)
	pwD, okW := firstPeakDelay(warmD, 0.3)
	if !okC || !okW {
		t.Fatal("missing drifted peaks")
	}
	if math.Abs(pcD-pwD) > 0.2e-9 {
		t.Errorf("drifted warm first peak %v vs cold %v", pwD, pcD)
	}
}

// TestPlanWarmStartRejectsWrongLength guards the grid-length contract.
func TestPlanWarmStartRejectsWrongLength(t *testing.T) {
	pl, h := fig4Plan(t)
	if _, err := pl.Solve(SolveRequest{H: h, Warm: make(dsp.Vec, 3), InvertOptions: InvertOptions{}}); err == nil {
		t.Error("mismatched warm-start length accepted")
	}
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
	dst := &Result{}
	warm, err := pl.Solve(SolveRequest{H: h, Dst: dst, InvertOptions: opts})
	if err != nil {
		t.Fatal(err)
	}
	seed := warm.Profile
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := pl.Solve(SolveRequest{H: h, Warm: seed, Dst: dst, InvertOptions: opts}); err != nil {
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

func benchPlan(b *testing.B) (*Plan, dsp.Vec, dsp.Vec) {
	b.Helper()
	pl, _ := fig4Plan(b)
	rng := rand.New(rand.NewSource(5))
	noisy := func() dsp.Vec {
		h := synthChannel(pl.Freqs, []float64{5.2, 10, 16}, []float64{1, 0.7, 0.5})
		for i := range h {
			h[i] += complex(rng.NormFloat64()*0.05, rng.NormFloat64()*0.05)
		}
		return h
	}
	seedRes, err := pl.Solve(SolveRequest{H: noisy(), InvertOptions: InvertOptions{MaxIter: 4000}})
	if err != nil {
		b.Fatal(err)
	}
	// The next sweep's measurement: same geometry, fresh noise — the
	// static tracking steady state.
	return pl, noisy(), seedRes.Profile
}

func BenchmarkPlanSolveColdStart(b *testing.B) {
	pl, h, _ := benchPlan(b)
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

func BenchmarkPlanSolveWarmStart(b *testing.B) {
	pl, h, seed := benchPlan(b)
	dst := &Result{}
	req := SolveRequest{H: h, Warm: seed, Dst: dst, InvertOptions: InvertOptions{MaxIter: 4000}}
	// One solve before the timer grows dst (see the cold benchmark).
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

// TestGapStopWarmColdEquivalence is the PR-5 acceptance fixture for the
// noise-adaptive stopping rule, at three SNRs: with a per-sweep noise
// floor supplied, both cold and warm solves must stop early via the
// duality-gap certificate (far below the fixed-tolerance iteration
// counts), report convergence, and agree on the first-peak delay — the
// polish pass canonicalizes the stopped iterate, so early stopping
// trades iterations, not answers.
func TestGapStopWarmColdEquivalence(t *testing.T) {
	freqs := wifi.Centers(wifi.Bands5GHz())
	pl, err := NewPlan(freqs, TauGrid(20e-9, 0.5e-9))
	if err != nil {
		t.Fatal(err)
	}
	n, _ := pl.Dims()
	for _, sigma := range []float64{0.02, 0.05, 0.1} {
		rng := rand.New(rand.NewSource(9))
		noisy := func() dsp.Vec {
			h := synthChannel(freqs, []float64{7, 11.2}, []float64{1, 0.6})
			for i := range h {
				h[i] += complex(rng.NormFloat64()*sigma, rng.NormFloat64()*sigma)
			}
			return h
		}
		wNorm := sigma * math.Sqrt(2*float64(n))
		opts := InvertOptions{MaxIter: 4000, NoiseFloor: wNorm}
		seed, err := pl.Solve(SolveRequest{H: noisy(), InvertOptions: opts})
		if err != nil {
			t.Fatal(err)
		}
		h := noisy()
		cold, err := pl.Solve(SolveRequest{H: h, InvertOptions: opts})
		if err != nil {
			t.Fatal(err)
		}
		warm, err := pl.Solve(SolveRequest{H: h, Warm: seed.Profile, InvertOptions: opts})
		if err != nil {
			t.Fatal(err)
		}
		full, err := pl.Solve(SolveRequest{H: h, InvertOptions: InvertOptions{MaxIter: 4000}})
		if err != nil {
			t.Fatal(err)
		}
		if !cold.Converged || !warm.Converged {
			t.Fatalf("sigma=%v: gap solves did not converge (cold %v, warm %v)", sigma, cold.Converged, warm.Converged)
		}
		if cold.GapAtStop <= 0 {
			t.Errorf("sigma=%v: cold gap telemetry missing (GapAtStop=%v)", sigma, cold.GapAtStop)
		}
		if cold.Work >= full.Work {
			t.Errorf("sigma=%v: gap-stopped cold work %d not below fixed-tolerance work %d", sigma, cold.Work, full.Work)
		}
		if warm.Work*2 >= cold.Work {
			t.Errorf("sigma=%v: warm work %d not clearly below cold %d", sigma, warm.Work, cold.Work)
		}
		pc, okC := firstPeakDelay(cold, 0.3)
		pw, okW := firstPeakDelay(warm, 0.3)
		pf, okF := firstPeakDelay(full, 0.3)
		if !okC || !okW || !okF {
			t.Fatalf("sigma=%v: missing peaks", sigma)
		}
		if math.Abs(pc-pw) > 0.2e-9 {
			t.Errorf("sigma=%v: warm first peak %v vs cold %v", sigma, pw, pc)
		}
		if math.Abs(pc-pf) > 0.5e-9 {
			t.Errorf("sigma=%v: gap-stopped first peak %v vs fixed-tolerance %v", sigma, pc, pf)
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
