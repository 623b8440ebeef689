package ndft

import (
	"math"
	"math/rand"
	"runtime"
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

// TestSpectralNormTwoFrequencies is the power iteration's known answer
// with two competing singular values: a two-frequency dictionary's Gram
// matrix FFᴴ is [[m, s], [s*, m]] with s = Σₖ exp(−j2π(f₁−f₂)τₖ), so
// ‖F‖₂² = m + |s| and the other eigenvalue, m − |s|, is the one the
// rounds must suppress (here about a third of the top one).
func TestSpectralNormTwoFrequencies(t *testing.T) {
	f1, f2 := 5.18e9, 5.19e9
	pl, err := NewPlan([]float64{f1, f2}, TauGrid(60e-9, 0.1e-9))
	if err != nil {
		t.Fatal(err)
	}
	var sRe, sIm float64
	for _, tau := range pl.Taus {
		sin, cos := math.Sincos(-2 * math.Pi * (f1 - f2) * tau)
		sRe += cos
		sIm += sin
	}
	_, m := pl.Dims()
	if want := float64(m) + math.Hypot(sRe, sIm); math.Abs(pl.normSq-want) > 1e-12*want {
		t.Errorf("‖F‖₂² = %v, want %v (m + |s|)", pl.normSq, want)
	}
	if pl.gamma != 1/pl.normSq {
		t.Errorf("γ = %v, want 1/‖F‖₂² = %v", pl.gamma, 1/pl.normSq)
	}
}

// TestSpectralNormBounds holds the 24-band h̃² plan's ‖F‖₂² between its
// largest column's squared norm and the squared Frobenius norm: every
// column of F has n unit-modulus entries, so n ≤ ‖F‖₂² ≤ n·m.
func TestSpectralNormBounds(t *testing.T) {
	pl, err := NewPlan(wifi.Centers(wifi.Bands5GHz()), TauGrid(2*60e-9, 2*0.1e-9))
	if err != nil {
		t.Fatal(err)
	}
	n, m := pl.Dims()
	if pl.normSq < float64(n) || pl.normSq > float64(n*m) {
		t.Errorf("‖F‖₂² = %v outside [n, n·m] = [%d, %d]", pl.normSq, n, n*m)
	}
}

// TestSpectralNormPinnedBits pins the step of the two plans every
// tracked fix solves on, the 24 5 GHz bands at h̃² over the estimator's
// 60 ns grid and over the 24 ns alias-refit window, to the bit: the
// step scales every iteration, so an ulp here can move a fix. Like the
// goldens it skips itself off amd64: the 600-cell plan's start vector
// takes one draw through std's math.Log (see spectralNorm).
func TestSpectralNormPinnedBits(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("the start vector's draws call std's math.Log, which is fusable Go off amd64")
	}
	freqs := wifi.Centers(wifi.Bands5GHz())
	for _, c := range []struct {
		maxTau float64
		m      int
		bits   uint64
	}{
		{60e-9, 600, 0x408768cba24bbbc7},
		{24e-9, 241, 0x40704778a1c3d827},
	} {
		pl, err := NewPlan(freqs, TauGrid(2*c.maxTau, 2*0.1e-9))
		if err != nil {
			t.Fatal(err)
		}
		if _, m := pl.Dims(); m != c.m {
			t.Fatalf("%v s grid: %d cells, want %d", c.maxTau, m, c.m)
		}
		if got := math.Float64bits(pl.normSq); got != c.bits {
			t.Errorf("%v s grid: ‖F‖₂² = %v (%#x), want %v (%#x)", c.maxTau, pl.normSq, got, math.Float64frombits(c.bits), c.bits)
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
