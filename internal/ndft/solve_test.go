package ndft

import (
	"math"
	"math/rand"
	"testing"

	"chronos/internal/dsp"
	"chronos/internal/wifi"
)

// solveFixture builds a plan plus a set of measurement/option
// combinations that exercise every solver path: the iterate rule on
// noiseless and on noisy data, gap-stopped noisy solves with their
// polish (one of them with paths at both ends of the grid), and a
// caller-fixed α.
func solveFixture(t testing.TB) (*Plan, []SolveRequest) {
	t.Helper()
	freqs := wifi.Centers(wifi.Bands5GHz())
	pl, err := NewPlan(freqs, TauGrid(20e-9, 0.5e-9))
	if err != nil {
		t.Fatal(err)
	}
	n, _ := pl.Dims()
	rng := rand.New(rand.NewSource(17))
	noisy := func(sigma float64, delaysNs ...float64) dsp.Vec {
		h := synthChannel(freqs, delaysNs, []float64{1, 0.6})
		for i := range h {
			h[i] += complex(rng.NormFloat64()*sigma, rng.NormFloat64()*sigma)
		}
		return h
	}
	wNorm := 0.05 * math.Sqrt(2*float64(n))
	gapOpts := InvertOptions{MaxIter: 4000, NoiseFloor: wNorm}
	reqs := []SolveRequest{
		{H: synthChannel(freqs, []float64{7, 11.2}, []float64{1, 0.6}), InvertOptions: InvertOptions{MaxIter: 2000}},
		{H: noisy(0.05, 7, 11.2), InvertOptions: gapOpts},
		{H: noisy(0.05, 7, 11.2), InvertOptions: gapOpts},
		{H: noisy(0.05, 7.1, 11.3), InvertOptions: gapOpts},
		{H: noisy(0.05, 14.5, 17.9), InvertOptions: gapOpts},
		{H: noisy(0.05, 0.5, 19.5), InvertOptions: gapOpts},
		{H: noisy(0.1, 7, 11.2), InvertOptions: InvertOptions{MaxIter: 2000, Alpha: 2}},
		{H: noisy(0.02, 5.5, 9.8), InvertOptions: InvertOptions{MaxIter: 2000}},
	}
	return pl, reqs
}

// cloneReq deep-copies a request so two solves of it cannot share
// result or input storage.
func cloneReq(r SolveRequest) SolveRequest {
	c := r
	c.H = append(dsp.Vec(nil), r.H...)
	c.Dst = nil
	return c
}

// sameResult asserts byte-identity of two results (exact float equality
// on every field and element).
func sameResult(t *testing.T, label string, want, got *Result) {
	t.Helper()
	if want.Iterations != got.Iterations || want.Converged != got.Converged ||
		want.Work != got.Work || want.Residual != got.Residual ||
		want.GapAtStop != got.GapAtStop {
		t.Errorf("%s: scalar fields diverged:\n  want %+v\n  got  %+v", label, want, got)
	}
	if len(want.Profile) != len(got.Profile) {
		t.Fatalf("%s: profile length %d vs %d", label, len(want.Profile), len(got.Profile))
	}
	for i := range want.Profile {
		if want.Profile[i] != got.Profile[i] {
			t.Fatalf("%s: profile[%d]: %v vs %v", label, i, want.Profile[i], got.Profile[i])
		}
	}
	for i := range want.Magnitude {
		if want.Magnitude[i] != got.Magnitude[i] {
			t.Fatalf("%s: magnitude[%d]: %v vs %v", label, i, want.Magnitude[i], got.Magnitude[i])
		}
	}
}

// TestSolveValidatesUpfront pins the validation contract: a request
// with a wrong measurement length fails before any solving starts, and
// the caller's Dst is left untouched.
func TestSolveValidatesUpfront(t *testing.T) {
	pl, _ := solveFixture(t)
	dst := &Result{}
	res, err := pl.Solve(SolveRequest{H: make(dsp.Vec, 3), Dst: dst})
	if err == nil {
		t.Fatal("bad measurement length accepted")
	}
	if res != nil || dst.Profile != nil || dst.Taus != nil {
		t.Error("bad measurement length: result written despite validation failure")
	}
}

// TestSolveSteadyStateAllocsNothing extends the zero-alloc pin to every
// solver path of the fixture: with recycled Dsts, steady-state solves
// perform no allocations.
func TestSolveSteadyStateAllocsNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not stable under -race")
	}
	pl, base := solveFixture(t)
	reqs := make([]SolveRequest, len(base))
	for i := range reqs {
		reqs[i] = cloneReq(base[i])
		reqs[i].Dst = &Result{}
	}
	solveAll := func() {
		for _, r := range reqs {
			if _, err := pl.Solve(r); err != nil {
				t.Fatal(err)
			}
		}
	}
	solveAll() // warm the pool and materialize the Dsts
	if allocs := testing.AllocsPerRun(10, solveAll); allocs != 0 {
		t.Errorf("steady-state solves allocate %v times per pass, want 0", allocs)
	}
}

// TestPolishGapExit is the regression pin for the gap-certified polish
// exit (ROADMAP PR-5 follow-on b): on a broad noisy support the polish
// pass must stop on its own tightened duality-gap certificate instead of
// always burning its full fixed budget, and the certified exit must not
// move the first-peak answer relative to the fixed-budget polish.
func TestPolishGapExit(t *testing.T) {
	freqs := wifi.Centers(wifi.Bands5GHz())
	pl, err := NewPlan(freqs, TauGrid(20e-9, 0.5e-9))
	if err != nil {
		t.Fatal(err)
	}
	n, _ := pl.Dims()
	rng := rand.New(rand.NewSource(41))
	// High noise on many paths: the gap stop fires with a broad support,
	// which is exactly the case whose polish used to run all 600
	// iterations.
	h := synthChannel(freqs, []float64{5, 7.5, 11.2, 14.1}, []float64{1, 0.8, 0.6, 0.5})
	for i := range h {
		h[i] += complex(rng.NormFloat64()*0.1, rng.NormFloat64()*0.1)
	}
	opts := InvertOptions{MaxIter: 4000, NoiseFloor: 0.1 * math.Sqrt(2*float64(n))}

	certified, err := pl.Solve(SolveRequest{H: h, InvertOptions: opts})
	if err != nil {
		t.Fatal(err)
	}
	polishGapExit = false
	fixed, ferr := pl.Solve(SolveRequest{H: h, InvertOptions: opts})
	polishGapExit = true
	if ferr != nil {
		t.Fatal(ferr)
	}

	if certified.Iterations >= fixed.Iterations {
		t.Errorf("certified polish exit did not save iterations: %d vs fixed-budget %d",
			certified.Iterations, fixed.Iterations)
	}
	if !certified.Converged {
		t.Error("certified solve not marked converged")
	}
	pc, okC := firstPeakDelay(certified, 0.3)
	pf, okF := firstPeakDelay(fixed, 0.3)
	if !okC || !okF {
		t.Fatal("missing first peak")
	}
	if math.Abs(pc-pf) > 0.2e-9 {
		t.Errorf("certified polish moved the first peak: %v vs %v", pc, pf)
	}
}
