package ndft

import (
	"math"
	"math/rand"
	"testing"

	"chronos/internal/dsp"
	"chronos/internal/obs"
	"chronos/internal/wifi"
)

// solveFixture builds a plan plus a set of measurement/warm/option
// combinations that exercise every solver path: cold noiseless, cold
// noisy gap-stopped, warm on a fresh noise draw, warm whose KKT audit
// grows the working set (target jumped), warm whose audit can only fall
// back to the cold solve, a caller-fixed α, and — last, since it is the
// one request outside the zero-alloc contract — a random-seeded start.
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

	seed, err := pl.Solve(SolveRequest{H: noisy(0.05, 7, 11.2), InvertOptions: gapOpts})
	if err != nil {
		t.Fatal(err)
	}
	reqs := []SolveRequest{
		{H: synthChannel(freqs, []float64{7, 11.2}, []float64{1, 0.6}), InvertOptions: InvertOptions{MaxIter: 2000}},
		{H: noisy(0.05, 7, 11.2), InvertOptions: gapOpts},
		{H: noisy(0.05, 7.1, 11.3), Warm: seed.Profile, InvertOptions: gapOpts},
		// The target jumped far beyond warmDilate: the restricted solve
		// fails its KKT audit, grows the working set over the violators,
		// and continues warm.
		{H: noisy(0.05, 14.5, 17.9), Warm: seed.Profile, InvertOptions: gapOpts},
		// Paths at both ends of the grid: the violators dilated by
		// warmDilate would cover every cell, so the audit falls back to
		// the cold path.
		{H: noisy(0.05, 0.5, 19.5), Warm: seed.Profile, InvertOptions: gapOpts},
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
	if r.Warm != nil {
		c.Warm = append(dsp.Vec(nil), r.Warm...)
	}
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
// with a wrong measurement or warm-start length fails before any
// solving starts, and the caller's Dst is left untouched.
func TestSolveValidatesUpfront(t *testing.T) {
	pl, base := solveFixture(t)
	for _, tc := range []struct {
		name string
		req  SolveRequest
	}{
		{"measurement", SolveRequest{H: make(dsp.Vec, 3)}},
		{"warm", SolveRequest{H: cloneReq(base[0]).H, Warm: make(dsp.Vec, 5)}},
	} {
		dst := &Result{}
		tc.req.Dst = dst
		res, err := pl.Solve(tc.req)
		if err == nil {
			t.Fatalf("bad %s length accepted", tc.name)
		}
		if res != nil || dst.Profile != nil || dst.Taus != nil {
			t.Errorf("bad %s length: result written despite validation failure", tc.name)
		}
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

// TestWarmSolveGrowsWorkingSet pins the KKT-miss path of a warm solve.
// When one path drifts just past warmDilate, the audit's violators grow
// the working set and the restricted solve continues from its iterate
// instead of restarting cold. The answer must still pass the full-grid
// KKT conditions, agree with the cold solve, and cost less than it. The
// fixture's expansion and fallback requests must each take their path.
func TestWarmSolveGrowsWorkingSet(t *testing.T) {
	pl, reqs := solveFixture(t)
	n, m := pl.Dims()
	rng := rand.New(rand.NewSource(1))
	noisy := func(delaysNs ...float64) dsp.Vec {
		h := synthChannel(pl.Freqs, delaysNs, []float64{1, 0.6})
		for i := range h {
			h[i] += complex(rng.NormFloat64()*0.05, rng.NormFloat64()*0.05)
		}
		return h
	}
	opts := InvertOptions{MaxIter: 4000, NoiseFloor: 0.05 * math.Sqrt(2*float64(n))}
	seed, err := pl.Solve(SolveRequest{H: noisy(7, 11.2), InvertOptions: opts})
	if err != nil {
		t.Fatal(err)
	}
	// The second path moves 4.5 ns: nine 0.5 ns cells, one past the
	// dilation of the seed's support.
	h := noisy(7, 15.7)

	obs.SetEnabled(true)
	defer obs.SetEnabled(false)
	solve := func(req SolveRequest) (res *Result, expansions, fallbacks int64) {
		t.Helper()
		e0, f0 := obsSolveKKTExpansions.Value(), obsSolveKKTFallbacks.Value()
		res, err := pl.Solve(req)
		if err != nil {
			t.Fatal(err)
		}
		return res, obsSolveKKTExpansions.Value() - e0, obsSolveKKTFallbacks.Value() - f0
	}
	warm, expansions, fallbacks := solve(SolveRequest{H: h, Warm: seed.Profile, InvertOptions: opts})
	if expansions == 0 || fallbacks != 0 {
		t.Fatalf("kkt_expansions moved by %d, kkt_fallbacks by %d: want growth and no cold fallback", expansions, fallbacks)
	}
	cold, _, _ := solve(SolveRequest{H: h, InvertOptions: opts})

	// Full-grid KKT conditions of the warm answer, from the dictionary:
	// r = F·p − h̃, and every zero cell needs |Fᴴr|ⱼ ≤ kktSlack·α at the
	// default α = 0.1·‖Fᴴh̃‖∞.
	row := func(j int) dsp.Vec {
		v := make(dsp.Vec, n)
		for i := range v {
			v[i] = complex(pl.fhRe[j*n+i], pl.fhIm[j*n+i])
		}
		return v
	}
	resid := make(dsp.Vec, n)
	for i := range resid {
		resid[i] = -h[i]
	}
	var corrInf float64
	for j := 0; j < m; j++ {
		r := row(j)
		var c complex128
		for i := range r {
			resid[i] += complex(real(r[i]), -imag(r[i])) * warm.Profile[j]
			c += r[i] * h[i]
		}
		corrInf = math.Max(corrInf, math.Hypot(real(c), imag(c)))
	}
	alpha := 0.1 * corrInf
	for j := 0; j < m; j++ {
		if warm.Profile[j] != 0 {
			continue
		}
		var g complex128
		for i, a := range row(j) {
			g += a * resid[i]
		}
		if mag := math.Hypot(real(g), imag(g)); mag > kktSlack*alpha {
			t.Errorf("cell %d: |Fᴴr| = %.4g exceeds %.4g (kktSlack·α) on a zero coefficient", j, mag, kktSlack*alpha)
		}
	}

	pw, okW := firstPeakDelay(warm, 0.3)
	pc, okC := firstPeakDelay(cold, 0.3)
	if !okW || !okC {
		t.Fatal("missing first peak")
	}
	if math.Abs(pw-pc) > 0.2e-9 {
		t.Errorf("grown warm first peak %v vs cold %v", pw, pc)
	}
	if warm.Work >= cold.Work {
		t.Errorf("grown warm solve work %d not below cold %d", warm.Work, cold.Work)
	}
	t.Logf("grown warm: %d iterations, work %d; cold: %d iterations, work %d",
		warm.Iterations, warm.Work, cold.Iterations, cold.Work)

	// The fixture's two KKT-miss requests keep both paths covered for the
	// tier-equivalence and zero-alloc tests.
	if _, e, f := solve(cloneReq(reqs[3])); e == 0 || f != 0 {
		t.Errorf("fixture request 3: kkt_expansions +%d, kkt_fallbacks +%d; want growth only", e, f)
	}
	if _, _, f := solve(cloneReq(reqs[4])); f != 1 {
		t.Errorf("fixture request 4: kkt_fallbacks +%d, want the cold fallback", f)
	}
}
