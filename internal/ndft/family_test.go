package ndft

import (
	"math"
	"math/rand"
	"testing"

	"chronos/internal/dsp"
)

func TestFoldMassReusesDst(t *testing.T) {
	mag := []float64{1, 2, 3, 4, 5, 6, 7}
	dst := make([]float64, 0, 8)
	fold := FoldMass(dst, mag, 3)
	want := []float64{1 + 4 + 7, 2 + 5, 3 + 6}
	for i := range fold {
		if fold[i] != want[i] {
			t.Fatalf("fold = %v, want %v", fold, want)
		}
	}
	if got := FoldMass(nil, mag, 0); len(got) != 0 {
		t.Errorf("degenerate period folded to %v, want empty", got)
	}
}

func TestMemoryBytesScalesWithGrid(t *testing.T) {
	freqs := []float64{5.18e9, 5.2e9, 5.22e9, 5.24e9}
	small, err := NewPlan(freqs, TauGrid(20e-9, 0.5e-9))
	if err != nil {
		t.Fatal(err)
	}
	large, err := NewPlan(freqs, TauGrid(60e-9, 0.5e-9))
	if err != nil {
		t.Fatal(err)
	}
	if small.MemoryBytes() <= 0 || large.MemoryBytes() <= 2*small.MemoryBytes() {
		t.Errorf("memory accounting off: small=%d large=%d", small.MemoryBytes(), large.MemoryBytes())
	}
}

func TestWeightedResidualMatchesPlain(t *testing.T) {
	freqs := []float64{5.18e9, 5.2e9, 5.26e9, 5.745e9, 5.825e9}
	plan, err := NewPlan(freqs, TauGrid(30e-9, 0.5e-9))
	if err != nil {
		t.Fatal(err)
	}
	p := make(dsp.Vec, len(plan.Taus))
	p[10], p[24] = 1, complex(0.4, 0.2)
	h := make(dsp.Vec, len(freqs))
	for i, f := range freqs {
		for j, c := range p {
			if c != 0 {
				ph := math.Mod(-2*math.Pi*f*plan.Taus[j], 2*math.Pi)
				h[i] += c * dsp.FromPolar(1, ph)
			}
		}
	}
	res, err := plan.Solve(SolveRequest{H: h, InvertOptions: InvertOptions{MaxIter: 2000}})
	if err != nil {
		t.Fatal(err)
	}
	ones := make([]float64, len(freqs))
	for i := range ones {
		ones[i] = 1
	}
	wr := plan.WeightedResidual(res.Profile, h, ones)
	if math.Abs(wr-res.Residual) > 1e-9*(1+res.Residual) {
		t.Errorf("unit-weighted residual %v != plain residual %v", wr, res.Residual)
	}
	if !math.IsNaN(plan.WeightedResidual(res.Profile, h[:2], ones)) {
		t.Error("dimension mismatch not flagged")
	}
}

// TestWeightedResidualAllocsNothing pins the alias scorer's residual to
// the pooled workspace: a steady-state call allocates nothing.
func TestWeightedResidualAllocsNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("race-instrumented sync.Pool drops items; zero-alloc holds only in normal builds")
	}
	pl, h := fig4Plan(t)
	res, err := pl.Solve(SolveRequest{H: h, InvertOptions: InvertOptions{MaxIter: 200}})
	if err != nil {
		t.Fatal(err)
	}
	w := make([]float64, len(h))
	for i := range w {
		w[i] = float64(i % 3)
	}
	var sink float64
	if allocs := testing.AllocsPerRun(20, func() { sink += pl.WeightedResidual(res.Profile, h, w) }); allocs != 0 {
		t.Errorf("WeightedResidual allocated %.1f objects/op, want 0", allocs)
	}
	if math.IsNaN(sink) {
		t.Error("WeightedResidual returned NaN")
	}
}

// fuzzBandPlan derives a deterministic random band plan and path set
// from the fuzz seed: 14–24 center frequencies on the 5 MHz raster
// (mixing on- and off-20 MHz-raster channels, dense enough that the
// inversion is well posed — a handful of arbitrary bands cannot
// localize anything, and no fold invariant can survive a solver that
// fails to localize) and one dominant path plus an optional weaker one.
func fuzzBandPlan(seed int64) (freqs []float64, delays []float64, gains []float64) {
	rng := rand.New(rand.NewSource(seed))
	n := 14 + rng.Intn(11)
	used := map[int]bool{}
	for len(freqs) < n {
		// 5170..5835 MHz in 5 MHz steps.
		k := 1034 + rng.Intn(134)
		if used[k] {
			continue
		}
		used[k] = true
		freqs = append(freqs, float64(k)*5e6)
	}
	delays = []float64{2e-9 + rng.Float64()*18e-9}
	gains = []float64{1}
	if rng.Intn(2) == 1 {
		delays = append(delays, delays[0]+1e-9+rng.Float64()*8e-9)
		gains = append(gains, 0.3+0.3*rng.Float64())
	}
	return freqs, delays, gains
}

func synth(freqs, delays, gains []float64, shift float64) dsp.Vec {
	h := make(dsp.Vec, len(freqs))
	for i, f := range freqs {
		for k := range delays {
			ph := math.Mod(-2*math.Pi*f*(delays[k]+shift), 2*math.Pi)
			h[i] += dsp.FromPolar(gains[k], ph)
		}
	}
	return h
}

// FuzzFamilyFold drives random band plans through the family-fold
// invariants the alias ranking rests on:
//
//  1. folded mass is conserved (every grid cell lands in exactly one
//     residue);
//  2. the winning family index is stable under the per-frequency phase
//     rotation corresponding to a one-alias-period delay shift — the
//     shifted profile folds onto the same residue.
func FuzzFamilyFold(f *testing.F) {
	for _, s := range []int64{1, 7, 42, 1234, 99999} {
		f.Add(s)
	}
	const (
		period = 25e-9
		step   = 0.5e-9
		maxTau = 60e-9
		cells  = 50 // period / step
	)
	f.Fuzz(func(t *testing.T, seed int64) {
		freqs, delays, gains := fuzzBandPlan(seed)
		plan, err := NewPlan(freqs, TauGrid(maxTau, step))
		if err != nil {
			t.Skip()
		}
		h := synth(freqs, delays, gains, 0)
		res, err := plan.Solve(SolveRequest{H: h, InvertOptions: InvertOptions{MaxIter: 1500}})
		if err != nil {
			t.Skip()
		}

		// (1) Conservation.
		fold := FoldMass(nil, res.Magnitude, cells)
		var total, folded float64
		for _, v := range res.Magnitude {
			total += v
		}
		for _, v := range fold {
			folded += v
		}
		if math.Abs(total-folded) > 1e-9*(1+total) {
			t.Fatalf("fold lost mass: %v vs %v", folded, total)
		}
		if total == 0 {
			t.Skip() // solver found nothing to fold
		}

		// (2) Family stability under a one-period delay rotation: the
		// winning residue of each solve must remain essentially tied for
		// the win in the other (two real paths with near-equal folded
		// mass may swap argmax between independent solves; a residue
		// that actually moved would hold almost no mass in the rotated
		// fold).
		argmax := func(v []float64) int {
			best := 0
			for i := range v {
				if v[i] > v[best] {
					best = i
				}
			}
			return best
		}
		massAt := func(v []float64, r int) float64 {
			m := v[r]
			if w := v[(r+cells-1)%cells]; w > m {
				m = w
			}
			if w := v[(r+1)%cells]; w > m {
				m = w
			}
			return m
		}
		h2 := synth(freqs, delays, gains, period)
		res2, err := plan.Solve(SolveRequest{H: h2, InvertOptions: InvertOptions{MaxIter: 1500}})
		if err != nil {
			t.Skip()
		}
		fold2 := FoldMass(nil, res2.Magnitude, cells)
		a, b := argmax(fold), argmax(fold2)
		if massAt(fold2, a) < 0.6*fold2[b] {
			t.Errorf("family %d lost its mass under a one-period rotation (seed %d)", a, seed)
		}
		if massAt(fold, b) < 0.6*fold[a] {
			t.Errorf("rotated winner %d holds no mass in the original fold (seed %d)", b, seed)
		}
	})
}
