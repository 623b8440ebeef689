package ndft

import (
	"math"
	"math/rand"
	"testing"

	"chronos/internal/dsp"
	"chronos/internal/obs"
	"chronos/internal/wifi"
)

// sameBits requires two results to agree bit for bit: every profile and
// magnitude element, the residual and gap, Iterations, Work and
// Converged.
func sameBits(t *testing.T, label string, want, got *Result) {
	t.Helper()
	if want.Iterations != got.Iterations || want.Work != got.Work || want.Converged != got.Converged ||
		math.Float64bits(want.Residual) != math.Float64bits(got.Residual) ||
		math.Float64bits(want.GapAtStop) != math.Float64bits(got.GapAtStop) {
		t.Fatalf("%s: scalar fields diverged:\n  want iters=%d work=%d conv=%v res=%v gap=%v\n  got  iters=%d work=%d conv=%v res=%v gap=%v",
			label, want.Iterations, want.Work, want.Converged, want.Residual, want.GapAtStop,
			got.Iterations, got.Work, got.Converged, got.Residual, got.GapAtStop)
	}
	for j := range want.Profile {
		w, g := want.Profile[j], got.Profile[j]
		if math.Float64bits(real(w)) != math.Float64bits(real(g)) || math.Float64bits(imag(w)) != math.Float64bits(imag(g)) ||
			math.Float64bits(want.Magnitude[j]) != math.Float64bits(got.Magnitude[j]) {
			t.Fatalf("%s: cell %d: %v vs %v", label, j, w, g)
		}
	}
}

// solveScreenedAndNot solves req with the drift-bound screen and with it
// switched off, requires the two results to be identical bit for bit,
// and returns the cells the screened solve skipped.
func solveScreenedAndNot(t *testing.T, label string, pl *Plan, req SolveRequest) int64 {
	t.Helper()
	before := obsSolveScreenedCells.Value()
	on, err := pl.Solve(cloneReq(req))
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	screened := obsSolveScreenedCells.Value() - before
	screenOff = true
	off, err := pl.Solve(cloneReq(req))
	screenOff = false
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	sameBits(t, label, off, on)
	return screened
}

// TestScreenedSolveIdentical is the screen's exactness contract: a
// screened and an unscreened solve return identical Results, Work and
// Iterations. It covers random plans (Wi-Fi band groups and random
// frequency sets over grids of 41–241 cells), random multipath
// measurements with and without noise, default, scaled and explicit α,
// both stopping rules, drifted copies of each measurement, and a sweep
// of explicit α within a few ulps of the largest correlation, where a
// cell's gradient sits just under the threshold and the shrink's own
// rounding decides it. The screen must
// also actually skip cells, or the comparison shows nothing.
func TestScreenedSolveIdentical(t *testing.T) {
	obs.SetEnabled(true)
	defer obs.SetEnabled(false)
	rng := rand.New(rand.NewSource(61))
	var screened, trials int64
	for trial := 0; trial < 48; trial++ {
		var freqs []float64
		switch trial % 3 {
		case 0:
			freqs = wifi.Centers(wifi.Bands5GHz())
		case 1:
			freqs = wifi.Centers(wifi.Bands24GHz())
		default:
			freqs = make([]float64, 3+rng.Intn(30))
			for i := range freqs {
				freqs[i] = 2.4e9 + rng.Float64()*3.5e9
			}
		}
		maxTau := []float64{20e-9, 40e-9, 60e-9}[rng.Intn(3)]
		step := []float64{0.25e-9, 0.5e-9}[rng.Intn(2)]
		pl, err := NewPlan(freqs, TauGrid(maxTau, step))
		if err != nil {
			t.Fatal(err)
		}
		paths := 1 + rng.Intn(4)
		delays, gains := make([]float64, paths), make([]float64, paths)
		for k := range delays {
			delays[k] = rng.Float64() * maxTau * 0.8e9
			gains[k] = 0.2 + rng.Float64()
		}
		sigma := []float64{0, 0.01, 0.05, 0.2}[rng.Intn(4)]
		noisy := func(shiftNs float64) dsp.Vec {
			d := append([]float64(nil), delays...)
			for k := range d {
				d[k] += shiftNs
			}
			h := synthChannel(freqs, d, gains)
			for i := range h {
				h[i] += complex(rng.NormFloat64()*sigma, rng.NormFloat64()*sigma)
			}
			return h
		}
		opts := InvertOptions{MaxIter: 100 + rng.Intn(1500), AlphaScale: []float64{0, 0.3, 1, 3}[rng.Intn(4)]}
		if rng.Intn(2) == 0 && sigma > 0 {
			opts.NoiseFloor = sigma * math.Sqrt(2*float64(len(freqs)))
		}
		if rng.Intn(4) == 0 {
			opts.NoiseFloor = 0
		}
		if rng.Intn(4) == 0 {
			opts.Alpha = pl.MaxCorrelation(noisy(0)) * (0.02 + 0.3*rng.Float64())
		}
		h := noisy(0)
		trials++
		screened += solveScreenedAndNot(t, "cold", pl, SolveRequest{H: h, InvertOptions: opts})

		// The same paths drifted: neighbouring measurements of a moving
		// target.
		for _, shift := range []float64{0.4, 3} {
			trials++
			screened += solveScreenedAndNot(t, "drifted", pl, SolveRequest{H: noisy(shift), InvertOptions: opts})
		}

		// Cells just under α: with α within a few ulps of the largest
		// correlation the cold iterate stays (nearly) at zero, the
		// residual barely moves, and the top cell's gradient sits on the
		// threshold step after step. Epsilon < 0 disables the iterate
		// stop so every step of the budget runs.
		corr := pl.MaxCorrelation(h)
		for k := -4; k <= 4; k++ {
			trials++
			screened += solveScreenedAndNot(t, "just under α", pl, SolveRequest{H: h, InvertOptions: InvertOptions{
				Alpha: corr * (1 + float64(k)*0x1p-52), Epsilon: -1, MaxIter: 40,
			}})
		}
	}
	if screened == 0 {
		t.Fatalf("the screen skipped no cell in %d solves", trials)
	}
	t.Logf("%d solves, %d cells screened", trials, screened)
}
