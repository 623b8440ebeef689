package ndft

import (
	"math"
	"math/rand"
	"testing"

	"chronos/internal/dsp"
	"chronos/internal/wifi"
)

// synthChannel builds the frequency-domain measurement for paths with
// given delays (ns) and gains across freqs.
func synthChannel(freqs []float64, delaysNs, gains []float64) dsp.Vec {
	h := make(dsp.Vec, len(freqs))
	for i, f := range freqs {
		for k := range delaysNs {
			ph := -2 * math.Pi * f * delaysNs[k] * 1e-9
			h[i] += dsp.FromPolar(gains[k], math.Mod(ph, 2*math.Pi))
		}
	}
	return h
}

// maxCorrelation is ‖Fᴴh‖∞, the largest correlation between h and any
// single atom, computed as Solve computes it for the default α.
func maxCorrelation(pl *Plan, h dsp.Vec) float64 {
	w := pl.getWorkspace()
	defer pl.ws.Put(w)
	split(w.hRe, w.hIm, h)
	pl.adjointDense(w, w.hRe, w.hIm)
	var maxSq float64
	for j := 0; j < pl.m; j++ {
		if sq := float64(w.gRe[j]*w.gRe[j]) + float64(w.gIm[j]*w.gIm[j]); sq > maxSq {
			maxSq = sq
		}
	}
	return math.Sqrt(maxSq)
}

// firstPeakDelay is §6's first-peak rule on a solve's profile: the
// earliest peak at or above threshold·max. ok is false when the profile
// is empty.
func firstPeakDelay(r *Result, threshold float64) (float64, bool) {
	peaks := dsp.FindPeaks(r.Taus, r.Magnitude, threshold)
	if len(peaks) == 0 {
		return 0, false
	}
	return peaks[0].X, true
}

func TestTauGrid(t *testing.T) {
	g := TauGrid(10e-9, 1e-9)
	if len(g) != 11 {
		t.Fatalf("len = %d", len(g))
	}
	if g[0] != 0 || math.Abs(g[10]-10e-9) > 1e-18 {
		t.Errorf("endpoints: %v %v", g[0], g[10])
	}
	if TauGrid(0, 1) != nil || TauGrid(1, 0) != nil {
		t.Error("degenerate grids should be nil")
	}
}

func TestNewPlanErrors(t *testing.T) {
	if _, err := NewPlan(nil, []float64{1}); err == nil {
		t.Error("empty freqs accepted")
	}
	if _, err := NewPlan([]float64{1}, nil); err == nil {
		t.Error("empty taus accepted")
	}
}

// TestForwardMatchesDirectEvaluation checks the stored dictionary: the
// forward map reads column k of F as the conjugate of adjoint row k, so
// that row, conjugated, must match the single-path channel at delay
// taus[k].
func TestForwardMatchesDirectEvaluation(t *testing.T) {
	freqs := wifi.Centers(wifi.Bands5GHz())
	taus := TauGrid(30e-9, 0.5e-9)
	pl, err := NewPlan(freqs, taus)
	if err != nil {
		t.Fatal(err)
	}
	n, _ := pl.Dims()
	const k = 10
	want := synthChannel(freqs, []float64{taus[k] * 1e9}, []float64{1})
	for i := range want {
		col := complex(pl.fhRe[k*n+i], -pl.fhIm[k*n+i])
		if d := col - want[i]; math.Hypot(real(d), imag(d)) > 1e-9 {
			t.Fatalf("freq %d: %v vs %v", i, col, want[i])
		}
	}
}

func TestInvertSinglePath(t *testing.T) {
	freqs := wifi.Centers(wifi.Bands5GHz())
	taus := TauGrid(50e-9, 0.1e-9)
	pl, err := NewPlan(freqs, taus)
	if err != nil {
		t.Fatal(err)
	}
	trueTau := 7.3e-9
	h := synthChannel(freqs, []float64{7.3}, []float64{1})
	res, err := pl.Solve(SolveRequest{H: h})
	if err != nil {
		t.Fatal(err)
	}
	got, ok := firstPeakDelay(res, 0.3)
	if !ok {
		t.Fatal("no peak")
	}
	if math.Abs(got-trueTau) > 0.1e-9 {
		t.Errorf("peak at %v, want %v", got, trueTau)
	}
}

func TestInvertFig4ThreePaths(t *testing.T) {
	// The Fig. 4 scenario: 5.2, 10, 16 ns with descending gains. All
	// three peaks must be recovered and the first peak must sit at 5.2 ns.
	freqs := wifi.Centers(wifi.USBands())
	taus := TauGrid(40e-9, 0.1e-9)
	pl, err := NewPlan(freqs, taus)
	if err != nil {
		t.Fatal(err)
	}
	h := synthChannel(freqs, []float64{5.2, 10, 16}, []float64{1, 0.7, 0.5})
	res, err := pl.Solve(SolveRequest{H: h, InvertOptions: InvertOptions{MaxIter: 4000}})
	if err != nil {
		t.Fatal(err)
	}
	first, ok := firstPeakDelay(res, 0.2)
	if !ok {
		t.Fatal("no peak")
	}
	if math.Abs(first-5.2e-9) > 0.2e-9 {
		t.Errorf("first peak at %v, want 5.2 ns", first)
	}
	peaks := dsp.FindPeaks(res.Taus, res.Magnitude, 0.2)
	if len(peaks) < 3 {
		t.Fatalf("recovered %d peaks, want ≥ 3", len(peaks))
	}
	wants := []float64{5.2e-9, 10e-9, 16e-9}
	for _, w := range wants {
		found := false
		for _, p := range peaks {
			if math.Abs(p.X-w) < 0.3e-9 {
				found = true
			}
		}
		if !found {
			t.Errorf("path at %v not recovered; peaks: %+v", w, peaks)
		}
	}
}

func TestInvertProfileIsSparse(t *testing.T) {
	freqs := wifi.Centers(wifi.USBands())
	taus := TauGrid(40e-9, 0.1e-9)
	pl, _ := NewPlan(freqs, taus)
	h := synthChannel(freqs, []float64{5.2, 10, 16}, []float64{1, 0.7, 0.5})
	res, err := pl.Solve(SolveRequest{H: h, InvertOptions: InvertOptions{MaxIter: 4000}})
	if err != nil {
		t.Fatal(err)
	}
	nonzero := 0
	for _, v := range res.Profile {
		if v != 0 {
			nonzero++
		}
	}
	// The L1 prior must keep the solution much sparser than the grid.
	if nonzero > len(taus)/4 {
		t.Errorf("profile has %d/%d nonzeros — not sparse", nonzero, len(taus))
	}
}

func TestInvertNoiseRobust(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	freqs := wifi.Centers(wifi.USBands())
	taus := TauGrid(40e-9, 0.1e-9)
	pl, _ := NewPlan(freqs, taus)
	trueTau := 9.4e-9
	h := synthChannel(freqs, []float64{9.4, 14.1}, []float64{1, 0.6})
	for i := range h {
		h[i] += complex(rng.NormFloat64()*0.05, rng.NormFloat64()*0.05)
	}
	res, err := pl.Solve(SolveRequest{H: h, InvertOptions: InvertOptions{MaxIter: 4000}})
	if err != nil {
		t.Fatal(err)
	}
	got, ok := firstPeakDelay(res, 0.3)
	if !ok {
		t.Fatal("no peak")
	}
	if math.Abs(got-trueTau) > 0.3e-9 {
		t.Errorf("first peak %v, want %v", got, trueTau)
	}
}

func TestInvertAlphaControlsSparsity(t *testing.T) {
	// Bigger α ⇒ fewer nonzeros (§6: "A bigger choice of α leads to
	// fewer non-zero values in p").
	freqs := wifi.Centers(wifi.USBands())
	taus := TauGrid(30e-9, 0.2e-9)
	pl, _ := NewPlan(freqs, taus)
	h := synthChannel(freqs, []float64{5, 9, 13, 21}, []float64{1, 0.8, 0.6, 0.4})

	count := func(alpha float64) int {
		res, err := pl.Solve(SolveRequest{H: h, InvertOptions: InvertOptions{Alpha: alpha, MaxIter: 3000}})
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
	aMax := maxCorrelation(pl, h)
	small, large := count(0.01*aMax), count(0.5*aMax)
	if large >= small {
		t.Errorf("nonzeros: α small → %d, α large → %d; want decrease", small, large)
	}
}

func TestInvertDimensionMismatch(t *testing.T) {
	freqs := wifi.Centers(wifi.Bands5GHz())
	pl, _ := NewPlan(freqs, TauGrid(10e-9, 1e-9))
	if _, err := pl.Solve(SolveRequest{H: make(dsp.Vec, 3)}); err == nil {
		t.Error("dimension mismatch accepted")
	}
}

func TestInvertZeroMeasurement(t *testing.T) {
	freqs := wifi.Centers(wifi.Bands5GHz())
	pl, _ := NewPlan(freqs, TauGrid(10e-9, 1e-9))
	res, err := pl.Solve(SolveRequest{H: make(dsp.Vec, len(freqs))})
	if err != nil {
		t.Fatal(err)
	}
	if dsp.Norm2(res.Profile) != 0 {
		t.Errorf("zero input produced nonzero profile (norm %v)", dsp.Norm2(res.Profile))
	}
	if !res.Converged {
		t.Error("zero input should converge immediately")
	}
}

func TestResultResidualSmallOnExactData(t *testing.T) {
	freqs := wifi.Centers(wifi.USBands())
	taus := TauGrid(20e-9, 0.1e-9)
	pl, _ := NewPlan(freqs, taus)
	// Tap exactly on the grid: residual should drop well below the
	// signal norm.
	h := synthChannel(freqs, []float64{taus[50] * 1e9}, []float64{1})
	res, err := pl.Solve(SolveRequest{H: h, InvertOptions: InvertOptions{Alpha: 0.01, MaxIter: 5000}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Residual > 0.2*dsp.Norm2(h) {
		t.Errorf("residual %v vs signal %v", res.Residual, dsp.Norm2(h))
	}
}

func TestDominantPeaksCount(t *testing.T) {
	freqs := wifi.Centers(wifi.USBands())
	taus := TauGrid(40e-9, 0.1e-9)
	pl, _ := NewPlan(freqs, taus)
	h := synthChannel(freqs, []float64{5.2, 10, 16}, []float64{1, 0.7, 0.5})
	res, err := pl.Solve(SolveRequest{H: h, InvertOptions: InvertOptions{MaxIter: 4000}})
	if err != nil {
		t.Fatal(err)
	}
	n := len(dsp.FindPeaks(res.Taus, res.Magnitude, 0.2))
	if n < 3 || n > 6 {
		t.Errorf("dominant peaks = %d, want 3–6", n)
	}
}
