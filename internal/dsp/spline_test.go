package dsp

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSplineReproducesKnots(t *testing.T) {
	xs := []float64{-3, -1, 0, 2, 5}
	ys := []float64{4, 0, 1, -2, 3}
	sp, err := NewSpline(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	for i := range xs {
		if got := sp.At(xs[i]); !approx(got, ys[i], 1e-9) {
			t.Errorf("At(%v) = %v, want %v", xs[i], got, ys[i])
		}
	}
}

func TestSplineExactOnLine(t *testing.T) {
	// A natural cubic spline through collinear points is the line itself.
	xs := []float64{0, 1, 2, 3, 4}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = 2*x - 7
	}
	sp, err := NewSpline(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	for x := -1.0; x <= 5.0; x += 0.25 {
		if got, want := sp.At(x), 2*x-7; !approx(got, want, 1e-9) {
			t.Errorf("At(%v) = %v, want %v", x, got, want)
		}
	}
}

func TestSplineTwoKnotsIsLinear(t *testing.T) {
	sp, err := NewSpline([]float64{0, 2}, []float64{1, 5})
	if err != nil {
		t.Fatal(err)
	}
	if got := sp.At(1); !approx(got, 3, 1e-12) {
		t.Errorf("midpoint = %v, want 3", got)
	}
	if got := sp.At(3); !approx(got, 7, 1e-12) {
		t.Errorf("extrapolation = %v, want 7", got)
	}
}

func TestSplineSmoothCurveAccuracy(t *testing.T) {
	// Spline through samples of a smooth function should interpolate well
	// between knots. This mirrors the zero-subcarrier use: phase is smooth
	// in frequency across 30 subcarriers.
	xs := make([]float64, 31)
	ys := make([]float64, 31)
	for i := range xs {
		xs[i] = float64(i-15) / 15
		ys[i] = math.Sin(2 * xs[i])
	}
	sp, err := NewSpline(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	// Natural boundary conditions make the edge intervals slightly less
	// accurate, so allow a looser tolerance there via the interior range.
	for x := -0.8; x <= 0.8; x += 0.05 {
		if got, want := sp.At(x), math.Sin(2*x); !approx(got, want, 1e-3) {
			t.Errorf("At(%v) = %v, want %v", x, got, want)
		}
	}
}

func TestSplineZeroSubcarrierScenario(t *testing.T) {
	// Emulate the §5 use case: subcarriers ±1..±15 with a linear phase
	// ramp (single path); interpolating at 0 must recover the ramp value.
	var xs, ys []float64
	slope, intercept := -0.31, 0.8
	for k := -15; k <= 15; k++ {
		if k == 0 {
			continue
		}
		xs = append(xs, float64(k))
		ys = append(ys, slope*float64(k)+intercept)
	}
	got, got2, err := InterpolatePairAt(xs, ys, ys, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !approx(got, intercept, 1e-9) || got2 != got {
		t.Errorf("zero-subcarrier = %v, %v, want %v twice", got, got2, intercept)
	}
}

func TestSplineErrors(t *testing.T) {
	if _, err := NewSpline([]float64{1}, []float64{1}); !errors.Is(err, ErrSplineInput) {
		t.Errorf("short input: err = %v", err)
	}
	if _, err := NewSpline([]float64{1, 1}, []float64{1, 2}); !errors.Is(err, ErrSplineInput) {
		t.Errorf("duplicate knots: err = %v", err)
	}
	if _, err := NewSpline([]float64{2, 1}, []float64{1, 2}); !errors.Is(err, ErrSplineInput) {
		t.Errorf("unsorted knots: err = %v", err)
	}
	if _, err := NewSpline([]float64{1, 2}, []float64{1}); !errors.Is(err, ErrSplineInput) {
		t.Errorf("length mismatch: err = %v", err)
	}
	if _, _, err := InterpolatePairAt([]float64{2, 1}, []float64{1, 2}, []float64{1, 2}, 0, nil); !errors.Is(err, ErrSplineInput) {
		t.Errorf("pair, unsorted knots: err = %v", err)
	}
	if _, _, err := InterpolatePairAt([]float64{1, 2}, []float64{1, 2}, []float64{1}, 0, nil); !errors.Is(err, ErrSplineInput) {
		t.Errorf("pair, second length mismatch: err = %v", err)
	}
}

func TestLinearAt(t *testing.T) {
	xs := []float64{0, 1, 3}
	ys := []float64{0, 2, 2}
	got, err := LinearAt(xs, ys, 0.5)
	if err != nil || !approx(got, 1, 1e-12) {
		t.Errorf("LinearAt(0.5) = %v, %v", got, err)
	}
	got, err = LinearAt(xs, ys, 2)
	if err != nil || !approx(got, 2, 1e-12) {
		t.Errorf("LinearAt(2) = %v, %v", got, err)
	}
	// Extrapolation uses the boundary segment.
	got, err = LinearAt(xs, ys, -1)
	if err != nil || !approx(got, -2, 1e-12) {
		t.Errorf("LinearAt(-1) = %v, %v", got, err)
	}
	if _, err := LinearAt([]float64{1}, []float64{1}, 0); err == nil {
		t.Error("LinearAt accepted single knot")
	}
}

func TestSplineInterpolationBetweenKnotsProperty(t *testing.T) {
	// Property: for a quadratic, the spline stays close to the function
	// between interior knots (cubic splines reproduce smooth functions to
	// high order with dense knots).
	f := func(a, b float64) bool {
		a = math.Mod(a, 3)
		b = math.Mod(b, 3)
		if math.IsNaN(a) || math.IsNaN(b) {
			return true
		}
		xs := make([]float64, 21)
		ys := make([]float64, 21)
		for i := range xs {
			xs[i] = float64(i)
			ys[i] = a*xs[i]*xs[i] + b*xs[i]
		}
		sp, err := NewSpline(xs, ys)
		if err != nil {
			return false
		}
		for x := 5.0; x <= 15; x += 0.5 {
			want := a*x*x + b*x
			if math.Abs(sp.At(x)-want) > 1e-2*(1+math.Abs(want)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestInterpolatePairAtMatchesSpline pins InterpolatePairAt, which fits
// two value vectors on one pivot chain and back-substitutes only down to
// the query's interval, to two full fits bit for bit: random knot sets
// of 2, 3, 30 (the CSI subcarrier count) and up to 40 knots (spread
// scales, signed values, exact zeros), queried at every knot, between
// knots, just outside and far outside the knot range, and at 0, with a
// fresh and a reused scratch buffer.
func TestInterpolatePairAtMatchesSpline(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	buf := make([]float64, 3*40)
	values := func(n int) []float64 {
		ys := make([]float64, n)
		for i := range ys {
			if rng.Intn(8) != 0 {
				ys[i] = math.Ldexp(rng.NormFloat64(), rng.Intn(20)-10)
			}
		}
		return ys
	}
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	for trial := 0; trial < 400; trial++ {
		n := []int{2, 3, 30, 2 + rng.Intn(39)}[trial%4]
		xs := make([]float64, n)
		x := math.Ldexp(rng.NormFloat64(), rng.Intn(10)-5)
		for i := range xs {
			x += math.Ldexp(0.1+rng.Float64(), rng.Intn(6)-3)
			xs[i] = x
		}
		ya, yb := values(n), values(n)
		spA, err := NewSpline(xs, ya)
		if err != nil {
			t.Fatal(err)
		}
		spB, err := NewSpline(xs, yb)
		if err != nil {
			t.Fatal(err)
		}
		span := xs[n-1] - xs[0]
		queries := []float64{0, xs[0] - span, xs[0] - 1e-9, xs[n-1] + 1e-9, xs[n-1] + 2*span}
		for i := range xs {
			queries = append(queries, xs[i])
			if i+1 < n {
				queries = append(queries, xs[i]+rng.Float64()*(xs[i+1]-xs[i]))
			}
		}
		for _, q := range queries {
			wantA, wantB := spA.At(q), spB.At(q)
			for _, b := range [][]float64{nil, buf} {
				gotA, gotB, err := InterpolatePairAt(xs, ya, yb, q, b)
				if err != nil {
					t.Fatal(err)
				}
				if !same(gotA, wantA) || !same(gotB, wantB) {
					t.Fatalf("n=%d x=%v: InterpolatePairAt = %v, %v; Spline.At = %v, %v (knots %v)", n, q, gotA, gotB, wantA, wantB, xs)
				}
			}
		}
	}
}
