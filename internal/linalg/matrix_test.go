package linalg

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

func TestSolveReal(t *testing.T) {
	// 2x + y = 5; x - y = 1  →  x = 2, y = 1
	a := []float64{2, 1, 1, -1}
	b := []float64{5, 1}
	x, err := SolveReal(a, 2, b)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-2) > 1e-12 || math.Abs(x[1]-1) > 1e-12 {
		t.Errorf("SolveReal = %v", x)
	}
}

func TestSolveRealNeedsPivoting(t *testing.T) {
	// Zero in the top-left corner forces a row swap.
	a := []float64{0, 1, 1, 0}
	b := []float64{3, 4}
	x, err := SolveReal(a, 2, b)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-4) > 1e-12 || math.Abs(x[1]-3) > 1e-12 {
		t.Errorf("SolveReal = %v", x)
	}
}

func TestSolveRealSingular(t *testing.T) {
	a := []float64{1, 2, 2, 4}
	b := []float64{1, 2}
	if _, err := SolveReal(a, 2, b); !errors.Is(err, ErrSingular) {
		t.Errorf("err = %v, want ErrSingular", err)
	}
}

func TestSolveRealDimMismatch(t *testing.T) {
	if _, err := SolveReal([]float64{1}, 2, []float64{1, 2}); err == nil {
		t.Error("expected dimension error")
	}
}

func TestSolveRealRandomRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 30; trial++ {
		n := 1 + rng.Intn(6)
		a := make([]float64, n*n)
		for i := range a {
			a[i] = rng.NormFloat64()
		}
		want := make([]float64, n)
		for i := range want {
			want[i] = rng.NormFloat64()
		}
		b := make([]float64, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				b[i] += a[i*n+j] * want[j]
			}
		}
		got, err := SolveReal(append([]float64(nil), a...), n, b)
		if errors.Is(err, ErrSingular) {
			continue // random matrix can be near-singular
		}
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-6 {
				t.Fatalf("trial %d: x[%d] = %v, want %v", trial, i, got[i], want[i])
			}
		}
	}
}
