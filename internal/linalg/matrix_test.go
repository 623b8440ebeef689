package linalg

import (
	"errors"
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"chronos/internal/dsp"
)

func TestMulVec(t *testing.T) {
	m := NewCMatrix(2, 3)
	// [1 2 3; 4 5 6]
	for i := 0; i < 2; i++ {
		for j := 0; j < 3; j++ {
			m.Set(i, j, complex(float64(i*3+j+1), 0))
		}
	}
	x := dsp.Vec{1, 1i, -1}
	dst := make(dsp.Vec, 2)
	m.MulVec(dst, x)
	if dst[0] != complex(-2, 2) || dst[1] != complex(-2, 5) {
		t.Errorf("MulVec = %v", dst)
	}
}

func TestMulVecHAdjointProperty(t *testing.T) {
	// <Mx, y> == <x, Mᴴy> for random matrices.
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		rows, cols := 3+rng.Intn(5), 2+rng.Intn(6)
		m := NewCMatrix(rows, cols)
		for i := range m.Data {
			m.Data[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		x := make(dsp.Vec, cols)
		y := make(dsp.Vec, rows)
		for i := range x {
			x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		for i := range y {
			y[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		mx := m.MulVec(make(dsp.Vec, rows), x)
		mhy := m.MulVecH(make(dsp.Vec, cols), y)
		lhs := inner(y, mx) // <y, Mx>
		rhs := inner(mhy, x)
		if cmplx.Abs(lhs-rhs) > 1e-9*(1+cmplx.Abs(lhs)) {
			t.Fatalf("adjoint mismatch: %v vs %v", lhs, rhs)
		}
	}
}

// inner returns the inner product conj(a)·b.
func inner(a, b dsp.Vec) complex128 {
	var sum complex128
	for i := range a {
		sum += cmplx.Conj(a[i]) * b[i]
	}
	return sum
}

func TestMulVecPanicsOnBadDims(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	m := NewCMatrix(2, 2)
	m.MulVec(make(dsp.Vec, 2), make(dsp.Vec, 3))
}

func TestSpectralNormDiagonal(t *testing.T) {
	m := NewCMatrix(3, 3)
	m.Set(0, 0, 2)
	m.Set(1, 1, -7)
	m.Set(2, 2, 1i)
	rng := rand.New(rand.NewSource(2))
	if got := m.SpectralNorm(rng, 50); math.Abs(got-7) > 1e-6 {
		t.Errorf("SpectralNorm = %v, want 7", got)
	}
}

func TestSpectralNormUpperBoundsColumns(t *testing.T) {
	// ‖M‖₂ ≥ ‖M e_j‖₂ for every unit basis vector.
	rng := rand.New(rand.NewSource(3))
	m := NewCMatrix(4, 3)
	for i := range m.Data {
		m.Data[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	norm := m.SpectralNorm(rand.New(rand.NewSource(4)), 100)
	for j := 0; j < 3; j++ {
		e := make(dsp.Vec, 3)
		e[j] = 1
		col := m.MulVec(make(dsp.Vec, 4), e)
		if c := dsp.Norm2(col); c > norm+1e-6 {
			t.Errorf("column %d norm %v exceeds spectral norm %v", j, c, norm)
		}
	}
}

func TestSpectralNormEmpty(t *testing.T) {
	m := NewCMatrix(0, 0)
	if got := m.SpectralNorm(rand.New(rand.NewSource(1)), 10); got != 0 {
		t.Errorf("empty SpectralNorm = %v", got)
	}
}

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
