// Package linalg implements the small dense linear-algebra kernel Chronos
// needs: complex matrix–vector products for the non-uniform DFT, power
// iteration for the ISTA step size, and a real linear solve and
// Gauss–Newton for trilateration.
package linalg

import (
	"errors"
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"

	"chronos/internal/dsp"
)

// CMatrix is a dense row-major complex matrix.
type CMatrix struct {
	Rows, Cols int
	Data       []complex128 // len Rows*Cols, row-major
}

// NewCMatrix allocates a zeroed Rows×Cols complex matrix.
func NewCMatrix(rows, cols int) *CMatrix {
	return &CMatrix{Rows: rows, Cols: cols, Data: make([]complex128, rows*cols)}
}

// At returns the element at (i, j).
func (m *CMatrix) At(i, j int) complex128 { return m.Data[i*m.Cols+j] }

// Set assigns the element at (i, j).
func (m *CMatrix) Set(i, j int, v complex128) { m.Data[i*m.Cols+j] = v }

// MulVec computes dst = M·x. dst must have length Rows and x length Cols.
func (m *CMatrix) MulVec(dst, x dsp.Vec) dsp.Vec {
	if len(x) != m.Cols || len(dst) != m.Rows {
		panic(fmt.Sprintf("linalg: MulVec dims %dx%d vs x=%d dst=%d", m.Rows, m.Cols, len(x), len(dst)))
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		var sum complex128
		for j, r := range row {
			sum += r * x[j]
		}
		dst[i] = sum
	}
	return dst
}

// MulVecH computes dst = Mᴴ·x (conjugate transpose times x). dst must have
// length Cols and x length Rows.
func (m *CMatrix) MulVecH(dst, x dsp.Vec) dsp.Vec {
	if len(x) != m.Rows || len(dst) != m.Cols {
		panic(fmt.Sprintf("linalg: MulVecH dims %dx%d vs x=%d dst=%d", m.Rows, m.Cols, len(x), len(dst)))
	}
	for j := range dst {
		dst[j] = 0
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		xi := x[i]
		for j, r := range row {
			dst[j] += cmplx.Conj(r) * xi
		}
	}
	return dst
}

// SpectralNorm estimates ‖M‖₂ (the largest singular value) by power
// iteration on MᴴM. iters around 30 gives plenty of accuracy for choosing
// the ISTA step size γ = 1/‖F‖₂². rng seeds the start vector so results
// are deterministic.
func (m *CMatrix) SpectralNorm(rng *rand.Rand, iters int) float64 {
	if m.Rows == 0 || m.Cols == 0 {
		return 0
	}
	v := make(dsp.Vec, m.Cols)
	for i := range v {
		v[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	tmp := make(dsp.Vec, m.Rows)
	for k := 0; k < iters; k++ {
		m.MulVec(tmp, v)
		m.MulVecH(v, tmp)
		n := dsp.Norm2(v)
		if n == 0 {
			return 0
		}
		dsp.Scale(v, complex(1/n, 0), v)
	}
	m.MulVec(tmp, v)
	return dsp.Norm2(tmp)
}

// ErrSingular reports a numerically singular system.
var ErrSingular = errors.New("linalg: singular matrix")

// SolveReal solves the real linear system A·x = b in place using Gaussian
// elimination with partial pivoting. A is row-major n×n, b has length n.
// A and b are clobbered; the solution is returned.
func SolveReal(a []float64, n int, b []float64) ([]float64, error) {
	if len(a) != n*n || len(b) != n {
		return nil, fmt.Errorf("linalg: SolveReal dims a=%d b=%d n=%d", len(a), len(b), n)
	}
	for col := 0; col < n; col++ {
		// Partial pivot.
		pivot := col
		maxAbs := math.Abs(a[col*n+col])
		for r := col + 1; r < n; r++ {
			if v := math.Abs(a[r*n+col]); v > maxAbs {
				maxAbs, pivot = v, r
			}
		}
		if maxAbs < 1e-14 {
			return nil, ErrSingular
		}
		if pivot != col {
			for j := 0; j < n; j++ {
				a[col*n+j], a[pivot*n+j] = a[pivot*n+j], a[col*n+j]
			}
			b[col], b[pivot] = b[pivot], b[col]
		}
		inv := 1 / a[col*n+col]
		for r := col + 1; r < n; r++ {
			f := a[r*n+col] * inv
			if f == 0 {
				continue
			}
			for j := col; j < n; j++ {
				a[r*n+j] -= f * a[col*n+j]
			}
			b[r] -= f * b[col]
		}
	}
	for r := n - 1; r >= 0; r-- {
		sum := b[r]
		for j := r + 1; j < n; j++ {
			sum -= a[r*n+j] * b[j]
		}
		b[r] = sum / a[r*n+r]
	}
	return b, nil
}
