// Package linalg implements the small dense linear algebra that
// trilateration needs: a real linear solve and Gauss–Newton least
// squares.
package linalg

import (
	"errors"
	"fmt"
	"math"
)

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
