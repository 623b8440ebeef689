package linalg

import (
	"errors"
	"math"
)

// Residual evaluates a vector-valued residual r(x) and its Jacobian J(x)
// at point x. r has m components, x has n, and jac is row-major m×n.
// Implementations fill r and jac in place so the solver can reuse buffers.
type Residual interface {
	Dims() (m, n int)
	Eval(x []float64, r []float64, jac []float64)
}

// GNOptions configures Gauss–Newton iteration.
type GNOptions struct {
	MaxIter   int     // maximum iterations (default 50)
	StepLimit float64 // optional per-iteration step clamp; 0 disables
}

func (o GNOptions) withDefaults() GNOptions {
	if o.MaxIter == 0 {
		o.MaxIter = 50
	}
	return o
}

// The iteration stops when the step norm falls below gnTol, and adds
// the Levenberg damping gnDamping to the diagonal of JᵀJ.
const (
	gnTol     float64 = 1e-9
	gnDamping float64 = 1e-9
)

// ErrNoConverge reports that Gauss–Newton hit MaxIter without meeting
// gnTol.
var ErrNoConverge = errors.New("linalg: gauss-newton did not converge")

// maxHalvings bounds the step backtracking of one Gauss–Newton
// iteration: 2⁻³⁰ of a step is far below gnTol.
const maxHalvings = 30

// GaussNewton minimizes ‖r(x)‖₂² starting from x0 and returns the refined
// solution together with the final residual norm. Each step is halved
// until ‖r‖ stops growing, so the iteration descends even where r has a
// kink (a distance residual at its anchor) that a full step would jump
// back and forth across. The returned error is ErrNoConverge when the
// iteration cap is hit (the last iterate is still returned) or
// ErrSingular when the normal equations collapse.
func GaussNewton(res Residual, x0 []float64, opts GNOptions) ([]float64, float64, error) {
	opts = opts.withDefaults()
	m, n := res.Dims()
	x := append([]float64(nil), x0...)
	if len(x) != n {
		return nil, 0, errors.New("linalg: x0 has wrong dimension")
	}
	xt := make([]float64, n)
	r := make([]float64, m)
	jac := make([]float64, m*n)
	jtj := make([]float64, n*n)
	jtr := make([]float64, n)

	res.Eval(x, r, jac)
	lastNorm := norm2(r)
	for iter := 0; iter < opts.MaxIter; iter++ {
		// Normal equations (JᵀJ + λI)·δ = −Jᵀr.
		for i := range jtj {
			jtj[i] = 0
		}
		for i := range jtr {
			jtr[i] = 0
		}
		for i := 0; i < m; i++ {
			row := jac[i*n : (i+1)*n]
			ri := r[i]
			for p := 0; p < n; p++ {
				jtr[p] -= row[p] * ri
				for q := p; q < n; q++ {
					jtj[p*n+q] += row[p] * row[q]
				}
			}
		}
		for p := 0; p < n; p++ {
			jtj[p*n+p] += gnDamping
			for q := 0; q < p; q++ {
				jtj[p*n+q] = jtj[q*n+p]
			}
		}
		delta, err := SolveReal(jtj, n, jtr)
		if err != nil {
			return x, lastNorm, err
		}
		stepNorm := norm2(delta)
		if opts.StepLimit > 0 && stepNorm > opts.StepLimit {
			scale := opts.StepLimit / stepNorm
			for i := range delta {
				delta[i] *= scale
			}
			stepNorm = opts.StepLimit
		}
		// The trial evaluation leaves r and jac at the accepted point,
		// ready for the next iteration's normal equations.
		for halvings := 0; ; halvings++ {
			for i := range x {
				xt[i] = x[i] + delta[i]
			}
			res.Eval(xt, r, jac)
			norm := norm2(r)
			if norm <= lastNorm || halvings == maxHalvings {
				lastNorm = norm
				break
			}
			for i := range delta {
				delta[i] *= 0.5
			}
			stepNorm *= 0.5
		}
		x, xt = xt, x
		if stepNorm < gnTol {
			return x, lastNorm, nil
		}
	}
	return x, lastNorm, ErrNoConverge
}

func norm2(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x * x
	}
	return math.Sqrt(s)
}
