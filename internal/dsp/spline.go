package dsp

import (
	"errors"
	"fmt"
	"sort"
)

// Spline is a natural cubic spline through a set of (x, y) knots. Chronos
// uses it to interpolate the measured channel phase and magnitude across
// OFDM subcarriers in order to estimate the channel at the (unmeasurable)
// zero subcarrier, which is free of packet-detection delay (§5 of the
// paper).
type Spline struct {
	xs []float64
	ys []float64
	// Per-interval polynomial coefficients:
	// s(x) = a[i] + b[i]·dx + c[i]·dx² + d[i]·dx³, dx = x - xs[i].
	b, c, d []float64
}

// ErrSplineInput reports invalid knot data.
var ErrSplineInput = errors.New("dsp: spline needs at least two strictly increasing knots")

// NewSpline builds a natural cubic spline through the given knots. The xs
// must be strictly increasing and len(xs) == len(ys) >= 2. With exactly two
// knots the spline degenerates to a line.
func NewSpline(xs, ys []float64) (*Spline, error) {
	if err := checkKnots(xs, ys); err != nil {
		return nil, err
	}
	n := len(xs)
	s := &Spline{
		xs: append([]float64(nil), xs...),
		ys: append([]float64(nil), ys...),
		b:  make([]float64, n),
		c:  make([]float64, n),
		d:  make([]float64, n),
	}
	s.fit(make([]float64, n), make([]float64, n))
	return s, nil
}

func checkKnots(xs, ys []float64) error {
	n := len(xs)
	if n < 2 || len(ys) != n {
		return fmt.Errorf("%w (got %d xs, %d ys)", ErrSplineInput, len(xs), len(ys))
	}
	if !sort.Float64sAreSorted(xs) {
		return fmt.Errorf("%w: xs not sorted", ErrSplineInput)
	}
	for i := 1; i < n; i++ {
		if xs[i] == xs[i-1] {
			return fmt.Errorf("%w: duplicate knot x=%g", ErrSplineInput, xs[i])
		}
	}
	return nil
}

// fit computes the per-interval coefficients from the knots into s.b,
// s.c and s.d, overwriting whatever they held, with mu and z (one entry
// per knot) as the tridiagonal solver's scratch.
func (s *Spline) fit(mu, z []float64) {
	xs, ys := s.xs, s.ys
	n := len(xs)
	s.b[n-1], s.c[n-1], s.d[n-1] = 0, 0, 0
	if n == 2 {
		s.b[0] = (ys[1] - ys[0]) / (xs[1] - xs[0])
		s.b[1] = s.b[0]
		s.c[0], s.d[0] = 0, 0
		return
	}

	forwardSweep(xs, ys, mu, z)
	for j := n - 2; j >= 0; j-- {
		h := xs[j+1] - xs[j]
		s.c[j] = z[j] - float64(mu[j]*s.c[j+1])
		s.b[j] = (ys[j+1]-ys[j])/h - h*(s.c[j+1]+2*s.c[j])/3
		s.d[j] = (s.c[j+1] - s.c[j]) / (3 * h)
	}
}

// forwardSweep runs the forward elimination of the tridiagonal system
// for a natural spline's second derivatives (natural boundary:
// c[0] = c[n-1] = 0; Thomas algorithm) over n ≥ 3 knots, into mu and z,
// with the interval widths h[i] = xs[i+1] − xs[i] formed where they are
// used. The back-substitution is c[j] = z[j] − mu[j]·c[j+1].
func forwardSweep(xs, ys, mu, z []float64) {
	n := len(xs)
	mu[0], z[0] = 0, 0
	for i := 1; i < n-1; i++ {
		hPrev, h := xs[i]-xs[i-1], xs[i+1]-xs[i]
		alpha := 3*(ys[i+1]-ys[i])/h - 3*(ys[i]-ys[i-1])/hPrev
		l := float64(2*(xs[i+1]-xs[i-1])) - float64(hPrev*mu[i-1])
		mu[i] = h / l
		z[i] = (alpha - float64(hPrev*z[i-1])) / l
	}
}

// At evaluates the spline at x. Outside the knot range the boundary cubic
// is extrapolated, which is exactly what the zero-subcarrier estimate
// needs when subcarrier 0 sits between the measured ±1 indices (it never
// does for 802.11n, but guard bands can push the query to the edge).
func (s *Spline) At(x float64) float64 {
	i := interval(s.xs, x)
	return evalCubic(x-s.xs[i], s.ys[i], s.b[i], s.c[i], s.d[i])
}

// interval returns the index i of the knot interval [xs[i], xs[i+1]]
// whose cubic At evaluates at x: the one containing x, or the boundary
// interval outside the knot range.
func interval(xs []float64, x float64) int {
	n := len(xs)
	// Binary search for the interval containing x.
	i := sort.SearchFloat64s(xs, x)
	switch {
	case i <= 0:
		i = 0
	case i >= n:
		i = n - 2
	default:
		i--
	}
	if i > n-2 {
		i = n - 2
	}
	return i
}

// evalCubic evaluates one interval's cubic a + b·dx + c·dx² + d·dx³ in
// Horner form.
func evalCubic(dx, a, b, c, d float64) float64 {
	return a + float64(dx*(b+float64(dx*(c+float64(dx*d)))))
}

// InterpolateAt fits a natural cubic spline to (xs, ys) and evaluates it
// at x, returning NewSpline(xs, ys).At(x) bit for bit. It runs the fit's
// forward sweep in full, but back-substitutes the second derivatives c
// only down to x's interval and forms b and d for that interval alone,
// the only coefficients At reads, each value by the same operations in
// the same order as the full fit. When buf holds at least 3·len(xs)
// values the fit works in it instead of allocating, so a caller
// interpolating many measurements can reuse one buffer.
func InterpolateAt(xs, ys []float64, x float64, buf []float64) (float64, error) {
	if err := checkKnots(xs, ys); err != nil {
		return 0, err
	}
	n := len(xs)
	if len(buf) < 3*n {
		buf = make([]float64, 3*n)
	}
	i := interval(xs, x)
	if n == 2 {
		return evalCubic(x-xs[0], ys[0], (ys[1]-ys[0])/(xs[1]-xs[0]), 0, 0), nil
	}
	c, mu, z := buf[:n], buf[n:2*n], buf[2*n:3*n]
	forwardSweep(xs, ys, mu, z)
	c[n-1] = 0
	for j := n - 2; j >= i; j-- {
		c[j] = z[j] - float64(mu[j]*c[j+1])
	}
	h := xs[i+1] - xs[i]
	b := (ys[i+1]-ys[i])/h - h*(c[i+1]+2*c[i])/3
	d := (c[i+1] - c[i]) / (3 * h)
	return evalCubic(x-xs[i], ys[i], b, c[i], d), nil
}

// LinearAt performs straight-line interpolation of (xs, ys) at x, used as
// the ablation baseline for the spline (the "linear zero-subcarrier" row
// of chronos-bench -ablate delay).
// xs must be strictly increasing with at least two points.
func LinearAt(xs, ys []float64, x float64) (float64, error) {
	n := len(xs)
	if n < 2 || len(ys) != n {
		return 0, fmt.Errorf("%w (got %d xs, %d ys)", ErrSplineInput, len(xs), len(ys))
	}
	i := sort.SearchFloat64s(xs, x)
	switch {
	case i <= 0:
		i = 1
	case i >= n:
		i = n - 1
	}
	x0, x1 := xs[i-1], xs[i]
	y0, y1 := ys[i-1], ys[i]
	if x1 == x0 {
		return 0, fmt.Errorf("%w: duplicate knot x=%g", ErrSplineInput, x0)
	}
	t := (x - x0) / (x1 - x0)
	return y0 + float64(t*(y1-y0)), nil
}
