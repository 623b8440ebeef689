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
	s.fit()
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
// s.c and s.d. It runs the forward elimination of the tridiagonal system
// for a natural spline's second derivatives (natural boundary:
// c[0] = c[n-1] = 0; Thomas algorithm) into mu and z, with the interval
// widths h[i] = xs[i+1] − xs[i] formed where they are used, then the
// back-substitution c[j] = z[j] − mu[j]·c[j+1].
func (s *Spline) fit() {
	xs, ys := s.xs, s.ys
	n := len(xs)
	if n == 2 {
		s.b[0] = (ys[1] - ys[0]) / (xs[1] - xs[0])
		s.b[1] = s.b[0]
		return
	}

	mu, z := make([]float64, n), make([]float64, n)
	for i := 1; i < n-1; i++ {
		hPrev, h := xs[i]-xs[i-1], xs[i+1]-xs[i]
		alpha := 3*(ys[i+1]-ys[i])/h - 3*(ys[i]-ys[i-1])/hPrev
		l := float64(2*(xs[i+1]-xs[i-1])) - float64(hPrev*mu[i-1])
		mu[i] = h / l
		z[i] = (alpha - float64(hPrev*z[i-1])) / l
	}
	for j := n - 2; j >= 0; j-- {
		h := xs[j+1] - xs[j]
		s.c[j] = z[j] - float64(mu[j]*s.c[j+1])
		s.b[j] = (ys[j+1]-ys[j])/h - h*(s.c[j+1]+2*s.c[j])/3
		s.d[j] = (s.c[j+1] - s.c[j]) / (3 * h)
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

// InterpolatePairAt fits natural cubic splines to (xs, ya) and (xs, yb)
// and evaluates both at x, returning NewSpline(xs, ya).At(x) and
// NewSpline(xs, yb).At(x) bit for bit. The fits share their knots, so
// the forward sweep's pivot chain (l and mu, which depend on xs alone)
// runs once, with the two value chains beside it. The second derivatives
// c are back-substituted only down to x's interval, and b and d are
// formed for that interval alone, the only coefficients At reads; each
// value comes from the same operations in the same order as Spline's fit.
// Each chain's c overwrite its z in place during the back-substitution,
// which reads z[j] only to form c[j]. When buf holds at least 3·len(xs)
// values the fits work in it instead of allocating.
func InterpolatePairAt(xs, ya, yb []float64, x float64, buf []float64) (a, b float64, err error) {
	if err := checkKnots(xs, ya); err != nil {
		return 0, 0, err
	}
	n := len(xs)
	if len(yb) != n {
		return 0, 0, fmt.Errorf("%w (got %d xs, %d ys)", ErrSplineInput, n, len(yb))
	}
	i := interval(xs, x)
	if n == 2 {
		h, dx := xs[1]-xs[0], x-xs[0]
		return evalCubic(dx, ya[0], (ya[1]-ya[0])/h, 0, 0), evalCubic(dx, yb[0], (yb[1]-yb[0])/h, 0, 0), nil
	}
	if len(buf) < 3*n {
		buf = make([]float64, 3*n)
	}
	mu, za, zb := buf[:n], buf[n:2*n], buf[2*n:3*n]
	mu[0], za[0], zb[0] = 0, 0, 0
	for k := 1; k < n-1; k++ {
		hPrev, h := xs[k]-xs[k-1], xs[k+1]-xs[k]
		l := float64(2*(xs[k+1]-xs[k-1])) - float64(hPrev*mu[k-1])
		mu[k] = h / l
		alphaA := 3*(ya[k+1]-ya[k])/h - 3*(ya[k]-ya[k-1])/hPrev
		alphaB := 3*(yb[k+1]-yb[k])/h - 3*(yb[k]-yb[k-1])/hPrev
		za[k] = (alphaA - float64(hPrev*za[k-1])) / l
		zb[k] = (alphaB - float64(hPrev*zb[k-1])) / l
	}
	za[n-1], zb[n-1] = 0, 0
	for j := n - 2; j >= i; j-- {
		za[j] -= float64(mu[j] * za[j+1])
		zb[j] -= float64(mu[j] * zb[j+1])
	}
	h, dx := xs[i+1]-xs[i], x-xs[i]
	a = evalCubic(dx, ya[i], (ya[i+1]-ya[i])/h-h*(za[i+1]+2*za[i])/3, za[i], (za[i+1]-za[i])/(3*h))
	b = evalCubic(dx, yb[i], (yb[i+1]-yb[i])/h-h*(zb[i+1]+2*zb[i])/3, zb[i], (zb[i+1]-zb[i])/(3*h))
	return a, b, nil
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
