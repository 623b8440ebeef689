// Package geo implements the geometry of §8: converting per-antenna
// distances into a device position by intersecting circles, with
// least-squares refinement, geometric outlier rejection, and the
// two-solution disambiguation strategies the paper describes.
package geo

import (
	"errors"
	"fmt"
	"math"

	"chronos/internal/linalg"
)

// Point is a 2D position in meters.
type Point struct{ X, Y float64 }

// Dist returns the Euclidean distance to q.
func (p Point) Dist(q Point) float64 { return math.Hypot(p.X-q.X, p.Y-q.Y) }

// Add returns p+q.
func (p Point) Add(q Point) Point { return Point{p.X + q.X, p.Y + q.Y} }

// Sub returns p−q.
func (p Point) Sub(q Point) Point { return Point{p.X - q.X, p.Y - q.Y} }

// Scale returns s·p.
func (p Point) Scale(s float64) Point { return Point{s * p.X, s * p.Y} }

// Norm returns the Euclidean norm of p as a vector.
func (p Point) Norm() float64 { return math.Hypot(p.X, p.Y) }

// String implements fmt.Stringer.
func (p Point) String() string { return fmt.Sprintf("(%.3f, %.3f)", p.X, p.Y) }

// Circle is a distance constraint: the target lies Radius meters from
// Center.
type Circle struct {
	Center Point
	Radius float64
}

// IntersectCircles returns the (up to two) intersection points of two
// circles. ok is false when the circles are disjoint, concentric, or one
// contains the other without touching.
func IntersectCircles(a, b Circle) (p1, p2 Point, ok bool) {
	d := a.Center.Dist(b.Center)
	if d == 0 || d > a.Radius+b.Radius || d < math.Abs(a.Radius-b.Radius) {
		return Point{}, Point{}, false
	}
	// Standard two-circle intersection.
	x := (d*d - b.Radius*b.Radius + a.Radius*a.Radius) / (2 * d)
	h2 := a.Radius*a.Radius - x*x
	if h2 < 0 {
		h2 = 0
	}
	h := math.Sqrt(h2)
	ex := b.Center.Sub(a.Center).Scale(1 / d)
	ey := Point{-ex.Y, ex.X}
	mid := a.Center.Add(ex.Scale(x))
	return mid.Add(ey.Scale(h)), mid.Sub(ey.Scale(h)), true
}

// ErrTooFewCircles reports fewer than two distance constraints.
var ErrTooFewCircles = errors.New("geo: need at least two circles")

// ErrNoIntersection reports that no consistent position exists.
var ErrNoIntersection = errors.New("geo: circles do not intersect")

// circlesResidual adapts the trilateration problem to Gauss–Newton.
type circlesResidual struct{ circles []Circle }

func (c *circlesResidual) Dims() (int, int) { return len(c.circles), 2 }

func (c *circlesResidual) Eval(x, r, jac []float64) {
	for i, ci := range c.circles {
		dx, dy := x[0]-ci.Center.X, x[1]-ci.Center.Y
		d := math.Hypot(dx, dy)
		r[i] = d - ci.Radius
		if d < 1e-9 {
			jac[i*2], jac[i*2+1] = 0, 0
			continue
		}
		jac[i*2], jac[i*2+1] = dx/d, dy/d
	}
}

// Trilaterate finds the point minimizing the squared distance residuals to
// all circles via multi-start Gauss–Newton (§8: "well-known least-squares
// optimizations"). With exactly two circles the two intersection points
// are both returned via the ambiguous pair; with three or more the unique
// least-squares point is returned in best and ambiguous is nil.
func Trilaterate(circles []Circle) (best Point, ambiguous []Point, err error) {
	if len(circles) < 2 {
		return Point{}, nil, ErrTooFewCircles
	}

	// Seed points: pairwise circle intersections, plus the centroid.
	var seeds []Point
	for i := 0; i < len(circles); i++ {
		for j := i + 1; j < len(circles); j++ {
			if p1, p2, ok := IntersectCircles(circles[i], circles[j]); ok {
				seeds = append(seeds, p1, p2)
			}
		}
	}
	var centroid Point
	for _, c := range circles {
		centroid = centroid.Add(c.Center)
	}
	centroid = centroid.Scale(1 / float64(len(circles)))
	seeds = append(seeds, centroid, centroid.Add(Point{0.5, 0.5}))

	// Physical bound: the target cannot be farther from the anchor
	// centroid than the largest measured radius plus the array span
	// (with slack). Near-tangent circles otherwise send Gauss–Newton
	// kilometers down the baseline.
	maxR := 0.0
	for _, c := range circles {
		if c.Radius > maxR {
			maxR = c.Radius
		}
	}
	bound := 1.5*maxR + 2

	res := &circlesResidual{circles: circles}
	type sol struct {
		p    Point
		norm float64
	}
	var sols []sol
	for _, s := range seeds {
		x, norm, gnErr := linalg.GaussNewton(res, []float64{s.X, s.Y},
			linalg.GNOptions{MaxIter: 80, StepLimit: maxR/4 + 0.5})
		if gnErr != nil && !errors.Is(gnErr, linalg.ErrNoConverge) {
			continue
		}
		p := Point{x[0], x[1]}
		if p.Sub(centroid).Norm() > bound {
			continue
		}
		sols = append(sols, sol{p, norm})
	}
	if len(sols) == 0 {
		// Every refined solution diverged; fall back to the best raw
		// seed inside the bound.
		best, bestScore := Point{}, math.Inf(1)
		found := false
		for _, s := range seeds {
			if s.Sub(centroid).Norm() > bound {
				continue
			}
			var score float64
			for _, c := range circles {
				r := s.Dist(c.Center) - c.Radius
				score += r * r
			}
			if score < bestScore {
				best, bestScore, found = s, score, true
			}
		}
		if !found {
			return Point{}, nil, ErrNoIntersection
		}
		sols = append(sols, sol{best, math.Sqrt(bestScore)})
	}

	bestSol := sols[0]
	for _, s := range sols[1:] {
		if s.norm < bestSol.norm {
			bestSol = s
		}
	}

	if len(circles) == 2 {
		// Report both near-optimal minima as the ambiguous pair.
		var distinct []Point
		for _, s := range sols {
			if s.norm > bestSol.norm+1e-6 {
				continue
			}
			dup := false
			for _, p := range distinct {
				if p.Dist(s.p) < 1e-3 {
					dup = true
					break
				}
			}
			if !dup {
				distinct = append(distinct, s.p)
			}
		}
		return bestSol.p, distinct, nil
	}
	return bestSol.p, nil, nil
}

// Array is a rigid antenna array: the known relative positions of a
// device's antennas (§8, §10 antenna-separation trade-off).
type Array struct {
	Antennas []Point
}

// LinearArray builds n antennas spaced sep meters apart along the x-axis,
// centered on the origin — the laptop (30 cm mean) and AP-style (100 cm)
// geometries of §12.2.
func LinearArray(n int, sep float64) Array {
	pts := make([]Point, n)
	mid := float64(n-1) / 2
	for i := range pts {
		pts[i] = Point{(float64(i) - mid) * sep, 0}
	}
	return Array{Antennas: pts}
}

// TriangleArray builds three antennas at the vertices of an equilateral
// triangle with the given side length, centered on the origin. Unlike a
// collinear array, a triangle breaks the mirror ambiguity of §8: three
// non-collinear circles intersect at a unique point. Real laptop antennas
// (spread around a screen bezel) are closer to this geometry than to a
// perfect line.
func TriangleArray(side float64) Array {
	r := side / math.Sqrt(3) // circumradius
	return Array{Antennas: []Point{
		{X: 0, Y: r},
		{X: -side / 2, Y: -r / 2},
		{X: side / 2, Y: -r / 2},
	}}
}

// Span returns the largest inter-antenna distance.
func (a Array) Span() float64 {
	var m float64
	for i := range a.Antennas {
		for j := i + 1; j < len(a.Antennas); j++ {
			if d := a.Antennas[i].Dist(a.Antennas[j]); d > m {
				m = d
			}
		}
	}
	return m
}

// At returns the array's antenna positions when the array origin sits at
// pos (no rotation).
func (a Array) At(pos Point) []Point {
	out := make([]Point, len(a.Antennas))
	for i, ant := range a.Antennas {
		out[i] = pos.Add(ant)
	}
	return out
}

// RejectOutliers drops distance estimates inconsistent with the array
// geometry: any two antennas of the same rigid device can observe
// distances differing by at most the antenna separation (triangle
// inequality), plus a noise slack. It returns the kept circle indices.
// This is the geometric outlier rejection of §12.2.
func RejectOutliers(circles []Circle, slack float64) []int {
	n := len(circles)
	if n <= 2 {
		idx := make([]int, n)
		for i := range idx {
			idx[i] = i
		}
		return idx
	}
	// Score each circle by how many pairwise constraints it satisfies.
	ok := make([]int, n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			sep := circles[i].Center.Dist(circles[j].Center)
			if math.Abs(circles[i].Radius-circles[j].Radius) <= sep+slack {
				ok[i]++
				ok[j]++
			}
		}
	}
	// Keep circles consistent with a majority of the others.
	var kept []int
	need := (n - 1) / 2
	for i, score := range ok {
		if score >= need {
			kept = append(kept, i)
		}
	}
	if len(kept) < 2 {
		// Fall back to keeping everything rather than failing outright.
		kept = kept[:0]
		for i := 0; i < n; i++ {
			kept = append(kept, i)
		}
	}
	return kept
}
