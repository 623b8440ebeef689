package geo

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestIntersectCirclesTwoPoints(t *testing.T) {
	a := Circle{Center: Point{0, 0}, Radius: 5}
	b := Circle{Center: Point{6, 0}, Radius: 5}
	p1, p2, ok := IntersectCircles(a, b)
	if !ok {
		t.Fatal("no intersection")
	}
	// Intersections at (3, ±4).
	for _, p := range []Point{p1, p2} {
		if math.Abs(p.X-3) > 1e-9 || math.Abs(math.Abs(p.Y)-4) > 1e-9 {
			t.Errorf("intersection %v, want (3, ±4)", p)
		}
	}
	if p1.Y*p2.Y >= 0 {
		t.Error("intersections on the same side")
	}
}

func TestIntersectCirclesDegenerate(t *testing.T) {
	a := Circle{Center: Point{0, 0}, Radius: 1}
	if _, _, ok := IntersectCircles(a, Circle{Center: Point{5, 0}, Radius: 1}); ok {
		t.Error("disjoint circles intersected")
	}
	if _, _, ok := IntersectCircles(a, Circle{Center: Point{0, 0}, Radius: 2}); ok {
		t.Error("concentric circles intersected")
	}
	if _, _, ok := IntersectCircles(a, Circle{Center: Point{0.1, 0}, Radius: 3}); ok {
		t.Error("contained circle intersected")
	}
}

func TestIntersectCirclesTangent(t *testing.T) {
	a := Circle{Center: Point{0, 0}, Radius: 2}
	b := Circle{Center: Point{4, 0}, Radius: 2}
	p1, p2, ok := IntersectCircles(a, b)
	if !ok {
		t.Fatal("tangent circles should intersect")
	}
	if p1.Dist(p2) > 1e-9 {
		t.Errorf("tangent intersections differ: %v %v", p1, p2)
	}
	if math.Abs(p1.X-2) > 1e-9 || math.Abs(p1.Y) > 1e-9 {
		t.Errorf("tangent point %v, want (2,0)", p1)
	}
}

func TestTrilaterateThreeCircles(t *testing.T) {
	truth := Point{3.7, 8.1}
	anchors := []Point{{0, 0}, {10, 0}, {0, 10}}
	var circles []Circle
	for _, a := range anchors {
		circles = append(circles, Circle{Center: a, Radius: truth.Dist(a)})
	}
	got, amb, err := Trilaterate(circles)
	if err != nil {
		t.Fatal(err)
	}
	if amb != nil {
		t.Errorf("unexpected ambiguity: %v", amb)
	}
	if got.Dist(truth) > 1e-6 {
		t.Errorf("position %v, want %v", got, truth)
	}
}

func TestTrilaterateTwoCirclesAmbiguous(t *testing.T) {
	truth := Point{3, 4}
	mirror := Point{3, -4} // reflected across the baseline (y=0)
	anchors := []Point{{0, 0}, {6, 0}}
	var circles []Circle
	for _, a := range anchors {
		circles = append(circles, Circle{Center: a, Radius: truth.Dist(a)})
	}
	_, amb, err := Trilaterate(circles)
	if err != nil {
		t.Fatal(err)
	}
	if len(amb) != 2 {
		t.Fatalf("ambiguous solutions = %d, want 2 (%v)", len(amb), amb)
	}
	foundTruth, foundMirror := false, false
	for _, p := range amb {
		if p.Dist(truth) < 1e-3 {
			foundTruth = true
		}
		if p.Dist(mirror) < 1e-3 {
			foundMirror = true
		}
	}
	if !foundTruth || !foundMirror {
		t.Errorf("candidates %v missing truth/mirror", amb)
	}
}

func TestTrilaterateNoisyOverdetermined(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	truth := Point{12, 7}
	anchors := []Point{{0, 0}, {20, 0}, {0, 20}, {20, 20}}
	for trial := 0; trial < 20; trial++ {
		var circles []Circle
		for _, a := range anchors {
			circles = append(circles, Circle{Center: a, Radius: truth.Dist(a) + rng.NormFloat64()*0.1})
		}
		got, _, err := Trilaterate(circles)
		if err != nil {
			t.Fatal(err)
		}
		if got.Dist(truth) > 0.3 {
			t.Errorf("trial %d: error %v m", trial, got.Dist(truth))
		}
	}
}

func TestTrilaterateErrors(t *testing.T) {
	if _, _, err := Trilaterate(nil); !errors.Is(err, ErrTooFewCircles) {
		t.Errorf("err = %v", err)
	}
	if _, _, err := Trilaterate([]Circle{{Center: Point{0, 0}, Radius: 1}}); !errors.Is(err, ErrTooFewCircles) {
		t.Errorf("err = %v", err)
	}
}

func TestTrilaterateLeastSquaresProperty(t *testing.T) {
	// Property: the returned point's residual is no worse than at small
	// perturbations around it (local optimality).
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		truth := Point{rng.Float64() * 10, rng.Float64() * 10}
		anchors := []Point{{0, 0}, {10, 0}, {5, 10}}
		var circles []Circle
		for _, a := range anchors {
			circles = append(circles, Circle{Center: a, Radius: truth.Dist(a) + rng.NormFloat64()*0.05})
		}
		got, _, err := Trilaterate(circles)
		if err != nil {
			return true
		}
		ssq := func(p Point) float64 {
			var s float64
			for _, c := range circles {
				r := p.Dist(c.Center) - c.Radius
				s += r * r
			}
			return s
		}
		base := ssq(got)
		for _, d := range []Point{{0.01, 0}, {-0.01, 0}, {0, 0.01}, {0, -0.01}} {
			if ssq(got.Add(d)) < base-1e-9 {
				return false
			}
		}
		return true
	}
	// Targets within about 10 cm of an anchor, where full Gauss–Newton
	// steps oscillated across the anchor's distance cone until the
	// iteration cap and returned a point that was not a local optimum.
	for _, seed := range []int64{7475639546406219516, 10649, 12366, 14134, 14671} {
		if !f(seed) {
			t.Errorf("seed %d: trilaterated point is not a local least-squares optimum", seed)
		}
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestLinearArray(t *testing.T) {
	a := LinearArray(3, 0.3)
	if len(a.Antennas) != 3 {
		t.Fatalf("antennas = %d", len(a.Antennas))
	}
	if math.Abs(a.Span()-0.6) > 1e-12 {
		t.Errorf("span = %v, want 0.6", a.Span())
	}
	// Centered: mean position at origin.
	var mean Point
	for _, p := range a.Antennas {
		mean = mean.Add(p)
	}
	if mean.Norm() > 1e-12 {
		t.Errorf("array not centered: %v", mean)
	}
}

func TestArrayAt(t *testing.T) {
	a := LinearArray(2, 1)
	pts := a.At(Point{10, 5})
	if pts[0].Dist(Point{9.5, 5}) > 1e-12 || pts[1].Dist(Point{10.5, 5}) > 1e-12 {
		t.Errorf("At = %v", pts)
	}
}

func TestRejectOutliersDropsBadDistance(t *testing.T) {
	// Three antennas 0.3 m apart; one distance is wildly wrong.
	arr := LinearArray(3, 0.3)
	target := Point{5, 4}
	var circles []Circle
	for _, ant := range arr.At(Point{0, 0}) {
		circles = append(circles, Circle{Center: ant, Radius: target.Dist(ant)})
	}
	circles[1].Radius += 4 // 4 m outlier on the middle antenna
	kept := RejectOutliers(circles, 0.3)
	for _, i := range kept {
		if i == 1 {
			t.Errorf("outlier circle kept: %v", kept)
		}
	}
	if len(kept) != 2 {
		t.Errorf("kept = %v, want the two good circles", kept)
	}
}

func TestRejectOutliersKeepsConsistent(t *testing.T) {
	arr := LinearArray(3, 0.3)
	target := Point{5, 4}
	var circles []Circle
	for _, ant := range arr.At(Point{0, 0}) {
		circles = append(circles, Circle{Center: ant, Radius: target.Dist(ant) + 0.05})
	}
	kept := RejectOutliers(circles, 0.3)
	if len(kept) != 3 {
		t.Errorf("kept = %v, want all 3", kept)
	}
}

func TestRejectOutliersSmallInputs(t *testing.T) {
	c := []Circle{{Radius: 1}, {Center: Point{1, 0}, Radius: 99}}
	if got := RejectOutliers(c, 0.1); len(got) != 2 {
		t.Errorf("two circles must always be kept: %v", got)
	}
	if got := RejectOutliers(nil, 0.1); len(got) != 0 {
		t.Errorf("empty input: %v", got)
	}
}

func TestPointArithmetic(t *testing.T) {
	p := Point{1, 2}
	if got := p.Add(Point{3, -1}); got != (Point{4, 1}) {
		t.Errorf("Add = %v", got)
	}
	if got := p.Sub(Point{1, 1}); got != (Point{0, 1}) {
		t.Errorf("Sub = %v", got)
	}
	if got := p.Scale(2); got != (Point{2, 4}) {
		t.Errorf("Scale = %v", got)
	}
	if got := (Point{3, 4}).Norm(); got != 5 {
		t.Errorf("Norm = %v", got)
	}
	if got := p.String(); got != "(1.000, 2.000)" {
		t.Errorf("String = %q", got)
	}
}
