package rf

import (
	"math"
	"math/rand"

	"chronos/internal/geo"
)

// Wall is a reflective line segment (a wall face, metal cabinet side,
// etc.) used by the image method to generate first-order reflections.
type Wall struct {
	A, B geo.Point // segment endpoints
	Loss float64   // linear amplitude loss factor on reflection, in (0, 1]
}

// Environment is a 2D floor plan: reflective walls plus optional point
// scatterers that re-radiate toward the receiver.
type Environment struct {
	Walls      []Wall
	Scatterers []geo.Point
}

// Rectangle builds four walls enclosing [x0,x1]×[y0,y1] with the given
// reflection loss.
func Rectangle(x0, y0, x1, y1, loss float64) []Wall {
	return []Wall{
		{A: geo.Point{X: x0, Y: y0}, B: geo.Point{X: x1, Y: y0}, Loss: loss},
		{A: geo.Point{X: x1, Y: y0}, B: geo.Point{X: x1, Y: y1}, Loss: loss},
		{A: geo.Point{X: x1, Y: y1}, B: geo.Point{X: x0, Y: y1}, Loss: loss},
		{A: geo.Point{X: x0, Y: y1}, B: geo.Point{X: x0, Y: y0}, Loss: loss},
	}
}

// mirror reflects point p across the infinite line through the wall.
func (w Wall) mirror(p geo.Point) geo.Point {
	dx, dy := w.B.X-w.A.X, w.B.Y-w.A.Y
	len2 := dx*dx + dy*dy
	if len2 == 0 {
		return p
	}
	// Project p-A onto the wall direction.
	t := ((p.X-w.A.X)*dx + (p.Y-w.A.Y)*dy) / len2
	foot := geo.Point{X: w.A.X + t*dx, Y: w.A.Y + t*dy}
	return geo.Point{X: 2*foot.X - p.X, Y: 2*foot.Y - p.Y}
}

// reflectionPoint returns the point where the TX→RX reflection hits the
// wall segment, and whether that point lies within the segment.
func (w Wall) reflectionPoint(tx, rx geo.Point) (geo.Point, bool) {
	img := w.mirror(tx)
	// Intersect segment img→rx with segment A→B.
	return segIntersect(img, rx, w.A, w.B)
}

// segIntersect intersects segment p1→p2 with segment p3→p4.
func segIntersect(p1, p2, p3, p4 geo.Point) (geo.Point, bool) {
	d1x, d1y := p2.X-p1.X, p2.Y-p1.Y
	d2x, d2y := p4.X-p3.X, p4.Y-p3.Y
	denom := d1x*d2y - d1y*d2x
	if math.Abs(denom) < 1e-12 {
		return geo.Point{}, false
	}
	t := ((p3.X-p1.X)*d2y - (p3.Y-p1.Y)*d2x) / denom
	u := ((p3.X-p1.X)*d1y - (p3.Y-p1.Y)*d1x) / denom
	if t < 0 || t > 1 || u < 0 || u > 1 {
		return geo.Point{}, false
	}
	return geo.Point{X: p1.X + t*d1x, Y: p1.Y + t*d1y}, true
}

// The testbed's propagation model (§12): every channel's path gains are
// computed at one representative carrier, and the path census is pruned
// to the dominant few. Indoor office profiles concentrate their power
// within ~25 ns of excess delay — the spread the paper's own measured
// profiles exhibit (Fig. 7b) — with later and weaker arrivals buried
// below the noise floor on real hardware.
const (
	// carrier is the representative carrier (Hz) of the path gains: the
	// middle of the 5 GHz bands.
	carrier float64 = 5.5e9
	// minGain drops paths weaker than minGain × the direct path's gain.
	minGain float64 = 0.15
	// maxPaths caps the paths kept, the direct one included.
	maxPaths = 6
	// maxExcessDelay drops paths arriving more than this long after the
	// direct path (seconds).
	maxExcessDelay float64 = 25e-9
	// scattererLoss is the amplitude efficiency of a scatterer's
	// re-radiation.
	scattererLoss float64 = 0.3
	// nlosAttenDB is the direct path's penetration loss (dB) on a
	// non-line-of-sight link.
	nlosAttenDB float64 = 8
)

// GenerateChannel builds the multipath channel between tx and rx in env
// using the image method: the direct path, one first-order reflection per
// wall whose reflection point falls on the segment, and one two-hop path
// per scatterer. Paths are sorted by delay; the direct path is always
// kept, even in NLOS (attenuated by nlosAttenDB), matching indoor reality
// where the direct path penetrates walls with loss.
func GenerateChannel(env *Environment, tx, rx geo.Point, nlos bool) *Channel {
	c := 299792458.0

	var paths []Path

	// Direct path.
	d := tx.Dist(rx)
	directGain := FreeSpaceGain(d, carrier)
	if nlos {
		directGain *= math.Pow(10, -nlosAttenDB/20)
	}
	paths = append(paths, Path{Delay: d / c, Gain: directGain})

	// First-order wall reflections.
	for _, w := range env.Walls {
		pt, ok := w.reflectionPoint(tx, rx)
		if !ok {
			continue
		}
		length := tx.Dist(pt) + pt.Dist(rx)
		gain := FreeSpaceGain(length, carrier) * w.Loss
		paths = append(paths, Path{Delay: length / c, Gain: gain})
	}

	// Scatterer paths (TX → scatterer → RX). Diffuse scattering is
	// bistatic: the scatterer intercepts power falling off as 1/d₁ and
	// re-radiates it over 1/d₂, so the amplitude decays as 1/(d₁·d₂) —
	// far faster than a specular wall bounce. We model the re-radiation
	// as a 1 m-reference source with amplitude efficiency scattererLoss.
	losDirect := FreeSpaceGain(d, carrier)
	for _, s := range env.Scatterers {
		d1, d2 := tx.Dist(s), s.Dist(rx)
		gain := FreeSpaceGain(d1, carrier) * FreeSpaceGain(d2, carrier) /
			FreeSpaceGain(1, carrier) * scattererLoss
		// A diffuse scatterer cannot outshine the unobstructed direct
		// path; clamp near-device scatterers to a fraction of it.
		if gain > 0.5*losDirect {
			gain = 0.5 * losDirect
		}
		paths = append(paths, Path{Delay: (d1 + d2) / c, Gain: gain})
	}

	ch := newChannel(paths)

	// Prune weak and very late paths (always keep the direct one at
	// index 0).
	ref := ch.Paths[0].Gain
	directDelay := ch.Paths[0].Delay
	kept := ch.Paths[:1]
	for _, p := range ch.Paths[1:] {
		if p.Gain >= minGain*ref && p.Delay-directDelay <= maxExcessDelay {
			kept = append(kept, p)
		}
	}
	if len(kept) > maxPaths {
		kept = kept[:maxPaths]
	}
	ch.Paths = kept
	return ch
}

// RandomScatterers places n scatterers uniformly in [x0,x1]×[y0,y1].
func RandomScatterers(rng *rand.Rand, n int, x0, y0, x1, y1 float64) []geo.Point {
	out := make([]geo.Point, n)
	for i := range out {
		out[i] = geo.Point{
			X: x0 + rng.Float64()*(x1-x0),
			Y: y0 + rng.Float64()*(y1-y0),
		}
	}
	return out
}
