package rf

import (
	"math"
	"math/rand"
)

// Point2 is a 2D position in meters. It lives here (rather than in geo) so
// the propagation model has no dependency on the localization layer.
type Point2 struct{ X, Y float64 }

// Dist returns the Euclidean distance between two points.
func (p Point2) Dist(q Point2) float64 { return math.Hypot(p.X-q.X, p.Y-q.Y) }

// Wall is a reflective line segment (a wall face, metal cabinet side,
// etc.) used by the image method to generate first-order reflections.
type Wall struct {
	A, B Point2  // segment endpoints
	Loss float64 // linear amplitude loss factor on reflection, in (0, 1]
}

// Environment is a 2D floor plan: reflective walls plus optional point
// scatterers that re-radiate toward the receiver.
type Environment struct {
	Walls      []Wall
	Scatterers []Point2
	// ScattererLoss is the amplitude loss applied to scattered paths
	// (default 0.3 if zero).
	ScattererLoss float64
	// NLOSAttenDB is additional direct-path attenuation (dB) applied when
	// a scenario marks the link as non-line-of-sight.
	NLOSAttenDB float64
}

// Rectangle builds four walls enclosing [x0,x1]×[y0,y1] with the given
// reflection loss.
func Rectangle(x0, y0, x1, y1, loss float64) []Wall {
	return []Wall{
		{A: Point2{x0, y0}, B: Point2{x1, y0}, Loss: loss},
		{A: Point2{x1, y0}, B: Point2{x1, y1}, Loss: loss},
		{A: Point2{x1, y1}, B: Point2{x0, y1}, Loss: loss},
		{A: Point2{x0, y1}, B: Point2{x0, y0}, Loss: loss},
	}
}

// mirror reflects point p across the infinite line through the wall.
func (w Wall) mirror(p Point2) Point2 {
	dx, dy := w.B.X-w.A.X, w.B.Y-w.A.Y
	len2 := dx*dx + dy*dy
	if len2 == 0 {
		return p
	}
	// Project p-A onto the wall direction.
	t := ((p.X-w.A.X)*dx + (p.Y-w.A.Y)*dy) / len2
	foot := Point2{w.A.X + t*dx, w.A.Y + t*dy}
	return Point2{2*foot.X - p.X, 2*foot.Y - p.Y}
}

// reflectionPoint returns the point where the TX→RX reflection hits the
// wall segment, and whether that point lies within the segment.
func (w Wall) reflectionPoint(tx, rx Point2) (Point2, bool) {
	img := w.mirror(tx)
	// Intersect segment img→rx with segment A→B.
	return segIntersect(img, rx, w.A, w.B)
}

// segIntersect intersects segment p1→p2 with segment p3→p4.
func segIntersect(p1, p2, p3, p4 Point2) (Point2, bool) {
	d1x, d1y := p2.X-p1.X, p2.Y-p1.Y
	d2x, d2y := p4.X-p3.X, p4.Y-p3.Y
	denom := d1x*d2y - d1y*d2x
	if math.Abs(denom) < 1e-12 {
		return Point2{}, false
	}
	t := ((p3.X-p1.X)*d2y - (p3.Y-p1.Y)*d2x) / denom
	u := ((p3.X-p1.X)*d1y - (p3.Y-p1.Y)*d1x) / denom
	if t < 0 || t > 1 || u < 0 || u > 1 {
		return Point2{}, false
	}
	return Point2{p1.X + t*d1x, p1.Y + t*d1y}, true
}

// PropagationOptions tunes channel generation from geometry.
type PropagationOptions struct {
	Freq      float64 // representative carrier for gain computation (Hz)
	NLOS      bool    // apply Environment.NLOSAttenDB to the direct path
	MinGain   float64 // drop paths weaker than MinGain·directGain (default 0.01)
	MaxPaths  int     // cap on the number of paths kept (default 12)
	ExtraLoss float64 // additional linear loss on every path (default 1)
	// MaxExcessDelay drops paths arriving more than this long after the
	// direct path (default 25 ns). Indoor office profiles concentrate
	// their power within ~25 ns of excess delay — the spread the paper's
	// own measured profiles exhibit (Fig. 7b) — with later arrivals
	// buried below the noise floor.
	MaxExcessDelay float64
}

// GenerateChannel builds the multipath channel between tx and rx in env
// using the image method: the direct path, one first-order reflection per
// wall whose reflection point falls on the segment, and one two-hop path
// per scatterer. Paths are sorted by delay; the direct path is always
// kept, even in NLOS (attenuated), matching indoor reality where the
// direct path penetrates walls with loss.
func GenerateChannel(env *Environment, tx, rx Point2, opts PropagationOptions) *Channel {
	if opts.MinGain == 0 {
		opts.MinGain = 0.01
	}
	if opts.MaxPaths == 0 {
		opts.MaxPaths = 12
	}
	if opts.ExtraLoss == 0 {
		opts.ExtraLoss = 1
	}
	if opts.MaxExcessDelay == 0 {
		opts.MaxExcessDelay = 25e-9
	}
	c := 299792458.0

	var paths []Path

	// Direct path.
	d := tx.Dist(rx)
	directGain := FreeSpaceGain(d, opts.Freq) * opts.ExtraLoss
	if opts.NLOS && env.NLOSAttenDB > 0 {
		directGain *= math.Pow(10, -env.NLOSAttenDB/20)
	}
	paths = append(paths, Path{Delay: d / c, Gain: directGain})

	// First-order wall reflections.
	for _, w := range env.Walls {
		pt, ok := w.reflectionPoint(tx, rx)
		if !ok {
			continue
		}
		length := tx.Dist(pt) + pt.Dist(rx)
		gain := FreeSpaceGain(length, opts.Freq) * w.Loss * opts.ExtraLoss
		paths = append(paths, Path{Delay: length / c, Gain: gain})
	}

	// Scatterer paths (TX → scatterer → RX). Diffuse scattering is
	// bistatic: the scatterer intercepts power falling off as 1/d₁ and
	// re-radiates it over 1/d₂, so the amplitude decays as 1/(d₁·d₂) —
	// far faster than a specular wall bounce. We model the re-radiation
	// as a 1 m-reference source with amplitude efficiency ScattererLoss.
	sloss := env.ScattererLoss
	if sloss == 0 {
		sloss = 0.3
	}
	losDirect := FreeSpaceGain(d, opts.Freq) * opts.ExtraLoss
	for _, s := range env.Scatterers {
		d1, d2 := tx.Dist(s), s.Dist(rx)
		gain := FreeSpaceGain(d1, opts.Freq) * FreeSpaceGain(d2, opts.Freq) /
			FreeSpaceGain(1, opts.Freq) * sloss * opts.ExtraLoss
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
		if p.Gain >= opts.MinGain*ref && p.Delay-directDelay <= opts.MaxExcessDelay {
			kept = append(kept, p)
		}
	}
	if len(kept) > opts.MaxPaths {
		kept = kept[:opts.MaxPaths]
	}
	ch.Paths = kept
	return ch
}

// RandomScatterers places n scatterers uniformly in [x0,x1]×[y0,y1].
func RandomScatterers(rng *rand.Rand, n int, x0, y0, x1, y1 float64) []Point2 {
	out := make([]Point2, n)
	for i := range out {
		out[i] = Point2{
			X: x0 + rng.Float64()*(x1-x0),
			Y: y0 + rng.Float64()*(y1-y0),
		}
	}
	return out
}
