package rf

import (
	"math"
	"math/rand"
	"testing"

	"chronos/internal/geo"
)

func TestRectangle(t *testing.T) {
	walls := Rectangle(0, 0, 20, 20, 0.6)
	if len(walls) != 4 {
		t.Fatalf("walls = %d", len(walls))
	}
	for _, w := range walls {
		if w.Loss != 0.6 {
			t.Errorf("loss = %v", w.Loss)
		}
	}
}

func TestMirror(t *testing.T) {
	// Mirror across the x-axis wall.
	w := Wall{A: geo.Point{X: 0, Y: 0}, B: geo.Point{X: 10, Y: 0}}
	got := w.mirror(geo.Point{X: 3, Y: 4})
	if math.Abs(got.X-3) > 1e-12 || math.Abs(got.Y+4) > 1e-12 {
		t.Errorf("mirror = %+v", got)
	}
	// Degenerate wall returns the point unchanged.
	deg := Wall{A: geo.Point{X: 1, Y: 1}, B: geo.Point{X: 1, Y: 1}}
	if got := deg.mirror(geo.Point{X: 5, Y: 5}); got != (geo.Point{X: 5, Y: 5}) {
		t.Errorf("degenerate mirror = %+v", got)
	}
}

func TestReflectionPointSymmetricCase(t *testing.T) {
	// TX and RX symmetric about x=5; floor wall along y=0. The specular
	// point must be at (5, 0) and satisfy the equal-angle law.
	w := Wall{A: geo.Point{X: 0, Y: 0}, B: geo.Point{X: 10, Y: 0}, Loss: 0.5}
	pt, ok := w.reflectionPoint(geo.Point{X: 2, Y: 3}, geo.Point{X: 8, Y: 3})
	if !ok {
		t.Fatal("no reflection point")
	}
	if math.Abs(pt.X-5) > 1e-9 || math.Abs(pt.Y) > 1e-9 {
		t.Errorf("reflection at %+v, want (5,0)", pt)
	}
}

func TestReflectionPointOffSegment(t *testing.T) {
	// Wall too short: specular point at x=5 is outside [0,1].
	w := Wall{A: geo.Point{X: 0, Y: 0}, B: geo.Point{X: 1, Y: 0}}
	if _, ok := w.reflectionPoint(geo.Point{X: 2, Y: 3}, geo.Point{X: 8, Y: 3}); ok {
		t.Error("reflection reported for point off segment")
	}
}

func TestReflectionPointCollinear(t *testing.T) {
	// Both ends on the wall's own line: no specular bounce.
	w := Wall{A: geo.Point{X: 0, Y: 0}, B: geo.Point{X: 10, Y: 0}}
	if _, ok := w.reflectionPoint(geo.Point{X: 2, Y: 0}, geo.Point{X: 8, Y: 0}); ok {
		t.Error("reflection reported for a link along the wall")
	}
}

func TestGenerateChannelDirectPathDelay(t *testing.T) {
	env := &Environment{Walls: Rectangle(0, 0, 20, 20, 0.5)}
	tx, rx := geo.Point{X: 5, Y: 5}, geo.Point{X: 11, Y: 5}
	ch := GenerateChannel(env, tx, rx, false)
	wantDelay := 6.0 / 299792458.0
	if math.Abs(ch.DirectDelay()-wantDelay) > 1e-15 {
		t.Errorf("direct delay = %v, want %v", ch.DirectDelay(), wantDelay)
	}
	if len(ch.Paths) < 2 {
		t.Errorf("expected wall reflections, got %d paths", len(ch.Paths))
	}
}

func TestGenerateChannelDirectIsStrongest(t *testing.T) {
	env := &Environment{Walls: Rectangle(0, 0, 20, 20, 0.5)}
	ch := GenerateChannel(env, geo.Point{X: 5, Y: 10}, geo.Point{X: 15, Y: 10}, false)
	direct := ch.Paths[0].Gain
	for _, p := range ch.Paths[1:] {
		if p.Gain > direct {
			t.Errorf("reflection gain %v exceeds direct %v in LOS", p.Gain, direct)
		}
	}
}

func TestGenerateChannelNLOSAttenuation(t *testing.T) {
	env := &Environment{Walls: Rectangle(0, 0, 20, 20, 0.5)}
	tx, rx := geo.Point{X: 5, Y: 5}, geo.Point{X: 15, Y: 15}
	los := GenerateChannel(env, tx, rx, false)
	nlos := GenerateChannel(env, tx, rx, true)
	ratio := los.Paths[0].Gain / nlos.Paths[0].Gain
	want := math.Pow(10, 8.0/20) // nlosAttenDB
	if math.Abs(ratio-want) > 1e-9 {
		t.Errorf("NLOS attenuation ratio = %v, want %v", ratio, want)
	}
	// Direct delay unchanged (same geometry).
	if los.DirectDelay() != nlos.DirectDelay() {
		t.Error("NLOS changed the direct delay")
	}
}

func TestGenerateChannelScatterers(t *testing.T) {
	// The scatterer's path is 0.3 of the direct gain: above the
	// minGain pruning, below the half-gain clamp.
	env := &Environment{Scatterers: []geo.Point{{X: 6, Y: 6}}}
	tx, rx := geo.Point{X: 5, Y: 5}, geo.Point{X: 7, Y: 5}
	ch := GenerateChannel(env, tx, rx, false)
	if len(ch.Paths) != 2 {
		t.Fatalf("paths = %d, want direct + scatterer", len(ch.Paths))
	}
	scatterLen := tx.Dist(geo.Point{X: 6, Y: 6}) + (geo.Point{X: 6, Y: 6}).Dist(rx)
	if math.Abs(ch.Paths[1].Delay-scatterLen/299792458.0) > 1e-15 {
		t.Errorf("scatter delay = %v", ch.Paths[1].Delay)
	}
	if ch.Paths[1].Gain >= ch.Paths[0].Gain {
		t.Error("scatterer outshines the direct path")
	}
}

func TestGenerateChannelScattererClamp(t *testing.T) {
	// A scatterer 10 cm from the transmitter would outshine the direct
	// path; its gain is clamped to half the direct gain.
	env := &Environment{Scatterers: []geo.Point{{X: 5, Y: 5.1}}}
	ch := GenerateChannel(env, geo.Point{X: 5, Y: 5}, geo.Point{X: 9, Y: 5}, false)
	if len(ch.Paths) != 2 {
		t.Fatalf("paths = %d, want direct + scatterer", len(ch.Paths))
	}
	if got, want := ch.Paths[1].Gain, 0.5*ch.Paths[0].Gain; got != want {
		t.Errorf("scatterer gain %v, want the clamp %v", got, want)
	}
}

func TestGenerateChannelExcessDelayCap(t *testing.T) {
	// A strong specular wall (0.18–0.22 of the direct gain, above the
	// minGain pruning) far enough away produces a path 27.3 ns late,
	// which the 25 ns excess-delay cap must drop; 1 m closer its bounce
	// arrives 20.8 ns late and must be kept.
	tx, rx := geo.Point{X: 0, Y: 0}, geo.Point{X: 2, Y: 0}
	for _, tc := range []struct {
		wallY float64
		kept  bool
	}{{-5, false}, {-4, true}} {
		env := &Environment{Walls: []Wall{{A: geo.Point{X: -10, Y: tc.wallY}, B: geo.Point{X: 20, Y: tc.wallY}, Loss: 0.9}}}
		ch := GenerateChannel(env, tx, rx, false)
		if got := len(ch.Paths) == 2; got != tc.kept {
			t.Errorf("wall at y=%v: bounce kept = %v, want %v (%d paths)", tc.wallY, got, tc.kept, len(ch.Paths))
		}
		for _, p := range ch.Paths[1:] {
			if p.Delay-ch.Paths[0].Delay > 25e-9 {
				t.Errorf("late path at excess %.1f ns survived", (p.Delay-ch.Paths[0].Delay)*1e9)
			}
		}
	}
}

func TestGenerateChannelMaxPaths(t *testing.T) {
	// Four wall bounces and five scatterers next to the transmitter all
	// clear the gain and delay pruning; the cap keeps the 6 earliest.
	env := &Environment{
		Walls:      Rectangle(0, 0, 20, 20, 0.9),
		Scatterers: []geo.Point{{X: 3, Y: 4}, {X: 4, Y: 3}, {X: 2, Y: 3}, {X: 3, Y: 2}, {X: 4, Y: 4}},
	}
	tx, rx := geo.Point{X: 3, Y: 3}, geo.Point{X: 17, Y: 17}
	ch := GenerateChannel(env, tx, rx, false)
	if len(ch.Paths) != 6 {
		t.Fatalf("paths = %d, want 6", len(ch.Paths))
	}
	// The cap truncates the delay-sorted census: a scatterer detour of
	// at most 1.7 m arrives before every wall bounce (≥ 4.6 m longer).
	for _, p := range ch.Paths[1:] {
		if excess := (p.Delay - ch.Paths[0].Delay) * 299792458.0; excess > 2.1 {
			t.Errorf("kept a path %.2f m late over an earlier one", excess)
		}
	}
}

func TestGenerateChannelPruneWeak(t *testing.T) {
	// Scatterers equidistant from both ends of a 2 m link: 1.5 m off the
	// axis the path carries 0.18 of the direct gain and is kept; 2 m off
	// it carries 0.12, below the 0.15 cut, and is dropped. Both arrive
	// within 9 ns, so only the gain rule tells them apart.
	tx, rx := geo.Point{X: 5, Y: 5}, geo.Point{X: 7, Y: 5}
	for _, tc := range []struct {
		y    float64
		kept bool
	}{{6.5, true}, {7, false}} {
		env := &Environment{Scatterers: []geo.Point{{X: 6, Y: tc.y}}}
		ch := GenerateChannel(env, tx, rx, false)
		if got := len(ch.Paths) == 2; got != tc.kept {
			t.Errorf("scatterer at y=%v: kept = %v, want %v", tc.y, got, tc.kept)
		}
	}
	// A scatterer a kilometre away is both weak and late.
	env := &Environment{Scatterers: []geo.Point{{X: 1000, Y: 1000}}}
	if ch := GenerateChannel(env, geo.Point{X: 0, Y: 0}, geo.Point{X: 1, Y: 0}, false); len(ch.Paths) != 1 {
		t.Errorf("weak scatterer not pruned: %d paths", len(ch.Paths))
	}
}

func TestRandomScatterersInBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	pts := RandomScatterers(rng, 100, 2, 3, 18, 19)
	if len(pts) != 100 {
		t.Fatalf("n = %d", len(pts))
	}
	for _, p := range pts {
		if p.X < 2 || p.X > 18 || p.Y < 3 || p.Y > 19 {
			t.Errorf("scatterer %+v out of bounds", p)
		}
	}
}
