package drone

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"chronos/internal/geo"
	"chronos/internal/stats"
	"chronos/internal/tof"
)

func TestPipelineSensorAccuracy(t *testing.T) {
	if testing.Short() {
		t.Skip("full ToF pipeline per range — slow under -race")
	}
	rng := rand.New(rand.NewSource(1))
	s, err := NewPipelineSensor(rng)
	if err != nil {
		t.Fatal(err)
	}
	pos := geo.Point{X: 1, Y: 2}
	for _, target := range []geo.Point{{X: 2.4, Y: 2}, {X: 4, Y: 4}, {X: 5, Y: 1}} {
		d := s.Range(rng, pos, target)
		truth := pos.Dist(target)
		if e := math.Abs(d - truth); e > 0.3 {
			t.Errorf("target %v: range %.3f, truth %.3f (err %.0f cm)", target, d, truth, e*100)
		}
	}
}

func TestPipelineSensorNonNegative(t *testing.T) {
	if testing.Short() {
		t.Skip("full ToF pipeline per range — slow under -race")
	}
	rng := rand.New(rand.NewSource(2))
	s, err := NewPipelineSensor(rng)
	if err != nil {
		t.Fatal(err)
	}
	// Nearly coincident devices must not produce a negative range.
	if d := s.Range(rng, geo.Point{X: 2, Y: 2}, geo.Point{X: 2.15, Y: 2}); d < 0 {
		t.Errorf("negative range %v", d)
	}
}

// TestPipelineSensorFailedSweepRepeatsLastRange cuts the sweep to two
// bands, below the three a band group needs, so every Estimate fails:
// the sensor must repeat its last measured range, not read the true
// distance of the new geometry.
func TestPipelineSensorFailedSweepRepeatsLastRange(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	s, err := NewPipelineSensor(rng)
	if err != nil {
		t.Fatal(err)
	}
	pos := geo.Point{X: 1, Y: 2}
	before := s.Range(rng, pos, geo.Point{X: 3, Y: 2})
	s.Bands = s.Bands[:2]
	if _, err := s.Est.Estimate(s.Bands, s.Link.Sweep(rng, s.Bands, pairsPerBand)); !errors.Is(err, tof.ErrNoBands) {
		t.Fatalf("two-band Estimate: err = %v, want ErrNoBands", err)
	}
	if after := s.Range(rng, pos, geo.Point{X: 4.5, Y: 2}); after != before {
		t.Errorf("failed sweep read %.3f m, want the last range %.3f m (true distance 3.5 m)", after, before)
	}
}

func TestTrackWithPipelineSensor(t *testing.T) {
	if testing.Short() {
		t.Skip("full-pipeline flight is slow")
	}
	rng := rand.New(rand.NewSource(3))
	s, err := NewPipelineSensor(rng)
	if err != nil {
		t.Fatal(err)
	}
	// A short flight at the 12 Hz control rate: 72 ranges, the last 36
	// scored after the 3 s settle. The controller still has to hold
	// distance.
	res := Track(rng, s, 6)
	if len(res.Deviations) != 36 {
		t.Fatalf("deviations = %d, want 36", len(res.Deviations))
	}
	med := stats.Median(res.Deviations)
	if med > 0.5 {
		t.Errorf("median deviation %.0f cm with full pipeline", med*100)
	}
}

func TestRoomGeometry(t *testing.T) {
	env := room()
	if len(env.Walls) != 4 {
		t.Fatalf("walls = %d", len(env.Walls))
	}
	if c := env.Walls[1].B; c != (geo.Point{X: 6, Y: 5}) {
		t.Errorf("far corner %v, want the 6 m × 5 m room's", c)
	}
}
