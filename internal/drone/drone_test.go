package drone

import (
	"math"
	"math/rand"
	"testing"

	"chronos/internal/geo"
	"chronos/internal/stats"
)

// noisySensor is a test RangeSensor: the true range plus zero-mean
// Gaussian noise of standard deviation sigma, drawn from the flight's rng.
type noisySensor struct{ sigma float64 }

func (s noisySensor) Range(rng *rand.Rand, pos, target geo.Point) float64 {
	return pos.Dist(target) + rng.NormFloat64()*s.sigma
}

func TestControllerConvergesFromOffset(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	ctl := NewController()
	user := geo.Point{X: 0, Y: 0}
	pos := geo.Point{X: 4, Y: 0} // far too distant
	s := noisySensor{sigma: 0.02}
	for i := 0; i < 100; i++ {
		meas := s.Range(rng, pos, user)
		pos = ctl.Step(pos, meas, user.Sub(pos))
	}
	if d := pos.Dist(user); math.Abs(d-1.4) > 0.1 {
		t.Errorf("settled at %v m, want 1.4", d)
	}
}

func TestControllerBacksAwayWhenTooClose(t *testing.T) {
	ctl := NewController()
	pos := geo.Point{X: 0.5, Y: 0}
	user := geo.Point{}
	next := ctl.Step(pos, 0.5, user.Sub(pos))
	if next.Dist(user) <= pos.Dist(user) {
		t.Errorf("drone moved closer when too close: %v → %v", pos, next)
	}
}

func TestControllerStepClamped(t *testing.T) {
	ctl := NewController()
	pos := geo.Point{X: 100, Y: 0}
	next := ctl.Step(pos, 100, geo.Point{X: -1, Y: 0})
	if moved := pos.Dist(next); moved > maxStep+1e-12 {
		t.Errorf("step %v exceeds maxStep %v", moved, maxStep)
	}
}

func TestControllerMedianRejectsOutlier(t *testing.T) {
	ctl := NewController()
	pos := geo.Point{X: 1.4, Y: 0}
	user := geo.Point{}
	// Prime the history at the desired distance, then feed one wild
	// outlier: the median filter must keep the drone steady.
	for i := 0; i < 5; i++ {
		ctl.Step(pos, 1.4, user.Sub(pos))
	}
	next := ctl.Step(pos, 8.0, user.Sub(pos))
	if moved := pos.Dist(next); moved > 0.02 {
		t.Errorf("outlier moved drone by %v m", moved)
	}
}

func TestControllerZeroDirection(t *testing.T) {
	ctl := NewController()
	pos := geo.Point{X: 1, Y: 1}
	if next := ctl.Step(pos, 2, geo.Point{}); next != pos {
		t.Error("zero direction moved the drone")
	}
}

func TestWalkStaysInRoom(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	w := NewWalk(rng, 6, 5)
	for i := 0; i < 5000; i++ {
		p := w.Advance(1.0 / 12)
		if p.X < 0 || p.X > 6 || p.Y < 0 || p.Y > 5 {
			t.Fatalf("user left the room: %v", p)
		}
	}
}

func TestWalkSpeed(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	w := NewWalk(rng, 50, 50) // huge room: rarely reaches waypoints
	prev := w.Pos()
	for i := 0; i < 100; i++ {
		cur := w.Advance(0.1)
		if d := cur.Dist(prev); d > 0.8*0.1+1e-9 {
			t.Fatalf("step %d moved %v m in 0.1 s at 0.8 m/s", i, d)
		}
		prev = cur
	}
}

func TestTrackHoldsDistance(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	res := Track(rng, noisySensor{sigma: 0.10}, 60)
	if len(res.Deviations) == 0 {
		t.Fatal("no deviations recorded")
	}
	med := stats.Median(res.Deviations)
	// Fig. 10a: median deviation ≈ 4.2 cm. Allow a loose band around it.
	if med > 0.15 {
		t.Errorf("median deviation = %.1f cm, want < 15 cm", med*100)
	}
	if len(res.DronePath) != len(res.UserPath) {
		t.Error("trajectory lengths differ")
	}
}

func TestTrackDroneFollowsUser(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	res := Track(rng, noisySensor{sigma: 0.10}, 30)
	// At every step the drone should be within a couple of meters of the
	// user (it is trying to hold 1.4 m).
	for i := range res.DronePath {
		if d := res.DronePath[i].Dist(res.UserPath[i]); d > 4 {
			t.Fatalf("step %d: drone %v m from user", i, d)
		}
	}
}

func TestTrackDeterministic(t *testing.T) {
	a := Track(rand.New(rand.NewSource(9)), noisySensor{sigma: 0.10}, 10)
	b := Track(rand.New(rand.NewSource(9)), noisySensor{sigma: 0.10}, 10)
	if stats.Median(a.Deviations) != stats.Median(b.Deviations) {
		t.Error("same seed produced different runs")
	}
}
