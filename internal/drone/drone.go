// Package drone implements the §9 personal-drone application: a quadrotor
// that keeps a fixed distance to the user's device using only Chronos
// range estimates and a negative-feedback controller, evaluated in a
// motion-capture room as in §12.4. Every range comes from PipelineSensor,
// which sweeps the 5 GHz bands over the room's multipath channel and runs
// the full time-of-flight estimator.
package drone

import (
	"math"
	"math/rand"

	"chronos/internal/geo"
)

// RangeSensor produces a distance measurement from the drone to the user
// device. PipelineSensor, the full Chronos time-of-flight pipeline, is
// the one implementation; tests substitute fakes through this interface
// to drive the controller with known noise.
type RangeSensor interface {
	// Range returns a distance estimate in meters between pos and target.
	Range(rng *rand.Rand, pos, target geo.Point) float64
}

// Controller is the §9 negative-feedback distance keeper with the
// measurement averaging and outlier rejection the paper credits for the
// drone's higher accuracy (§12.4: "drones measure multiple distances as
// they navigate, which helps de-noise measurements and remove outliers").
// It holds the Desired distance.
type Controller struct {
	recent  []float64
	prevErr float64
	primed  bool
}

// The controller's tuning.
const (
	// gain is the proportional step factor.
	gain = 1.0
	// dGain adds derivative action to counter tracking lag against a
	// moving user.
	dGain = 0.6
	// maxStep clamps movement per control tick in meters: a gentle
	// quadrotor step at 12 Hz.
	maxStep = 0.3
	// history is the median/outlier window in measurements: enough to
	// reject single-sweep ghosts without adding much lag.
	history = 3
)

// NewController builds a controller holding the Desired distance.
func NewController() *Controller { return &Controller{} }

// filteredRange folds a new measurement into the history window and
// returns the outlier-rejected estimate: the median of the window.
func (c *Controller) filteredRange(meas float64) float64 {
	c.recent = append(c.recent, meas)
	if len(c.recent) > history {
		c.recent = c.recent[1:]
	}
	cp := append([]float64(nil), c.recent...)
	for i := 1; i < len(cp); i++ {
		for j := i; j > 0 && cp[j] < cp[j-1]; j-- {
			cp[j], cp[j-1] = cp[j-1], cp[j]
		}
	}
	if n := len(cp); n%2 == 1 {
		return cp[n/2]
	} else {
		return (cp[n/2-1] + cp[n/2]) / 2
	}
}

// Step computes the drone's next position given its current position, a
// fresh range measurement, and the (compass-derived, §12.4) unit
// direction from drone to user. If the user is closer than desired the
// drone backs away; farther, it approaches.
func (c *Controller) Step(pos geo.Point, meas float64, toUser geo.Point) geo.Point {
	d := c.filteredRange(meas)
	err := d - Desired // positive → too far → move toward the user
	derr := 0.0
	if c.primed {
		derr = err - c.prevErr
	}
	c.prevErr, c.primed = err, true
	step := gain*err + dGain*derr
	if step > maxStep {
		step = maxStep
	} else if step < -maxStep {
		step = -maxStep
	}
	norm := toUser.Norm()
	if norm < 1e-9 {
		return pos
	}
	dir := toUser.Scale(1 / norm)
	return pos.Add(dir.Scale(step))
}

// Walk is a user trajectory generator: a random-waypoint walk inside a
// rectangular room (the 6 m × 5 m VICON room of §12.4).
type Walk struct {
	RoomW, RoomH float64 // room size in meters
	Speed        float64 // walking speed m/s (default 0.8)
	pos          geo.Point
	waypoint     geo.Point
	rng          *rand.Rand
}

// NewWalk starts a walk at the room center.
func NewWalk(rng *rand.Rand, w, h float64) *Walk {
	wk := &Walk{RoomW: w, RoomH: h, Speed: 0.8, rng: rng}
	wk.pos = geo.Point{X: w / 2, Y: h / 2}
	wk.pickWaypoint()
	return wk
}

func (w *Walk) pickWaypoint() {
	w.waypoint = geo.Point{
		X: 0.5 + w.rng.Float64()*(w.RoomW-1),
		Y: 0.5 + w.rng.Float64()*(w.RoomH-1),
	}
}

// Pos returns the user's current position.
func (w *Walk) Pos() geo.Point { return w.pos }

// Advance moves the user dt seconds along the walk.
func (w *Walk) Advance(dt float64) geo.Point {
	remaining := w.Speed * dt
	for remaining > 0 {
		to := w.waypoint.Sub(w.pos)
		d := to.Norm()
		if d <= remaining {
			w.pos = w.waypoint
			remaining -= d
			w.pickWaypoint()
			continue
		}
		w.pos = w.pos.Add(to.Scale(remaining / d))
		remaining = 0
	}
	return w.pos
}

// TrackResult is the outcome of one following run.
type TrackResult struct {
	// Deviations are |distance − desired| per control tick, in meters
	// (the Fig. 10a sample).
	Deviations []float64
	// DronePath and UserPath are the trajectories (Fig. 10b).
	DronePath []geo.Point
	UserPath  []geo.Point
}

// The §12.4 following run.
const (
	// Desired is the distance the drone holds to the user, in meters.
	Desired float64 = 1.4
	// RateHz is the control rate: one range per §4 band sweep.
	RateHz float64 = 12
	// Settle is the seconds of flight, while the controller converges,
	// that Track does not score.
	Settle float64 = 3
	// RoomW and RoomH are the motion-capture room's size in meters.
	RoomW, RoomH float64 = 6, 5
)

// Track runs the full §12.4 experiment for duration seconds: the user
// walks the room, the drone follows with the feedback controller fed by
// sensor measurements.
func Track(rng *rand.Rand, sensor RangeSensor, duration float64) *TrackResult {
	walk := NewWalk(rng, RoomW, RoomH)
	ctl := NewController()

	// Drone starts at the desired offset from the user.
	user := walk.Pos()
	drone := user.Add(geo.Point{X: Desired, Y: 0})

	dt := 1 / RateHz
	steps := int(duration * RateHz)
	res := &TrackResult{}
	for i := 0; i < steps; i++ {
		user = walk.Advance(dt)
		meas := sensor.Range(rng, drone, user)
		// Direction to the user via the device compasses (§12.4); add a
		// little bearing noise so heading is not oracle-perfect.
		bearing := user.Sub(drone)
		ang := math.Atan2(bearing.Y, bearing.X) + rng.NormFloat64()*0.05
		toUser := geo.Point{X: math.Cos(ang), Y: math.Sin(ang)}
		drone = ctl.Step(drone, meas, toUser)

		if float64(i)*dt >= Settle {
			res.Deviations = append(res.Deviations, math.Abs(drone.Dist(user)-Desired))
		}
		res.DronePath = append(res.DronePath, drone)
		res.UserPath = append(res.UserPath, user)
	}
	return res
}
