// Package track is the streaming tracking subsystem: it turns the
// per-sweep range fixes of the batch pipeline into continuous
// trajectories. Two parts compose:
//
//  1. the session (Session, RunSession) hops band by band with a
//     hop.Hopper on its own virtual-time simulator while the incremental
//     estimator core (tof.Sweep) folds each band's CSI in, so a fix (a
//     calibrated range, tof.Calibration.Range) is ready the moment the
//     last band lands — with a degraded early fix available before;
//  2. a per-device constant-velocity Kalman filter (RangeTracker)
//     smooths successive range fixes and gates out the profile-ghost
//     outliers of §12.1's CDF tail.
//
// Many devices sharing one anchor radio are internal/hop's schedule
// (hop.RunSchedule); the chronos-svc daemon steps many sessions at once.
//
// # Concurrency contract
//
// Nothing in this package is safe for concurrent use: trackers carry
// filter state, sessions own a simulator, and a session's tof.Sweep
// accumulator carries folded bands and refit scratch. Callers that fan
// sessions out
// over goroutines (internal/exp's campaign engine) give each concurrent
// trial its own tracker/session. Sessions may share one tof.Estimator:
// its Estimate and Calibrate are safe for concurrent use, and the
// expensive NDFT plans live in a shared, concurrency-safe registry
// inside internal/tof, built once per band-group geometry for the
// whole process. Every sweep's inversion starts cold, as the paper's
// Algorithm 1 does: the filter and the solver share no state.
package track

import "time"

// The constant-velocity Kalman filter's tuning.
const (
	// processAccel is the white-acceleration noise density driving the
	// constant-velocity model, in m/s²: brisk human motion changes
	// direction on the order of a second. It reaches predict as an
	// argument, so its square is a rounded float64 product; the exact
	// constant 0.7² would round to a different float64.
	processAccel = 0.7
	// measSigma is the measurement standard deviation in meters, the
	// Chronos core ranging error at room scale.
	measSigma = 0.15
	// gate is the innovation gate in standard deviations: measurements
	// whose normalized innovation exceeds it are rejected as outliers.
	gate = 3.5
	// maxRejects bounds consecutive gate rejections before the filter
	// reinitializes on the next measurement: the target may genuinely
	// have teleported (tracking reacquisition).
	maxRejects = 4
)

// axis is one dimension of a constant-velocity Kalman filter: state
// (position p, velocity v) with covariance [[ppp, ppv], [ppv, pvv]].
type axis struct {
	p, v          float64
	ppp, ppv, pvv float64
}

// init starts the axis at a first measurement with no velocity knowledge.
func (a *axis) init(z, measVar, velVar float64) {
	a.p, a.v = z, 0
	a.ppp, a.ppv, a.pvv = measVar, 0, velVar
}

// predict propagates the state dt seconds under the CV model with
// white-acceleration density q²: F = [1 dt; 0 1], Q = q²·[dt³/3 dt²/2;
// dt²/2 dt].
func (a *axis) predict(dt, q float64) {
	if dt <= 0 {
		return
	}
	q2 := q * q
	a.p += float64(a.v * dt)
	ppp := a.ppp + float64(2*dt*a.ppv) + float64(dt*dt*a.pvv) + float64(q2*dt*dt*dt/3)
	ppv := a.ppv + float64(dt*a.pvv) + float64(q2*dt*dt/2)
	pvv := a.pvv + float64(q2*dt)
	a.ppp, a.ppv, a.pvv = ppp, ppv, pvv
}

// innovation returns the measurement residual and its variance.
func (a *axis) innovation(z, measVar float64) (y, s float64) {
	return z - a.p, a.ppp + measVar
}

// update folds measurement z with variance measVar into the state.
func (a *axis) update(z, measVar float64) {
	y, s := a.innovation(z, measVar)
	kp, kv := a.ppp/s, a.ppv/s
	a.p += float64(kp * y)
	a.v += float64(kv * y)
	ppp := (1 - kp) * a.ppp
	ppv := (1 - kp) * a.ppv
	pvv := a.pvv - float64(kv*a.ppv)
	a.ppp, a.ppv, a.pvv = ppp, ppv, pvv
}

// initVelVar is the velocity variance assigned at (re)initialization:
// (2 m/s)² covers walking and slow-drone targets.
const initVelVar = 4.0

// RangeTracker smooths a stream of scalar range fixes (one anchor) with a
// constant-velocity Kalman filter and innovation gating.
type RangeTracker struct {
	ax      axis
	primed  bool
	last    time.Duration
	rejects int
	// Rejected counts measurements discarded by the gate over the
	// tracker's lifetime.
	Rejected int
}

// NewRangeTracker builds a range tracker.
func NewRangeTracker() *RangeTracker { return &RangeTracker{} }

// Observe folds one range fix taken at virtual time at and returns the
// smoothed range plus whether the measurement was accepted by the gate.
func (t *RangeTracker) Observe(at time.Duration, r float64) (float64, bool) {
	const mv = measSigma * measSigma
	if !t.primed {
		t.ax.init(r, mv, initVelVar)
		t.primed, t.last = true, at
		return r, true
	}
	t.ax.predict((at - t.last).Seconds(), processAccel)
	t.last = at
	if y, s := t.ax.innovation(r, mv); y*y > gate*gate*s {
		t.rejects++
		if t.rejects > maxRejects {
			// Reacquire: too many consecutive rejections means the model
			// lost the target, not that the measurements are wrong. This
			// measurement is accepted (it seeds the new state), so it does
			// not count toward Rejected.
			t.ax.init(r, mv, initVelVar)
			t.rejects = 0
			return r, true
		}
		t.Rejected++
		return t.ax.p, false
	}
	t.ax.update(r, mv)
	t.rejects = 0
	return t.ax.p, true
}

// Range returns the current smoothed range estimate.
func (t *RangeTracker) Range() float64 { return t.ax.p }

// Velocity returns the current radial-velocity estimate in m/s.
func (t *RangeTracker) Velocity() float64 { return t.ax.v }
