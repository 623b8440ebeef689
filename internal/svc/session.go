package svc

import (
	"math/rand"
	"time"

	"chronos/internal/drone"
	"chronos/internal/geo"
	"chronos/internal/obs"
	"chronos/internal/tof"
	"chronos/internal/track"
)

// statFixPeriod is the default stat-device fix cadence: the paper's
// median full-sweep latency, so a stat fleet loads the wheel at the same
// event rate a full fleet would.
const statFixPeriod = 84 * time.Millisecond

// deviceSession is one attached device's state, owned exclusively by its
// shard goroutine. Full devices wrap a steppable track.Session (the
// exact RunSession pipeline, one sweep per timer fire); stat devices
// carry the lightweight walk + sensor + Kalman chain of track.RunMulti,
// one fix per timer fire.
type deviceSession struct {
	shard *shard
	id    uint64
	cfg   DeviceConfig

	// attachedAt anchors the device's virtual timeline on the shard
	// wheel: event k is due at attachedAt + (session virtual time of k).
	attachedAt time.Duration
	timer      *WheelTimer

	// Full pipeline.
	full *track.Session
	est  *tof.Estimator // the full session's estimator (preempt hook target)

	// Staged-pipeline state, owned by the shard goroutine except where
	// noted. inflight marks a sweep token out in the pipeline (the
	// token holder owns the session until it completes); detachWanted
	// defers a detach that arrived mid-flight. lastFixWall is the wall
	// clock of the device's previous completed sweep (obs.Tick units),
	// touched only by whoever owns the session at fix time — it backs
	// the per-class inter-fix latency histograms.
	inflight     bool
	detachWanted bool
	lastFixWall  int64

	// Stat pipeline.
	rng     *rand.Rand
	walk    *drone.Walk
	tracker *track.RangeTracker
	sensor  drone.RangeSensor
	anchor  geo.Point
	origin  geo.Point
	now     time.Duration // stat virtual clock
	walked  float64
	fixes   int
	failed  error
}

// newDeviceSession builds the session on the shard goroutine. Full
// sessions calibrate here (the expensive part of attach); a calibration
// failure surfaces as an immediate retire with the error recorded.
func newDeviceSession(s *shard, id uint64, cfg DeviceConfig) (*deviceSession, error) {
	ds := &deviceSession{shard: s, id: id, cfg: cfg, attachedAt: s.wheel.Now()}
	rng := seedRNG(cfg.Seed)
	if cfg.Stat {
		if cfg.FixPeriod <= 0 {
			cfg.FixPeriod = statFixPeriod
		}
		if cfg.RoomW == 0 {
			cfg.RoomW = 12
		}
		if cfg.RoomH == 0 {
			cfg.RoomH = 10
		}
		ds.cfg = cfg
		ds.rng = rng
		ds.walk = drone.NewWalk(rng, cfg.RoomW, cfg.RoomH)
		ds.walk.Speed = cfg.Speed
		ds.tracker = track.NewRangeTracker(track.FilterConfig{})
		ds.sensor = drone.StatSensor{}
		return ds, nil
	}

	ecfg := cfg.Estimator
	if s.d.coalescer != nil {
		ecfg.Coalescer = s.d.coalescer
	}
	est := tof.NewEstimator(ecfg)
	full, err := track.NewSession(rng, s.d.cfg.Office, est, cfg.Session)
	if err != nil {
		return nil, err
	}
	ds.full = full
	ds.est = est
	return ds, nil
}

// recordFixGap feeds the device's wall time since its previous
// completed sweep into its class's inter-fix histogram. Recorded on
// both execution paths (inline and staged), so the same metric compares
// head-of-line blocking across modes: inline, a delayed timer fire
// widens the gap; staged, queueing does.
func (ds *deviceSession) recordFixGap() {
	now := obs.Tick()
	if ds.lastFixWall != 0 {
		if ds.cfg.Class == ClassBulk {
			obsFixBulkNs.Observe(float64(now - ds.lastFixWall))
		} else {
			obsFixLatencyNs.Observe(float64(now - ds.lastFixWall))
		}
	}
	ds.lastFixWall = now
}

// scheduleNext books the device's next event on the shard wheel, mapping
// the session's own virtual time onto the wheel clock relative to the
// attach instant. In wall mode this paces sweeps in real protocol time;
// in virtual mode the wheel collapses the waits and the mapping only
// orders events.
func (ds *deviceSession) scheduleNext() {
	var at time.Duration
	if ds.full != nil {
		at = ds.attachedAt + ds.full.Now()
	} else {
		at = ds.attachedAt + ds.now + ds.cfg.FixPeriod
	}
	ds.timer = ds.shard.wheel.ScheduleAt(at, ds.fire)
}

// fire executes one session event on the shard goroutine: a full band
// sweep (full devices) or one sensor fix (stat devices), then either
// reschedules or retires the device.
func (ds *deviceSession) fire() {
	if ds.full != nil {
		if p := ds.shard.d.pipe; p != nil {
			// Staged path: hand the sweep to the pipeline as a token.
			// The session is untouchable until the completion returns;
			// rescheduling and retirement happen there.
			ds.inflight = true
			ds.shard.inflight.Add(1)
			p.submit(&sweepToken{ds: ds, class: ds.cfg.Class, start: obs.Tick()})
			return
		}
		start := obs.Tick()
		if err := ds.full.StepSweep(); err != nil {
			ds.shard.remove(ds, err)
			return
		}
		obsSweepNs.Since(start)
		obsFullSweeps.Inc()
		ds.recordFixGap()
		if ds.full.Done() {
			ds.shard.remove(ds, nil)
			return
		}
		ds.scheduleNext()
		return
	}

	start := obs.Tick()
	ds.now += ds.cfg.FixPeriod
	if t := ds.now.Seconds(); t > ds.walked {
		ds.walk.Advance(t - ds.walked)
		ds.walked = t
	}
	p := ds.walk.Pos()
	pos := geo.Point{X: ds.origin.X + p.X, Y: ds.origin.Y + p.Y}
	meas := ds.sensor.Range(ds.rng, ds.anchor, pos)
	ds.tracker.Observe(ds.now, meas)
	ds.fixes++
	obsStatFixNs.Since(start)
	obsStatFixes.Inc()
	if ds.cfg.Fixes > 0 && ds.fixes >= ds.cfg.Fixes {
		ds.shard.remove(ds, nil)
		return
	}
	ds.scheduleNext()
}

// result renders the device's retirement record.
func (ds *deviceSession) result(err error) *DeviceResult {
	if err == nil {
		err = ds.failed
	}
	r := &DeviceResult{ID: ds.id, Stat: ds.cfg.Stat, Err: err}
	if ds.full != nil {
		r.Session = ds.full.Result()
		r.Fixes = len(r.Session.Fixes)
	} else {
		r.Fixes = ds.fixes
	}
	return r
}
