package svc

import (
	"math/rand"
	"time"

	"chronos/internal/drone"
	"chronos/internal/geo"
	"chronos/internal/mac"
	"chronos/internal/obs"
	"chronos/internal/tof"
	"chronos/internal/track"
)

// statFixPeriod is the default stat-device fix cadence: the paper's
// median full-sweep latency, so a stat fleet loads its shard's timers at
// the same event rate a full fleet would.
const statFixPeriod = 84 * time.Millisecond

// statRoomW and statRoomH bound a stat device's random-waypoint walk,
// in meters: the room track.RunMulti's targets walk.
const statRoomW, statRoomH = 12.0, 10.0

// timerGrain is the resolution of shard timers: due times round up to a
// whole millisecond, fine enough to pace ~84 ms sweep cadences.
const timerGrain = time.Millisecond

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
	// clock: event k is due at attachedAt + (session virtual time of k).
	attachedAt time.Duration
	timer      *mac.Timer

	// Full pipeline.
	full *track.Session
	est  *tof.Estimator // the full session's estimator (yield hook target)

	// Sweep-token state, owned by the shard goroutine except where
	// noted. inflight marks a sweep token out in the solve pool (the
	// token holder owns the session until it comes home); detachWanted
	// defers a detach that arrived meanwhile. lastFixWall is the wall
	// clock of the device's previous completed sweep (obs.Tick units),
	// written by finish — it backs the per-class inter-fix latency
	// histograms.
	inflight     bool
	detachWanted bool
	lastFixWall  int64

	// Stat pipeline.
	rng     *rand.Rand
	walk    *drone.Walk
	tracker *track.RangeTracker
	sensor  drone.RangeSensor
	now     time.Duration // stat virtual clock
	walked  float64
	fixes   int
}

// newDeviceSession builds the session on the shard goroutine. Full
// sessions calibrate here (the expensive part of attach); a calibration
// failure surfaces as an immediate retire with the error recorded.
func newDeviceSession(s *shard, id uint64, cfg DeviceConfig) (*deviceSession, error) {
	// A wall-clock shard's sim stands still while the shard idles, so
	// anchor on the wall clock there: a late attach must not fire back
	// to back every event it "owes" since the shard last woke.
	at := s.sim.Now()
	if !s.d.cfg.Virtual {
		at = time.Since(s.d.start)
	}
	ds := &deviceSession{shard: s, id: id, cfg: cfg, attachedAt: at}
	rng := seedRNG(cfg.Seed)
	if cfg.Stat {
		if cfg.FixPeriod <= 0 {
			cfg.FixPeriod = statFixPeriod
		}
		ds.cfg = cfg
		ds.rng = rng
		ds.walk = drone.NewWalk(rng, statRoomW, statRoomH)
		ds.walk.Speed = cfg.Speed
		ds.tracker = track.NewRangeTracker()
		ds.sensor = drone.StatSensor{}
		return ds, nil
	}

	est := tof.NewEstimator(cfg.Estimator)
	full, err := track.NewSession(rng, s.d.cfg.Office, est, cfg.Session)
	if err != nil {
		return nil, err
	}
	ds.full = full
	ds.est = est
	return ds, nil
}

// recordFixGap feeds the device's wall time since its previous
// completed sweep into its class's inter-fix histogram. finish records
// it with and without a solve pool, so the same metric compares
// head-of-line blocking across modes: on the shard, a delayed timer
// fire widens the gap; on the pool, class-queue waiting does.
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

// scheduleNext books the device's next event on the shard sim, mapping
// the session's own virtual time onto the shard clock relative to the
// attach instant. In wall mode this paces sweeps in real protocol time;
// in virtual mode the shard loop collapses the waits and the mapping
// only orders events. Due times round up to timerGrain, and one at or
// before the shard's now moves to the next grain, so an event never
// fires inside the Run that scheduled it.
func (ds *deviceSession) scheduleNext() {
	var at time.Duration
	if ds.full != nil {
		at = ds.attachedAt + ds.full.Now()
	} else {
		at = ds.attachedAt + ds.now + ds.cfg.FixPeriod
	}
	now := ds.shard.sim.Now()
	at = (at + timerGrain - 1) / timerGrain * timerGrain
	if at <= now {
		at = (now/timerGrain + 1) * timerGrain
	}
	ds.timer = ds.shard.sim.Schedule(at-now, ds.fire)
}

// fire executes one session event on the shard goroutine: a full band
// sweep (full devices) or one sensor fix (stat devices), then either
// reschedules or retires the device.
func (ds *deviceSession) fire() {
	obsTimerFires.Inc()
	if ds.full != nil {
		ds.sweep()
		return
	}

	start := obs.Tick()
	ds.now += ds.cfg.FixPeriod
	if t := ds.now.Seconds(); t > ds.walked {
		ds.walk.Advance(t - ds.walked)
		ds.walked = t
	}
	meas := ds.sensor.Range(ds.rng, geo.Point{}, ds.walk.Pos())
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

// sweep starts one full band sweep on the shard goroutine: StepIngest
// here, then the solve — here too without a solve pool, else as a token
// through the class queue, whose solve worker hands it back through the
// shard's completion queue. Both modes end in finish on the shard.
func (ds *deviceSession) sweep() {
	t := &sweepToken{ds: ds, class: ds.cfg.Class, start: obs.Tick()}
	t.err = ds.full.StepIngest()
	obsStageIngestNs.Since(t.start)
	if p := ds.shard.d.pipe; p != nil && t.err == nil {
		ds.inflight = true
		ds.shard.inflight.Add(1)
		t.enq = obs.Tick()
		if !p.solveQ.push(t) {
			// Closed mid-flight (only possible on a torn-down daemon);
			// surface the sweep back to the shard unfinished.
			t.err = ErrDraining
			ds.shard.complete(t)
		}
		return
	}
	if t.err == nil {
		t.solve()
	}
	ds.finish(t, false)
}

// finish completes a sweep on the shard goroutine, with or without a
// solve pool: StepTrack, the sweep metrics, then retire or reschedule.
// With retiring (shutdown), a solved token still gets its StepTrack, so
// its fix counts, but the device is neither rescheduled nor removed —
// the final retirement pass collects it.
func (ds *deviceSession) finish(t *sweepToken, retiring bool) {
	if t.err == nil {
		tick := obs.Tick()
		t.err = ds.full.StepTrack()
		obsStageTrackNs.Since(tick)
	}
	if t.err == nil {
		obsSweepNs.Since(t.start)
		obsFullSweeps.Inc()
		ds.recordFixGap()
	}
	switch {
	case t.err != nil:
		ds.shard.remove(ds, t.err)
	case retiring:
		// Kept live for shutdown's final retirement pass.
	case ds.full.Done() || ds.detachWanted:
		ds.shard.remove(ds, nil)
	default:
		ds.scheduleNext()
		ds.shard.timers.Store(int64(ds.shard.sim.Pending()))
	}
}

// result renders the device's retirement record.
func (ds *deviceSession) result(err error) *DeviceResult {
	r := &DeviceResult{ID: ds.id, Stat: ds.cfg.Stat, Err: err}
	if ds.full != nil {
		r.Session = ds.full.Result()
		r.Fixes = len(r.Session.Fixes)
	} else {
		r.Fixes = ds.fixes
	}
	return r
}
