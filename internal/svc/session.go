package svc

import (
	"math/rand"
	"time"

	"chronos/internal/mac"
	"chronos/internal/obs"
	"chronos/internal/tof"
	"chronos/internal/track"
)

// timerGrain is the resolution of shard timers: due times round up to a
// whole millisecond, fine enough to pace ~84 ms sweep cadences.
const timerGrain = time.Millisecond

// deviceSession is one attached device's state, owned exclusively by its
// shard goroutine: a steppable track.Session (the exact RunSession
// pipeline, one sweep per timer fire).
type deviceSession struct {
	shard *shard
	id    uint64
	cfg   DeviceConfig

	// attachedAt anchors the device's virtual timeline on the shard
	// clock: sweep k is due at attachedAt + (session virtual time of k).
	attachedAt time.Duration
	timer      *mac.Timer

	sess *track.Session
	est  *tof.Estimator // the session's estimator (yield hook target)

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
}

// newDeviceSession builds and calibrates the session on the shard
// goroutine (the expensive part of attach); a calibration failure
// surfaces as an immediate retire with the error recorded.
func newDeviceSession(s *shard, id uint64, cfg DeviceConfig) (*deviceSession, error) {
	// A wall-clock shard's sim stands still while the shard idles, so
	// anchor on the wall clock there: a late attach must not fire back
	// to back every sweep it "owes" since the shard last woke.
	at := s.sim.Now()
	if !s.d.cfg.Virtual {
		at = time.Since(s.d.start)
	}
	est := tof.NewEstimator(cfg.Estimator)
	rng := rand.New(rand.NewSource(cfg.Seed))
	sess, err := track.NewSession(rng, s.d.cfg.Office, est, cfg.Session)
	if err != nil {
		return nil, err
	}
	return &deviceSession{shard: s, id: id, cfg: cfg, attachedAt: at, sess: sess, est: est}, nil
}

// recordFixGap feeds the device's wall time since its previous
// completed sweep into its class's inter-fix histogram, so the gap
// counts head-of-line blocking wherever it happens: a delayed timer fire
// on the shard, or class-queue waiting on the pool.
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

// scheduleNext books the device's next sweep on the shard sim, mapping
// the session's own virtual time onto the shard clock relative to the
// attach instant. In wall mode this paces sweeps in real protocol time;
// in virtual mode the shard loop collapses the waits and the mapping
// only orders sweeps.
func (ds *deviceSession) scheduleNext() {
	ds.timer = ds.shard.scheduleAt(ds.attachedAt+ds.sess.Now(), ds.sweep)
}

// scheduleAt books fn on the shard sim at shard time at, rounded up to
// timerGrain; a time at or before the shard's now moves to the next
// grain, so an event never fires inside the Run that scheduled it.
func (s *shard) scheduleAt(at time.Duration, fn func()) *mac.Timer {
	now := s.sim.Now()
	at = (at + timerGrain - 1) / timerGrain * timerGrain
	if at <= now {
		at = (now/timerGrain + 1) * timerGrain
	}
	return s.sim.Schedule(at-now, fn)
}

// sweep runs one timer fire: it starts a full band sweep on the shard
// goroutine, StepIngest here, then pushes the sweep as a token through
// the class queue, whose solve worker hands it back through the shard's
// completion queue to finish. A failed ingest finishes here at once.
func (ds *deviceSession) sweep() {
	obsTimerFires.Inc()
	t := &sweepToken{ds: ds, class: ds.cfg.Class, start: obs.Tick()}
	t.err = ds.sess.StepIngest()
	obsStageIngestNs.Since(t.start)
	if t.err != nil {
		ds.finish(t, false)
		return
	}
	ds.inflight = true
	ds.shard.inflight.Add(1)
	t.enq = obs.Tick()
	if !ds.shard.d.pipe.solveQ.push(t) {
		// Closed mid-flight (only possible on a torn-down daemon);
		// surface the sweep back to the shard unfinished.
		t.err = ErrDraining
		ds.shard.complete(t)
	}
}

// finish completes a sweep on the shard goroutine: StepTrack, the sweep
// metrics, then retire or reschedule. With retiring (shutdown), a solved
// token still gets its StepTrack, so its fix counts, but the device is
// neither rescheduled nor removed — the final retirement pass collects
// it.
func (ds *deviceSession) finish(t *sweepToken, retiring bool) {
	if t.err == nil {
		tick := obs.Tick()
		t.err = ds.sess.StepTrack()
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
	case ds.sess.Done() || ds.detachWanted:
		ds.shard.remove(ds, nil)
	default:
		ds.scheduleNext()
		ds.shard.timers.Store(int64(ds.shard.sim.Pending()))
	}
}

// result renders the device's retirement record.
func (ds *deviceSession) result(err error) *DeviceResult {
	r := ds.sess.Result()
	return &DeviceResult{ID: ds.id, Fixes: len(r.Fixes), Session: r, Err: err}
}
