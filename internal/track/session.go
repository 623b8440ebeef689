package track

import (
	"errors"
	"math"
	"math/rand"
	"time"

	"chronos/internal/csi"
	"chronos/internal/drone"
	"chronos/internal/geo"
	"chronos/internal/hop"
	"chronos/internal/mac"
	"chronos/internal/obs"
	"chronos/internal/sim"
	"chronos/internal/tof"
	"chronos/internal/wifi"
)

// pairsPerBand is the CSI pairs a session captures per band dwell.
const pairsPerBand = 2

// walkRoom is the side, in meters, of the square room a session's target
// random-waypoint-walks, centered on the office floor (clamped to fit).
const walkRoom = 10.0

// SessionConfig tunes one streaming tracking session: a fixed anchor
// ranges a walking target through the full CSI → incremental-estimator →
// Kalman pipeline, sweep after sweep, on the hop protocol's virtual
// timeline.
type SessionConfig struct {
	// Speed is the target's walking speed in m/s; 0 pins the target for
	// a static baseline.
	Speed float64
	// Sweeps is the number of full band sweeps to stream (default 6).
	// Negative means unbounded: the session never reports Done and runs
	// until its owner stops stepping it — the mode the always-on service
	// daemon uses. RunSession treats a negative count as zero sweeps.
	Sweeps int
	// NLOS marks the link non-line-of-sight for the whole session.
	NLOS bool
	// EarlyFixBands lists checkpoints (in bands the hop has visited,
	// ascending) at which a degraded early fix is also taken mid-sweep,
	// over the bands folded by then. Early fixes are recorded but not
	// fed to the Kalman filter: before the off-lattice bands arrive they
	// are ambiguous modulo the band lattice's 25 ns grating-lobe period.
	EarlyFixBands []int
	// Deprecated: ignored. Every sweep's inversion starts cold.
	WarmStart bool
	// Deprecated: ignored. Every sweep's inversion starts cold.
	VelocityTranslate bool
}

func (c SessionConfig) withDefaults() SessionConfig {
	if c.Sweeps == 0 {
		c.Sweeps = 6
	}
	return c
}

// Fix is one streamed tracking output.
type Fix struct {
	Device    int
	At        time.Duration // virtual time the fix was emitted
	Latency   time.Duration // sweep start → fix
	Bands     int           // usable bands folded in
	Range     float64       // the sweep's calibrated range, clamped at zero (m)
	Smoothed  float64       // Kalman output (m); raw value for early fixes
	TrueRange float64       // ground-truth anchor–target distance at emission
	Early     bool
	Accepted  bool // measurement passed the Kalman gate
	// Work is the deterministic solver cost of the fix's estimate (grid
	// cells processed, tof.Estimate.Work); Converged reports whether
	// the estimate's final main inversion met its stopping rule — false
	// marks an iteration-capped fix, which SessionResult counts as
	// CappedFixes.
	Work      int64
	Converged bool
}

// SessionResult is one session's streamed output.
type SessionResult struct {
	Fixes      []Fix // final (full-sweep) fixes, one per surviving sweep
	EarlyFixes []Fix
	// RawRMSE and SmoothedRMSE compare per-sweep raw estimates and
	// Kalman-smoothed ranges against ground truth over the final fixes.
	RawRMSE, SmoothedRMSE float64
	Rejected              int // fixes discarded by the Kalman gate
	// CappedFixes counts final fixes whose estimate's final main
	// inversion ran to the solver's iteration cap instead of converging
	// (Fix.Converged false). At campaign SNR they are contested
	// placements whose precise re-solve, which stops on the iterate rule
	// alone, reached MaxIter.
	CappedFixes int
	Duration    time.Duration
}

// Session is one streaming tracking session in steppable form: the same
// pipeline RunSession runs — calibration, then full band sweeps over a
// moving target, each ending in a Kalman-filtered fix — but one sweep
// at a time (StepSweep, or its three stages), so an external scheduler
// (the chronos-svc shard loops, driven by their event queues) can
// interleave thousands of sessions and pace them on wall or virtual
// time. Each session owns all of its mutable state (walk, radios, MAC
// simulator, sweep accumulator, Kalman tracker) and draws every random
// value from the rng it was built with, so stepping K sessions in any
// interleaving produces exactly the per-session outputs of K sequential
// RunSession calls with the same seeds. A Session is not safe for
// concurrent use; step it from one goroutine at a time.
type Session struct {
	cfg    SessionConfig
	rng    *rand.Rand
	office *sim.Office
	bands  []wifi.Band
	folds  func(wifi.Band) bool // the bands the estimator folds (tof.Config.Folds)

	roomOrigin geo.Point
	anchor     geo.Point
	walk       *drone.Walk
	link       *csi.Link
	cal        tof.Calibration

	msim    *mac.Sim
	hopper  *hop.Hopper
	tracker *RangeTracker
	acc     *tof.Sweep

	// The capture buffers StepIngest reuses band after band: the band
	// dwell's rendered CSI and its pairs.
	dwell csi.Dwell
	pairs []csi.Pair

	res             *SessionResult
	walkedTo        float64
	rawSq, smoothSq float64
	sweeps          int // completed sweeps

	// Staged-pipeline state: one sweep in flight between StepIngest and
	// StepTrack. sweepStart is the virtual time the in-flight sweep
	// began; pendEst holds the solved estimate between StepSolve and
	// StepTrack (nil when the estimator failed and the fix is skipped).
	sweepStart time.Duration
	ingested   bool
	pendEst    *tof.Estimate
}

// NewSession builds and calibrates a steppable session. It performs the
// same setup as RunSession's preamble — room geometry, fresh radios, the
// one-time LOS reference calibration (§7 observation 2) — consuming rng
// identically, so a Session stepped to completion reproduces RunSession
// byte for byte. The estimator is never written (only the shared plan
// registry fills), so sessions on other goroutines may share it.
func NewSession(rng *rand.Rand, office *sim.Office, est *tof.Estimator, cfg SessionConfig) (*Session, error) {
	cfg = cfg.withDefaults()
	s := &Session{
		cfg: cfg, rng: rng, office: office,
		bands: tof.BandsFor(est.Config()),
		folds: est.Config().Folds,
		res:   &SessionResult{},
	}

	// The target random-waypoint-walks a room centered on the office
	// floor; the anchor sits at the room's corner.
	roomW := math.Min(walkRoom, office.Width-2)
	roomH := math.Min(walkRoom, office.Height-2)
	s.roomOrigin = geo.Point{X: (office.Width - roomW) / 2, Y: (office.Height - roomH) / 2}
	s.anchor = s.roomOrigin
	s.walk = drone.NewWalk(rng, roomW, roomH)
	s.walk.Speed = cfg.Speed

	// Fresh radios for this device pair.
	tx, rx := csi.NewRadio(rng), csi.NewRadio(rng)
	quirk := est.Config().Quirk24
	tx.Quirk24, rx.Quirk24 = quirk, quirk
	s.link = &csi.Link{TX: tx, RX: rx}

	// One-time calibration of the pair at a known LOS reference placement
	// (§7 observation 2), at that placement's own link SNR.
	calP := office.RandomPlacement(rng, 8, false)
	s.link.Channel = office.Channel(calP)
	s.link.SNRdB = sim.LinkSNR(calP.TrueDistance(), false)
	calSweep := s.link.SweepRendering(rng, s.bands, 3, s.folds)
	var err error
	if s.cal, err = est.Calibrate(s.bands, calSweep, calP.TrueDistance()); err != nil {
		return nil, err
	}

	s.msim = mac.NewSim()
	s.hopper = hop.NewHopper(s.msim, rng)
	s.tracker = NewRangeTracker()
	s.acc = est.NewSweep()
	s.pairs = make([]csi.Pair, pairsPerBand)
	return s, nil
}

// targetAt advances the walk to virtual time now and returns the
// target's office-frame position.
func (s *Session) targetAt(now time.Duration) geo.Point {
	if t := now.Seconds(); t > s.walkedTo {
		s.walk.Advance(t - s.walkedTo)
		s.walkedTo = t
	}
	p := s.walk.Pos()
	return geo.Point{X: s.roomOrigin.X + p.X, Y: s.roomOrigin.Y + p.Y}
}

// Now is the session's virtual protocol time: how far its MAC timeline
// has advanced. Schedulers pace a session by mapping this onto their own
// clock (the daemon maps it to wall time; tests leave it virtual).
func (s *Session) Now() time.Duration { return s.msim.Now() }

// Done reports whether the configured sweep budget is exhausted. A
// session built with SessionConfig.Sweeps < 0 is never done; its owner
// decides when to stop stepping it.
func (s *Session) Done() bool { return s.cfg.Sweeps >= 0 && s.sweeps >= s.cfg.Sweeps }

// ErrSessionDone is returned by StepSweep after the sweep budget is
// exhausted.
var ErrSessionDone = errors.New("track: session already ran its configured sweeps")

// ErrStageOrder is returned when the staged entry points are called out
// of order: StepSolve or StepTrack without a completed StepIngest, or
// StepIngest while a sweep is still in flight.
var ErrStageOrder = errors.New("track: pipeline stage called out of order")

// StepSweep streams one full band sweep: band-by-band CSI capture while
// the target keeps walking, hop-protocol timing on the session's virtual
// MAC timeline, early checkpoint fixes, and the final Kalman-filtered
// fix. It is exactly one iteration of
// RunSession's sweep loop, including the inter-sweep hop back to the
// first band when more sweeps remain.
//
// StepSweep is the run-to-completion composition of the staged entry
// points — StepIngest, StepSolve, then StepTrack — and is
// byte-identical to executing the stages separately.
// The chronos-svc daemon calls the stages individually so the solve can
// run on a shared worker pool.
func (s *Session) StepSweep() error {
	if err := s.StepIngest(); err != nil {
		return err
	}
	if _, err := s.StepSolve(); err != nil {
		return err
	}
	return s.StepTrack()
}

// StepIngest runs the capture stage of one sweep: band-by-band CSI
// acquisition while the target walks, hop timing on the virtual MAC
// timeline, and the early checkpoint fixes. The hop visits every band
// of the sweep, but only the bands the estimator folds are rendered;
// the others' dwells are drawn, not rendered (csi.Dwell.DrawOnly), so
// each band's draws, like the walk and the hop timing, stay where a
// fully rendered sweep puts them. Every random draw of the sweep
// happens here, which is what lets the solve run on another goroutine
// without touching the session's rng. After a successful return the
// sweep is in flight: the session expects StepSolve next.
func (s *Session) StepIngest() error {
	if s.Done() {
		return ErrSessionDone
	}
	if s.ingested {
		return ErrStageOrder
	}
	cfg := s.cfg
	s.acc.Reset()
	start := s.msim.Now()
	sweepTick := obs.Tick()
	checkpoint := 0
	for bi, b := range s.bands {
		// The channel follows the target band by band: motion during
		// the sweep is exactly what blurs high-speed tracking. The link
		// SNR follows it on every band, drawn only or not: the drawn
		// detection delays scale with it.
		pos := s.targetAt(s.msim.Now())
		pl := sim.Placement{TX: s.anchor, RX: pos, NLOS: cfg.NLOS}
		s.link.SNRdB = sim.LinkSNR(pl.TrueDistance(), cfg.NLOS)

		// The channel holds still for the dwell: render it once for
		// every pair (the fold keeps no reference to the pairs), or
		// only draw the pairs of a band the estimator does not fold.
		step := hop.Dwell.Seconds() / float64(pairsPerBand+1)
		if s.folds(b) {
			s.link.Channel = s.office.Channel(pl)
			s.link.RenderDwell(&s.dwell, b)
		} else {
			s.dwell.DrawOnly(b)
		}
		for pi := range s.pairs {
			s.link.MeasureDwellPair(s.rng, &s.dwell, s.msim.Now().Seconds()+float64(float64(pi+1)*step), &s.pairs[pi])
		}
		s.msim.Run(s.msim.Now() + hop.Dwell)
		if err := s.acc.AddBand(b, s.pairs); err != nil {
			return err
		}

		if checkpoint < len(cfg.EarlyFixBands) && bi+1 >= cfg.EarlyFixBands[checkpoint] && bi+1 < len(s.bands) {
			if r, err := s.acc.Estimate(); err == nil {
				raw := s.cal.Range(r)
				s.res.EarlyFixes = append(s.res.EarlyFixes, Fix{
					At: s.msim.Now(), Latency: s.msim.Now() - start, Bands: s.acc.Bands(),
					Range: raw, Smoothed: raw,
					TrueRange: s.anchor.Dist(s.targetAt(s.msim.Now())), Early: true,
				})
				obsEarlyFixes.Inc()
			}
			checkpoint++
		}
		if bi+1 < len(s.bands) {
			s.hopper.Hop(func() {})
			s.msim.RunAll()
		}
	}

	obsStageSweepNs.Since(sweepTick)
	s.sweepStart = start
	s.ingested = true
	s.pendEst = nil
	return nil
}

// StepSolve runs the inversion stage of the in-flight sweep: one
// tof.Sweep.Estimate over the bands StepIngest folded in. Estimator
// failures are swallowed exactly as RunSession's loop swallows them —
// the fix is skipped and StepTrack completes the sweep without one.
//
// parked is always false: a scheduler's yield hook runs other work
// inside the solve and cannot stop it. The result remains only because
// the perfbench harness still loops on it.
func (s *Session) StepSolve() (parked bool, err error) {
	if !s.ingested {
		return false, ErrStageOrder
	}
	s.pendEst, err = s.acc.Estimate()
	if err != nil {
		s.pendEst = nil
	}
	return false, nil
}

// StepTrack runs the tracking stage of the in-flight sweep: Kalman
// filtering of the solved range, fix recording, and the inter-sweep hop
// back to the first band. It completes the
// sweep; the session is ready for the next StepIngest afterwards.
func (s *Session) StepTrack() error {
	if !s.ingested {
		return ErrStageOrder
	}
	cfg := s.cfg
	start := s.sweepStart
	if r := s.pendEst; r != nil {
		raw := s.cal.Range(r)
		now := s.msim.Now()
		truth := s.anchor.Dist(s.targetAt(now))
		kalmanTick := obs.Tick()
		smoothed, accepted := s.tracker.Observe(now, raw)
		obsStageKalmanNs.Since(kalmanTick)
		recordFix(int64(now-start), accepted, r.Converged)
		s.res.Fixes = append(s.res.Fixes, Fix{
			At: now, Latency: now - start, Bands: s.acc.Bands(),
			Range: raw, Smoothed: smoothed, TrueRange: truth, Accepted: accepted,
			Work: r.Work, Converged: r.Converged,
		})
		if !r.Converged {
			s.res.CappedFixes++
		}
		s.rawSq += float64((raw - truth) * (raw - truth))
		s.smoothSq += float64((smoothed - truth) * (smoothed - truth))
	}
	if cfg.Sweeps < 0 || s.sweeps+1 < cfg.Sweeps {
		// Hop back to the first band for the next cycle.
		s.hopper.Hop(func() {})
		s.msim.RunAll()
	}
	s.sweeps++
	s.ingested = false
	s.pendEst = nil
	return nil
}

// Result finalizes and returns the session's accumulated output. The
// returned value is the session's own result struct, refreshed on every
// call, so it can be taken mid-stream (a drain snapshot) or after Done.
func (s *Session) Result() *SessionResult {
	s.res.Duration = s.msim.Now()
	s.res.Rejected = s.tracker.Rejected
	if n := float64(len(s.res.Fixes)); n > 0 {
		s.res.RawRMSE = math.Sqrt(s.rawSq / n)
		s.res.SmoothedRMSE = math.Sqrt(s.smoothSq / n)
	} else {
		s.res.RawRMSE, s.res.SmoothedRMSE = math.NaN(), math.NaN()
	}
	return s.res
}

// RunSession streams cfg.Sweeps full band sweeps over a moving target in
// the office and returns the resulting fixes, each ranged through the
// pair's one calibration (tof.Calibration.Range, clamped at zero). The
// session never writes est: its calibration and every sweep only call
// Estimate on it, which holds no per-call state (only the shared plan
// registry fills), so concurrent sessions may share one estimator.
//
// RunSession is the sequential wrapper over the steppable Session: it
// builds one and steps it to completion. The chronos-svc daemon steps
// the same Session type from its shard event queues, which is what makes
// the daemon's per-device fixes byte-identical to this call.
func RunSession(rng *rand.Rand, office *sim.Office, est *tof.Estimator, cfg SessionConfig) (*SessionResult, error) {
	s, err := NewSession(rng, office, est, cfg)
	if err != nil {
		return nil, err
	}
	for i := 0; i < s.cfg.Sweeps; i++ {
		if err := s.StepSweep(); err != nil {
			return nil, err
		}
	}
	return s.Result(), nil
}
