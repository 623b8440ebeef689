package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"chronos/internal/obs"
	"chronos/internal/sim"
	"chronos/internal/stats"
	"chronos/internal/svc"
	"chronos/internal/tof"
	"chronos/internal/track"
)

// procStart anchors setup_s: package initialization of a fresh process.
var procStart = time.Now()

// workloads maps each workload name to its measurement. A measurement
// sets up (every device calibrated and live), returns early in a setup
// child, and otherwise runs the fixed-work measured phase and checks the
// outputs. sp measures the host's speed throughout (speed.go).
var workloads = map[string]func(o options, sp *speedSampler, setupOnly bool) (*childResult, error){
	"track":   measureTrack,
	"fleet":   measureFleet,
	"ranging": measureRanging,
}

func measure(o options, setupOnly bool) (*childResult, error) {
	obs.SetEnabled(o.traced)
	sp := startSpeedSampler()
	defer sp.close()
	return workloads[o.workload](o, sp, setupOnly)
}

// setupDone reports the set-up time, from a fresh process until now,
// scaled to the nominal host speed.
func setupDone(sp *speedSampler) *childResult {
	return &childResult{SetupS: time.Since(procStart).Seconds() / slowdown(speedMark{}, sp.mark())}
}

// Workload shape. --seconds fixes the work of a run, not a time window: the
// same seconds value always runs the same sweeps.
const (
	fleetDevices    = 16 // track and fleet sessions
	bulkDevices     = 8  // ranging's endless bulk-class devices
	requestsPerSec  = 5  // ranging requests per --seconds
	pollInterval    = 200 * time.Microsecond
	daemonTimeout   = 120 * time.Second
	officeSeed      = 3 // the floor plan is a fixed testbed; devices come from --seed
	fleetIDBase     = 1
	bulkIDBase      = 1 << 16
	requestIDBase   = 1 << 20
	walkSpeedMps    = 1.0 // chronos-svc's default walking speed
	slowSpeedMaxMps = 0.5
)

func sweepsPerDevice(seconds int) int { return max(2, seconds) }

// device is one generated device; its config is the only input the
// program sees.
type device struct {
	id    uint64
	seed  int64
	speed float64
	nlos  bool
}

// genDevices draws n devices from rng in fixed cohort shares: of every
// four, two walk with line of sight at 0–0.5 m/s, one walks at 1 m/s and
// one has a non-line-of-sight link at 0–0.5 m/s. A seed changes the
// devices, never the mix (see NOTES.md for how the shares place the
// latency percentiles).
func genDevices(rng *rand.Rand, n int, idBase uint64) []device {
	out := make([]device, n)
	for i := range out {
		d := device{id: idBase + uint64(i), seed: rng.Int63(), speed: slowSpeedMaxMps * rng.Float64()}
		switch i % 4 {
		case 2:
			d.speed = walkSpeedMps
		case 3:
			d.nlos = true
		}
		out[i] = d
	}
	return out
}

// The estimator and session configs are the ones PerfService and
// PerfPipeline deploy.
func estimatorConfig() tof.Config {
	return tof.Config{Mode: tof.BandsFused, Quirk24: true, MaxIter: 1200}
}

func sessionConfig(d device, sweeps int) track.SessionConfig {
	return track.SessionConfig{Speed: d.speed, Sweeps: sweeps, NLOS: d.nlos,
		WarmStart: true, VelocityTranslate: true}
}

func deviceConfig(d device, sweeps int, class svc.Class) svc.DeviceConfig {
	return svc.DeviceConfig{Seed: d.seed, Class: class,
		Session: sessionConfig(d, sweeps), Estimator: estimatorConfig()}
}

func newOffice() *sim.Office {
	return sim.NewOffice(rand.New(rand.NewSource(officeSeed)), sim.OfficeConfig{})
}

// measureTrack is the single-threaded baseline: one goroutine steps the
// fleet's sessions round-robin, one sweep outstanding per device, and
// times each fix from the StepIngest call to the StepTrack return.
func measureTrack(o options, sp *speedSampler, setupOnly bool) (*childResult, error) {
	devs := genDevices(rand.New(rand.NewSource(o.seed)), fleetDevices, fleetIDBase)
	sweeps := sweepsPerDevice(o.seconds)
	office := newOffice()
	sessions := make([]*track.Session, len(devs))
	var calibrate stats.Running
	for i, d := range devs {
		t := time.Now()
		s, err := track.NewSession(rand.New(rand.NewSource(d.seed)), office,
			tof.NewEstimator(estimatorConfig()), sessionConfig(d, sweeps))
		if err != nil {
			return nil, fmt.Errorf("device %d: calibrate: %w", d.id, err)
		}
		calibrate.Add(ms(time.Since(t)))
		sessions[i] = s
	}
	res := setupDone(sp)
	if setupOnly {
		return res, nil
	}

	m := startMeter(o.traced, sp)
	fixMs := make([]float64, 0, sweeps*len(devs))
	var ingest, solve, kalman stats.Running
	for k := 0; k < sweeps; k++ {
		for i, s := range sessions {
			t0 := time.Now()
			if err := s.StepIngest(); err != nil {
				return nil, fmt.Errorf("device %d: ingest: %w", devs[i].id, err)
			}
			t1 := time.Now()
			for {
				parked, err := s.StepSolve()
				if err != nil {
					return nil, fmt.Errorf("device %d: solve: %w", devs[i].id, err)
				}
				if !parked {
					break
				}
			}
			t2 := time.Now()
			if err := s.StepTrack(); err != nil {
				return nil, fmt.Errorf("device %d: track: %w", devs[i].id, err)
			}
			t3 := time.Now()
			fixMs = append(fixMs, ms(t3.Sub(t0)))
			ingest.Add(ms(t1.Sub(t0)))
			solve.Add(ms(t2.Sub(t1)))
			kalman.Add(ms(t3.Sub(t2)))
		}
	}
	results := make(map[uint64]*track.SessionResult, len(devs))
	fixes := 0
	for i, s := range sessions {
		r := s.Result()
		results[devs[i].id] = r
		fixes += len(r.Fixes)
	}
	p := m.stop(fixes)
	p.fixMs = fixMs
	p.spans["track.calibrate_ms"] = &calibrate
	p.spans["track.ingest_ms"] = &ingest
	p.spans["track.solve_ms"] = &solve
	p.spans["track.kalman_ms"] = &kalman

	c := newChecker(o, office)
	c.sessions(devs, sweeps, results)
	p.errsCm = c.errsCm
	return c.finish(res, p), nil
}

// measureFleet runs the same devices and seeds as track through the
// daemon's run-to-completion path: virtual time, inline shard sweeps, one
// shard per CPU and an armed coalescer. A shard starts sweeping as soon as
// its own devices are calibrated, while another may still be calibrating,
// so the measured phase runs from the first Attach to Quiesce and covers
// every sweep it counts; set-up ends when every device is live.
func measureFleet(o options, sp *speedSampler, setupOnly bool) (*childResult, error) {
	devs := genDevices(rand.New(rand.NewSource(o.seed)), fleetDevices, fleetIDBase)
	sweeps := sweepsPerDevice(o.seconds)
	office := newOffice()
	d := svc.NewDaemon(svc.Config{Shards: runtime.NumCPU(), Office: office, Virtual: true, Coalesce: true})
	m := startMeter(o.traced, sp)
	for _, dev := range devs {
		if err := d.Attach(dev.id, deviceConfig(dev, sweeps, svc.ClassLatency)); err != nil {
			drain(d)
			return nil, fmt.Errorf("device %d: attach: %w", dev.id, err)
		}
	}
	waitLive(d, len(devs))
	res := setupDone(sp)
	if setupOnly {
		return res, drain(d)
	}

	// No per-fix signal leaves the daemon, so a device's fix latency is
	// its closed-loop fix interval: the phase time until it retired,
	// over its sweeps. Retirements are stamped by polling Results.
	retired := make(map[uint64]time.Duration, len(devs))
	for len(retired) < len(devs) {
		for id := range d.Results() {
			if _, ok := retired[id]; !ok {
				retired[id] = time.Since(m.wall)
			}
		}
		time.Sleep(time.Millisecond)
	}
	if err := d.Quiesce(daemonTimeout); err != nil {
		drain(d)
		return nil, err
	}
	all := d.Results()
	results := sessionResults(all)
	fixes := 0
	for _, r := range results {
		fixes += len(r.Fixes)
	}
	p := m.stop(fixes)
	if err := drain(d); err != nil {
		return nil, err
	}
	for _, at := range retired {
		p.fixMs = append(p.fixMs, ms(at)/float64(sweeps))
	}

	c := newChecker(o, office)
	c.daemonErrors(all)
	c.sessions(devs, sweeps, results)
	p.errsCm = c.errsCm
	return c.finish(res, p), nil
}

// measureRanging runs the staged pipeline (1 ingest worker, one solve
// worker per CPU, 1 track worker, preemption and coalescer armed) under
// endless bulk-class devices while one client attaches latency-class
// one-sweep requests back to back, detecting each completion by polling
// QueueDepth and Sessions. The bulk devices reveal their fix counts only
// when the daemon drains, so the measured phase runs from the first bulk
// attach to the drain.
func measureRanging(o options, sp *speedSampler, setupOnly bool) (*childResult, error) {
	rng := rand.New(rand.NewSource(o.seed))
	bulk := genDevices(rng, bulkDevices, bulkIDBase)
	reqs := genDevices(rng, requestsPerSec*o.seconds, requestIDBase)
	office := newOffice()
	nproc := runtime.NumCPU()
	d := svc.NewDaemon(svc.Config{Shards: nproc, Office: office, Virtual: true, Coalesce: true,
		Pipeline: svc.PipelineConfig{Enabled: true, IngestWorkers: 1, SolveWorkers: nproc,
			TrackWorkers: 1, Preempt: true}})
	m := startMeter(o.traced, sp)
	for _, dev := range bulk {
		if err := d.Attach(dev.id, deviceConfig(dev, -1, svc.ClassBulk)); err != nil {
			drain(d)
			return nil, fmt.Errorf("device %d: attach: %w", dev.id, err)
		}
	}
	waitLive(d, len(bulk))
	res := setupDone(sp)
	if setupOnly {
		return res, drain(d)
	}

	live := d.Sessions()
	fixMs := make([]float64, 0, len(reqs))
	var attach, transit stats.Running
	for _, r := range reqs {
		t0 := time.Now()
		if err := d.Attach(r.id, deviceConfig(r, 1, svc.ClassLatency)); err != nil {
			drain(d)
			return nil, fmt.Errorf("request %d: attach: %w", r.id, err)
		}
		for d.QueueDepth() > 0 {
			time.Sleep(pollInterval)
		}
		t1 := time.Now()
		for d.Sessions() > live {
			time.Sleep(pollInterval)
		}
		t2 := time.Now()
		fixMs = append(fixMs, ms(t2.Sub(t0)))
		attach.Add(ms(t1.Sub(t0)))
		transit.Add(ms(t2.Sub(t1)))
	}
	if err := drain(d); err != nil {
		return nil, err
	}
	all := d.Results()
	fixes := 0
	for _, r := range all {
		if r.Session != nil {
			fixes += len(r.Session.Fixes)
		}
	}
	p := m.stop(fixes)
	p.fixMs = fixMs
	p.spans["svc.attach_ms"] = &attach
	p.spans["svc.transit_ms"] = &transit

	c := newChecker(o, office)
	c.daemonErrors(all)
	results := sessionResults(all)
	// Accuracy and the byte-for-byte comparison cover the latency-class
	// requests only: their solves never park, while bulk solves are
	// preempted, which changes their numerics.
	c.sessions(reqs, 1, results)
	for _, b := range bulk {
		r := results[b.id]
		if r == nil || len(r.Fixes) == 0 {
			c.fail(1, "bulk device %d retired without a fix", b.id)
			continue
		}
		c.attempted += len(r.Fixes)
		c.finite(b.id, r)
	}
	p.errsCm = c.errsCm
	return c.finish(res, p), nil
}

// waitLive polls until every one of n attached devices has been built
// (calibrated) by its shard: live, or already retired.
func waitLive(d *svc.Daemon, n int) {
	for d.Sessions()+len(d.Results()) < n || d.QueueDepth() > 0 {
		time.Sleep(pollInterval)
	}
}

// drain stops the daemon and waits for its goroutines.
func drain(d *svc.Daemon) error {
	_, err := d.Drain(daemonTimeout)
	return err
}

// sessionResults extracts the full-pipeline session results by device.
func sessionResults(all map[uint64]*svc.DeviceResult) map[uint64]*track.SessionResult {
	out := make(map[uint64]*track.SessionResult, len(all))
	for id, r := range all {
		if r.Session != nil {
			out[id] = r.Session
		}
	}
	return out
}
