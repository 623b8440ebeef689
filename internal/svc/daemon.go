// Package svc is the always-on localization service: a long-running
// daemon that continuously tracks every attached device through the full
// Chronos pipeline. It is organized around per-shard exclusive ownership
// (modeled on ndn-dpdk's service architecture): devices shard by an FNV
// hash of their ID, each shard's goroutine exclusively owns its
// sessions' warm solver state, Kalman trackers, and alias-window seeds —
// no cross-shard locking on any per-device state — and each shard paces
// its sessions' sweeps on its own mac.Sim event queue. A full sweep's
// ingest and track stages run on its shard; the solve between them runs
// on the daemon's solve pool, with latency/bulk scheduling classes (see
// pipeline.go). Every solve is one Plan.Solve of one device's band
// group; the internal/obs layer is the management surface.
//
// The event queues, and therefore the whole daemon, run on virtual time
// under test and wall time in production: in virtual mode a shard runs
// its queue straight to the next due timer, so a daemon run is
// deterministic per device — byte-identical to sequential
// track.RunSession calls with the same seeds, at any shard count and
// pool size, and whether or not bulk solves run latency solves inline.
package svc

import (
	"errors"
	"fmt"
	"hash/fnv"
	"sync"
	"sync/atomic"
	"time"

	"chronos/internal/mac"
	"chronos/internal/obs"
	"chronos/internal/sim"
	"chronos/internal/tof"
	"chronos/internal/track"
)

// Config tunes a daemon.
type Config struct {
	// Shards is the worker-shard count (default 4). Devices map to
	// shards by FNV-1a over the device ID — the same hashing discipline
	// the campaign engine uses for per-trial seeds — so a device's
	// sessions always land on one shard and its warm solver state,
	// Kalman tracker, and alias-window seeds are shard-exclusive.
	Shards int
	// Office is the shared multipath world every session ranges in
	// (required: Attach refuses every device without it; read-only
	// during operation).
	Office *sim.Office
	// Virtual runs the shard loops on virtual time: each shard runs its
	// event queue straight to the next due timer instead of pacing
	// against the wall clock. Sessions execute identically — virtual
	// mode is how the test harness, the pipeline campaign and perfbench
	// make daemon runs deterministic and faster than real time.
	Virtual bool
	// Deprecated: ignored. Every solve runs alone; the field remains
	// only because perfbench still sets it.
	Coalesce bool
	// QueueDepth bounds each shard's pending lifecycle-command queue
	// (default 1024). Attach blocks when the owning shard's queue is
	// full — backpressure, not loss.
	QueueDepth int
	// Pipeline sizes the solve pool that runs every full sweep's solve,
	// between the ingest and track its shard runs (see pipeline.go).
	Pipeline PipelineConfig
}

func (c Config) withDefaults() Config {
	if c.Shards <= 0 {
		c.Shards = 4
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 1024
	}
	return c
}

// DeviceConfig describes one device attached to the daemon: a
// full-pipeline track.Session ranging in Config.Office.
type DeviceConfig struct {
	// Seed seeds the device's private RNG; every random draw the device
	// makes (walk waypoints, radio noise, channel fading) comes from it,
	// which is what makes daemon runs reproducible per device.
	Seed int64
	// Class is the device's scheduling class on the solve pool (default
	// ClassLatency). Bulk-class devices yield the pool to latency-class
	// work: their solves dequeue after it and run waiting latency solves
	// inline at their gap checks.
	Class Class
	// Session configures the device's track.Session. Session.Sweeps < 0
	// keeps the device tracked until detach or drain.
	Session track.SessionConfig
	// Estimator configures the device's tof.Estimator. The zero value
	// is the estimator default config.
	Estimator tof.Config
}

// DeviceResult is one retired device's outcome, collected at session
// completion, detach, or drain.
type DeviceResult struct {
	ID uint64
	// Fixes is the device's total fix count.
	Fixes int
	// Session is the device's session result (nil when the session never
	// built); partial when the device was detached or drained
	// mid-stream.
	Session *track.SessionResult
	// Err records a session that failed to build or stream (calibration
	// failure, malformed config); such devices retire immediately.
	Err error
}

// ErrDraining rejects lifecycle calls after Drain has begun.
var ErrDraining = errors.New("svc: daemon is draining")

// Daemon is the always-on localization service: N worker shards, each
// exclusively owning the sessions of the devices that hash to it and
// driving their sweeps from a private mac.Sim event queue. See the
// package comment for the ownership model.
type Daemon struct {
	cfg    Config
	pipe   *pipeline // solve pool
	shards []*shard
	start  time.Time

	// A lifecycle command holds mu shared from its draining check until
	// its command is queued or refused; Drain takes it exclusively
	// before it stops the shards, so every accepted command reaches a
	// live shard. refuse, closed when Drain begins, releases senders
	// blocked on a full queue; stopCh, closed once no send is in
	// flight, stops the shards.
	mu       sync.RWMutex
	draining atomic.Bool
	refuse   chan struct{}
	stopCh   chan struct{}
	wg       sync.WaitGroup

	// results holds every retirement by ID; shards write it under resMu,
	// once per device lifetime.
	resMu   sync.Mutex
	results map[uint64]*DeviceResult
}

// NewDaemon builds and starts a daemon: shard goroutines and solve
// workers spin up immediately and idle until devices attach. Stop it
// with Drain.
func NewDaemon(cfg Config) *Daemon {
	cfg = cfg.withDefaults()
	d := &Daemon{
		cfg:     cfg,
		start:   time.Now(),
		results: make(map[uint64]*DeviceResult),
		refuse:  make(chan struct{}),
		stopCh:  make(chan struct{}),
		pipe:    newPipeline(cfg.Pipeline),
	}
	d.shards = make([]*shard, cfg.Shards)
	for i := range d.shards {
		d.shards[i] = newShard(d, i)
	}
	currentDaemon.Store(d)
	d.wg.Add(len(d.shards))
	for _, s := range d.shards {
		go s.run()
	}
	return d
}

// shardFor maps a device ID to its owning shard: FNV-1a over the ID's
// little-endian bytes, mod the shard count — the PR-1 seed-hashing
// discipline, so the mapping is stable across runs and shard restarts.
func (d *Daemon) shardFor(id uint64) *shard {
	h := fnv.New64a()
	var b [8]byte
	for i := 0; i < 8; i++ {
		b[i] = byte(id >> (8 * i))
	}
	h.Write(b[:])
	return d.shards[h.Sum64()%uint64(len(d.shards))]
}

// Attach registers a device and schedules its first sweep on its owning
// shard. It is asynchronous: the shard builds (and calibrates) the
// session on its own goroutine, so Attach returns once the command is
// enqueued. A duplicate ID retires immediately with an error recorded in
// its DeviceResult. Attach blocks only when the shard's command queue is
// full, and fails without Config.Office or once draining has begun.
func (d *Daemon) Attach(id uint64, cfg DeviceConfig) error {
	if d.cfg.Office == nil {
		return errors.New("svc: Attach requires Config.Office")
	}
	return d.send(shardCmd{attach: true, id: id, cfg: cfg}, obsAttaches)
}

// Detach removes a device: its session retires with whatever it has
// streamed so far. Asynchronous like Attach; detaching an unknown ID is
// recorded (and counted) when the owning shard processes the command.
func (d *Daemon) Detach(id uint64) error {
	return d.send(shardCmd{id: id}, obsDetaches)
}

// send queues a lifecycle command on its device's shard and counts it,
// or refuses it once draining has begun. It holds mu shared throughout,
// so Drain cannot stop the shards between the check and the enqueue;
// Drain closes refuse before it takes mu, so a send blocked on a full
// queue never holds Drain up.
func (d *Daemon) send(c shardCmd, accepted *obs.Counter) error {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if d.draining.Load() {
		return ErrDraining
	}
	s := d.shardFor(c.id)
	s.pending.Add(1)
	select {
	case s.cmds <- c:
		accepted.Inc()
		return nil
	case <-d.refuse:
		s.pending.Add(-1)
		return ErrDraining
	}
}

// Results snapshots the retired devices by ID and returns a copy. A
// device's retirements all happen on its owning shard, in order, so a
// duplicate ID's later retirement wins. Complete only after Quiesce
// (finite fleets) or Drain.
func (d *Daemon) Results() map[uint64]*DeviceResult {
	d.resMu.Lock()
	defer d.resMu.Unlock()
	out := make(map[uint64]*DeviceResult, len(d.results))
	for k, v := range d.results {
		out[k] = v
	}
	return out
}

// Sessions reports the live session count across shards.
func (d *Daemon) Sessions() int {
	n := int64(0)
	for _, s := range d.shards {
		n += s.live.Load()
	}
	return int(n)
}

// QueueDepth reports the pending lifecycle commands across shards.
func (d *Daemon) QueueDepth() int {
	n := int64(0)
	for _, s := range d.shards {
		n += s.pending.Load()
	}
	return int(n)
}

// PendingTimers reports scheduled-but-unfired sweep timers across shards.
func (d *Daemon) PendingTimers() int {
	n := int64(0)
	for _, s := range d.shards {
		n += s.timers.Load()
	}
	return int(n)
}

// Quiesce blocks until every shard is idle — no live sessions, no
// pending commands, no scheduled timers — or the timeout expires. It is
// how finite-fleet runs (the golden harness, perfbench's fleet workload)
// wait for completion; an always-on fleet with endless sessions never
// quiesces.
func (d *Daemon) Quiesce(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		if d.Sessions() == 0 && d.QueueDepth() == 0 && d.PendingTimers() == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("svc: quiesce timed out with %d sessions, %d queued cmds, %d timers",
				d.Sessions(), d.QueueDepth(), d.PendingTimers())
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// Drain gracefully stops the daemon: admissions close immediately (a
// sender blocked on a full shard queue is refused too, so Drain never
// waits on one), each shard applies the commands it accepted, finishes
// the sweep it is executing, cancels the remaining schedule, retires
// every live session with its partial results, and exits. Drain waits
// for the shards up to timeout, stops the solve pool and then captures
// the final metrics snapshot. A second Drain returns ErrDraining.
func (d *Daemon) Drain(timeout time.Duration) (*obs.Snapshot, error) {
	if d.draining.Swap(true) {
		return nil, ErrDraining
	}
	// Refuse senders blocked on a full queue, wait out every send still
	// in flight, then stop the shards: their shutdown finds each
	// accepted command queued.
	close(d.refuse)
	d.mu.Lock()
	close(d.stopCh)
	d.mu.Unlock()

	done := make(chan struct{})
	go func() {
		d.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(timeout):
		return nil, fmt.Errorf("svc: drain timed out after %v", timeout)
	}
	// Every shard has exited with all its tokens home, so the solve queue
	// is empty and nothing pushes again.
	d.pipe.stop()
	obsDrains.Inc()
	return obs.Capture(), nil
}

// shardCmd is one lifecycle command bound for a shard.
type shardCmd struct {
	attach bool
	id     uint64
	cfg    DeviceConfig
}

// shard owns a disjoint set of device sessions: the only goroutine that
// touches them is the shard's run loop — except while a session's sweep
// token is out in the solve pool, during which the token's holder owns
// the session and the shard keeps its hands off until the token comes
// home. The atomic mirrors (live, timers, pending, inflight) exist for
// the management surface — gauges and Quiesce read them cross-shard.
type shard struct {
	d    *Daemon
	id   int
	sim  *mac.Sim // the sessions' timers, on wall or virtual time
	cmds chan shardCmd

	sessions map[uint64]*deviceSession

	live     atomic.Int64 // live sessions (mirror of len(sessions))
	timers   atomic.Int64 // pending timers (mirror of sim.Pending())
	pending  atomic.Int64 // queued-but-unprocessed commands
	inflight atomic.Int64 // sweep tokens out in the solve pool

	// comps is the completion mailbox: solve workers append solved
	// tokens (never blocking) and nudge compWake; the shard drains it
	// on its own goroutine, where finishing a sweep is safe.
	compMu   sync.Mutex
	comps    []*sweepToken
	compWake chan struct{}
}

func newShard(d *Daemon, id int) *shard {
	return &shard{
		d:        d,
		id:       id,
		sim:      mac.NewSim(),
		cmds:     make(chan shardCmd, d.cfg.QueueDepth),
		sessions: make(map[uint64]*deviceSession),
		compWake: make(chan struct{}, 1),
	}
}

// retire records a finished device in the daemon's results. Called from
// the shard goroutine only.
func (s *shard) retire(r *DeviceResult) {
	s.d.resMu.Lock()
	s.d.results[r.ID] = r
	s.d.resMu.Unlock()
	obsRetired.Inc()
}

// complete delivers a solved sweep token back to its owning shard.
// Called from solve workers; never blocks.
func (s *shard) complete(t *sweepToken) {
	s.compMu.Lock()
	s.comps = append(s.comps, t)
	s.compMu.Unlock()
	select {
	case s.compWake <- struct{}{}:
	default:
	}
}

// drainCompletions finishes every token the solve pool has handed
// back, on the shard goroutine. With retiring=true (shutdown) finish
// still tracks each solved sweep but reschedules nothing — live
// sessions stay in the map for the final retirement pass.
func (s *shard) drainCompletions(retiring bool) {
	s.compMu.Lock()
	list := s.comps
	s.comps = nil
	s.compMu.Unlock()
	for _, t := range list {
		t.ds.inflight = false
		s.inflight.Add(-1)
		t.ds.finish(t, retiring)
	}
}

// run is the shard loop. Virtual mode: drain completions and commands,
// run the event queue straight to its next due timer, repeat; block
// only when idle (no timers and nothing in flight). Wall mode: one Run
// fires every timer due at this wakeup, then the loop sleeps until the
// earliest pending timer is due, or blocks indefinitely on lifecycle
// traffic, completions, and stop when no timer is pending.
func (s *shard) run() {
	defer s.d.wg.Done()
	for {
		s.drainCompletions(false)
		s.drainCmds()
		if s.stopRequested() {
			s.shutdown()
			return
		}
		if s.d.cfg.Virtual {
			if next, ok := s.sim.Next(); ok {
				s.sim.Run(next)
				s.timers.Store(int64(s.sim.Pending()))
				continue
			}
			// No timers: wait for solve-pool completions (whose finish
			// schedules the next timer), lifecycle traffic, or stop.
			select {
			case <-s.compWake:
			case c := <-s.cmds:
				s.apply(c)
			case <-s.d.stopCh:
			}
			continue
		}

		s.sim.Run(time.Since(s.d.start))
		s.timers.Store(int64(s.sim.Pending()))
		var tmr *time.Timer
		var timerC <-chan time.Time
		if due, ok := s.sim.Next(); ok {
			wait := due - time.Since(s.d.start)
			if wait <= 0 {
				continue
			}
			tmr = time.NewTimer(wait)
			timerC = tmr.C
		}
		select {
		case c := <-s.cmds:
			s.apply(c)
		case <-s.compWake:
		case <-s.d.stopCh:
		case <-timerC:
		}
		if tmr != nil {
			tmr.Stop()
		}
	}
}

// stopRequested reports whether drain has been signaled.
func (s *shard) stopRequested() bool {
	select {
	case <-s.d.stopCh:
		return true
	default:
		return false
	}
}

// drainCmds applies every queued command without blocking.
func (s *shard) drainCmds() {
	for {
		c, ok := s.takeCmd()
		if !ok {
			return
		}
		s.apply(c)
	}
}

// takeCmd pops one queued command without blocking.
func (s *shard) takeCmd() (shardCmd, bool) {
	select {
	case c := <-s.cmds:
		return c, true
	default:
		return shardCmd{}, false
	}
}

// apply processes one lifecycle command on the shard goroutine.
func (s *shard) apply(c shardCmd) {
	defer s.pending.Add(-1)
	if c.attach {
		s.attach(c.id, c.cfg)
		return
	}
	ds, ok := s.sessions[c.id]
	if !ok {
		obsAttachErrors.Inc()
		return
	}
	if ds.inflight {
		// The session is out in the solve pool; finish performs the
		// removal once the token comes home.
		ds.detachWanted = true
		return
	}
	s.remove(ds, nil)
}

// attach builds the device's session and schedules its first sweep.
func (s *shard) attach(id uint64, cfg DeviceConfig) {
	if _, dup := s.sessions[id]; dup {
		obsAttachErrors.Inc()
		s.retire(&DeviceResult{ID: id, Err: fmt.Errorf("svc: device %d already attached", id)})
		return
	}
	ds, err := newDeviceSession(s, id, cfg)
	if err != nil {
		obsAttachErrors.Inc()
		s.retire(&DeviceResult{ID: id, Err: err})
		return
	}
	s.sessions[id] = ds
	s.live.Add(1)
	ds.scheduleNext()
	s.timers.Store(int64(s.sim.Pending()))
}

// remove retires a session and cancels its schedule.
func (s *shard) remove(ds *deviceSession, err error) {
	ds.timer.Cancel()
	ds.timer = nil
	delete(s.sessions, ds.id)
	s.live.Add(-1)
	s.timers.Store(int64(s.sim.Pending()))
	s.retire(ds.result(err))
}

// shutdown drains the shard at stop: leftover queued attaches retire
// as ErrDraining without building (accounted, never lost), queued
// detaches apply, tokens out in the solve pool come home and finish,
// every live session retires with partial results, and its timer is
// canceled.
func (s *shard) shutdown() {
	for {
		c, ok := s.takeCmd()
		if !ok {
			break
		}
		if !c.attach {
			s.apply(c)
			continue
		}
		s.retire(&DeviceResult{ID: c.id, Err: ErrDraining})
		s.pending.Add(-1)
	}
	// Wait out sweeps still in the solve pool: their tokens own the
	// session state, so retiring before they land would race the
	// workers. The pool keeps solving until every token is home.
	for s.inflight.Load() > 0 {
		<-s.compWake
		s.drainCompletions(true)
	}
	s.drainCompletions(true)
	for _, ds := range s.sessions {
		ds.timer.Cancel()
		ds.timer = nil
		s.retire(ds.result(nil))
	}
	s.sessions = make(map[uint64]*deviceSession)
	s.live.Store(0)
	s.timers.Store(0)
}
