package svc

import (
	"sync"
	"sync/atomic"

	"chronos/internal/obs"
)

// This file holds the daemon's staged execution pipeline. The classic
// path runs a device's whole sweep inline on its shard goroutine
// (run-to-completion); the staged pipeline instead cuts the sweep at the
// track.Session stage boundaries — ingest → solve → track — and runs
// each stage on its own independently sized worker pool connected by
// bounded queues:
//
//	shard timer fire ──► [ingest queue] ─► ingest pool (CSI capture, RNG)
//	                           │
//	                           ▼
//	                   [solve class queue] ─► solve pool (profile inversion)
//	                     latency ▸▸ bulk        │
//	                           ▼                ▼
//	                     [track queue] ──► track pool (Kalman, bookkeeping)
//	                           │
//	                           ▼
//	                 per-shard completion queue ─► owning shard
//	                 (retire / schedule next sweep)
//
// Ownership follows the token, not the goroutine: a sweepToken carries
// the device session through the stages, and while a token is in flight
// its shard never touches the session (the no-concurrent-token
// invariant — at most one token per device exists, enforced by the
// shard only submitting from a timer fire and only rescheduling on
// completion). Shard-exclusive state therefore stays single-threaded
// even though three different worker goroutines may step one sweep.
//
// Devices carry a scheduling class. The solve stage — the expensive,
// variance-heavy stage — dequeues latency-class tokens ahead of
// bulk-class ones (strict priority with a starvation bound), and may
// preempt an in-flight bulk solve at its duality-gap check boundaries:
// the solver parks, the token re-enqueues with its iterate retained as
// a resume seed (tof's parked-seed machinery), and the freed worker
// picks up the waiting latency token.

// Class is a device's scheduling class in the staged pipeline.
type Class int

const (
	// ClassLatency (the zero value) marks interactive devices — e.g. a
	// drone-follow stream — whose fix cadence the service protects:
	// their solves dequeue first and may preempt bulk solves.
	ClassLatency Class = iota
	// ClassBulk marks throughput devices (fleet surveys, batch
	// localization) that absorb queueing delay: their solves yield to
	// latency-class work and are preemptible at gap-check boundaries.
	ClassBulk
)

// String renders the class for logs and labels.
func (c Class) String() string {
	if c == ClassBulk {
		return "bulk"
	}
	return "latency"
}

// PipelineConfig tunes the staged pipeline.
type PipelineConfig struct {
	// Enabled switches the daemon from run-to-completion shard sweeps to
	// the staged pipeline. Off (the default) keeps the classic path.
	Enabled bool
	// IngestWorkers, SolveWorkers, TrackWorkers size the per-stage
	// pools (defaults 2, 4, 2). The solve stage dominates sweep cost,
	// so it gets the widest default pool.
	IngestWorkers, SolveWorkers, TrackWorkers int
	// QueueDepth bounds the ingest and track stage queues and the solve
	// class queue (default 256 tokens each). A full queue blocks the
	// upstream stage — backpressure, never loss. Parked-solve
	// re-enqueues bypass the bound (a worker re-queueing its own token
	// must not deadlock the stage).
	QueueDepth int
	// StarveBound caps consecutive latency-class solve grants while
	// bulk work waits (default 8): after that many, one bulk token is
	// granted even if latency tokens are queued, bounding bulk-class
	// starvation under latency saturation. The same bound caps parks
	// per bulk sweep when Preempt is armed: after StarveBound yields,
	// a sweep's remaining solves run non-preemptible.
	StarveBound int
	// Preempt arms solver preemption: while a latency-class token waits
	// in the solve queue, in-flight bulk solves park at their next
	// duality-gap check and re-enqueue (resuming later from the parked
	// iterate). Preemption changes bulk solve trajectories (park/resume
	// is numerically equivalent but not bit-identical to an unbroken
	// solve), so golden byte-identity runs leave it off.
	Preempt bool
}

func (c PipelineConfig) withDefaults() PipelineConfig {
	if c.IngestWorkers <= 0 {
		c.IngestWorkers = 2
	}
	if c.SolveWorkers <= 0 {
		c.SolveWorkers = 4
	}
	if c.TrackWorkers <= 0 {
		c.TrackWorkers = 2
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 256
	}
	if c.StarveBound <= 0 {
		c.StarveBound = 8
	}
	return c
}

// sweepToken carries one device's in-flight sweep through the stages.
// Exactly one token exists per device at a time; whichever goroutine
// holds the token owns the device session.
type sweepToken struct {
	ds    *deviceSession
	class Class
	start int64 // obs.Tick at submission (end-to-end sweep span)
	enq   int64 // obs.Tick at solve enqueue (solve-wait span)
	parks int   // times this sweep's solve parked (bounded by StarveBound)
	err   error // terminal stage error; the shard retires the device
}

// classQueue is the solve stage's two-class priority queue: strict
// latency-over-bulk dequeue with a starvation bound, a blocking bound
// on total depth, and a lock-free waiting-latency count that the bulk
// preemption hook polls from inside solver iterations.
type classQueue struct {
	mu     sync.Mutex
	nonEmp *sync.Cond // wait: poppers; signal: push
	nonFul *sync.Cond // wait: bounded pushers; signal: pop
	lat    []*sweepToken
	bulk   []*sweepToken
	depth  int
	starve int
	latRun int // consecutive latency grants while bulk waited
	closed bool

	latWaiting atomic.Int64
}

func newClassQueue(depth, starve int) *classQueue {
	q := &classQueue{depth: depth, starve: starve}
	q.nonEmp = sync.NewCond(&q.mu)
	q.nonFul = sync.NewCond(&q.mu)
	return q
}

// push enqueues a token at its class's tail, blocking while the queue
// is at depth. Returns false once the queue is closed.
func (q *classQueue) push(t *sweepToken) bool {
	q.mu.Lock()
	if len(q.lat)+len(q.bulk) >= q.depth && !q.closed {
		obsBackpressure.Inc()
		for len(q.lat)+len(q.bulk) >= q.depth && !q.closed {
			q.nonFul.Wait()
		}
	}
	return q.pushLocked(t)
}

// pushParked re-enqueues a parked bulk token at the head of its class,
// bypassing the depth bound: the pushing solve worker just freed a
// slot's worth of work, and blocking it here could deadlock the stage.
// Head placement resumes the half-done solve before fresh bulk work, so
// preemption adds latency to at most one bulk sweep at a time.
func (q *classQueue) pushParked(t *sweepToken) bool {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return false
	}
	if t.class == ClassBulk {
		q.bulk = append([]*sweepToken{t}, q.bulk...)
	} else {
		q.lat = append([]*sweepToken{t}, q.lat...)
		q.latWaiting.Add(1)
	}
	q.nonEmp.Signal()
	q.mu.Unlock()
	return true
}

func (q *classQueue) pushLocked(t *sweepToken) bool {
	if q.closed {
		q.mu.Unlock()
		return false
	}
	if t.class == ClassBulk {
		q.bulk = append(q.bulk, t)
	} else {
		q.lat = append(q.lat, t)
		q.latWaiting.Add(1)
	}
	q.nonEmp.Signal()
	q.mu.Unlock()
	return true
}

// pop dequeues the next token by class priority: latency first, except
// that after starve consecutive latency grants with bulk work waiting,
// one bulk token is granted (the starvation bound). Blocks while empty;
// returns ok=false once the queue is closed and empty.
func (q *classQueue) pop() (*sweepToken, bool) {
	q.mu.Lock()
	for len(q.lat) == 0 && len(q.bulk) == 0 && !q.closed {
		q.nonEmp.Wait()
	}
	if len(q.lat) == 0 && len(q.bulk) == 0 {
		q.mu.Unlock()
		return nil, false
	}
	var t *sweepToken
	takeLat := len(q.lat) > 0
	if takeLat && len(q.bulk) > 0 && q.latRun >= q.starve {
		takeLat = false
		obsStarveGrants.Inc()
	}
	if takeLat {
		t = q.lat[0]
		q.lat = q.lat[1:]
		q.latWaiting.Add(-1)
		if len(q.bulk) > 0 {
			q.latRun++
		} else {
			q.latRun = 0
		}
	} else {
		t = q.bulk[0]
		q.bulk = q.bulk[1:]
		q.latRun = 0
	}
	q.nonFul.Signal()
	q.mu.Unlock()
	return t, true
}

// close wakes every waiter; pops drain the remainder and then report
// ok=false.
func (q *classQueue) close() {
	q.mu.Lock()
	q.closed = true
	q.nonEmp.Broadcast()
	q.nonFul.Broadcast()
	q.mu.Unlock()
}

// depths reports the per-class queue lengths (snapshot gauges).
func (q *classQueue) depths() (lat, bulk int) {
	q.mu.Lock()
	lat, bulk = len(q.lat), len(q.bulk)
	q.mu.Unlock()
	return
}

// pipeline owns the stage queues and worker pools of one daemon.
type pipeline struct {
	d   *Daemon
	cfg PipelineConfig

	ingestQ chan *sweepToken
	solveQ  *classQueue
	trackQ  chan *sweepToken

	ingestWG, solveWG, trackWG sync.WaitGroup

	ingestBusy, solveBusy, trackBusy atomic.Int64
}

func newPipeline(d *Daemon, cfg PipelineConfig) *pipeline {
	cfg = cfg.withDefaults()
	p := &pipeline{
		d:       d,
		cfg:     cfg,
		ingestQ: make(chan *sweepToken, cfg.QueueDepth),
		solveQ:  newClassQueue(cfg.QueueDepth, cfg.StarveBound),
		trackQ:  make(chan *sweepToken, cfg.QueueDepth),
	}
	p.ingestWG.Add(cfg.IngestWorkers)
	for i := 0; i < cfg.IngestWorkers; i++ {
		go p.ingestWorker()
	}
	p.solveWG.Add(cfg.SolveWorkers)
	for i := 0; i < cfg.SolveWorkers; i++ {
		go p.solveWorker()
	}
	p.trackWG.Add(cfg.TrackWorkers)
	for i := 0; i < cfg.TrackWorkers; i++ {
		go p.trackWorker()
	}
	return p
}

// submit hands a device's next sweep to the pipeline. Called from the
// owning shard's timer fire; blocks when the ingest queue is full
// (backpressure stalls that shard's timers, never drops a sweep).
func (p *pipeline) submit(t *sweepToken) {
	select {
	case p.ingestQ <- t:
	default:
		obsBackpressure.Inc()
		p.ingestQ <- t
	}
}

// shutdown stops the pools stage by stage, upstream first. The daemon
// calls it after every shard has exited, so no further submissions can
// arrive and each close finds a queue that only drains.
func (p *pipeline) shutdown() {
	close(p.ingestQ)
	p.ingestWG.Wait()
	p.solveQ.close()
	p.solveWG.Wait()
	close(p.trackQ)
	p.trackWG.Wait()
}

// ingestWorker runs the capture stage: every RNG draw of a sweep
// happens here, on whichever worker holds the token.
func (p *pipeline) ingestWorker() {
	defer p.ingestWG.Done()
	for t := range p.ingestQ {
		p.ingestBusy.Add(1)
		tick := obs.Tick()
		err := t.ds.full.StepIngest()
		obsStageIngestNs.Since(tick)
		p.ingestBusy.Add(-1)
		if err != nil {
			t.err = err
			t.ds.shard.complete(t)
			continue
		}
		t.enq = obs.Tick()
		if !p.solveQ.push(t) {
			// Closed mid-flight (only possible on a torn-down daemon);
			// surface the sweep back to the shard unfinished.
			t.err = ErrDraining
			t.ds.shard.complete(t)
		}
	}
}

// solveWorker runs the inversion stage. Bulk-class tokens install the
// preemption hook when armed: the device estimator's solves then poll
// the queue's waiting-latency count at gap-check boundaries and park
// when latency work is behind them.
func (p *pipeline) solveWorker() {
	defer p.solveWG.Done()
	for {
		t, ok := p.solveQ.pop()
		if !ok {
			return
		}
		p.solveBusy.Add(1)
		obsStageSolveWaitNs.Since(t.enq)
		// The park cap is the preemption-side starvation bound: once a
		// sweep has yielded StarveBound times, its remaining solves run
		// non-preemptible so bulk devices make progress even under a
		// saturating latency stream.
		preemptible := p.cfg.Preempt && t.class == ClassBulk && t.parks < p.cfg.StarveBound
		if preemptible {
			q := p.solveQ
			t.ds.est.SetPreempt(func() bool { return q.latWaiting.Load() > 0 })
		}
		tick := obs.Tick()
		parked, err := t.ds.full.StepSolve()
		obsStageSolveNs.Since(tick)
		if preemptible {
			t.ds.est.SetPreempt(nil)
		}
		p.solveBusy.Add(-1)
		switch {
		case err != nil:
			t.err = err
			t.ds.shard.complete(t)
		case parked:
			t.parks++
			obsPreemptions.Inc()
			t.enq = obs.Tick()
			if !p.solveQ.pushParked(t) {
				t.err = ErrDraining
				t.ds.shard.complete(t)
			}
		default:
			p.trackQ <- t
		}
	}
}

// trackWorker runs the tracking stage and hands the finished token back
// to its owning shard. Completion delivery never blocks (per-shard
// mutex-guarded slice), so the track pool cannot be wedged by a slow
// shard.
func (p *pipeline) trackWorker() {
	defer p.trackWG.Done()
	for t := range p.trackQ {
		p.trackBusy.Add(1)
		tick := obs.Tick()
		err := t.ds.full.StepTrack()
		obsStageTrackNs.Since(tick)
		p.trackBusy.Add(-1)
		t.err = err
		if err == nil {
			obsSweepNs.Since(t.start)
			obsFullSweeps.Inc()
			t.ds.recordFixGap()
		}
		t.ds.shard.complete(t)
	}
}
