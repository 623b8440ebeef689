package svc

import (
	"sync"
	"sync/atomic"

	"chronos/internal/obs"
)

// This file holds the daemon's solve pool. Every full sweep takes one
// path: the owning shard's timer fire runs StepIngest (CSI capture,
// every RNG draw of the sweep), then the solve runs, and
// deviceSession.finish — back on the shard — runs StepTrack, records the
// sweep metrics, and retires or reschedules the device. The one choice
// is where the solve runs: on the shard goroutine itself (the default),
// or, with PipelineConfig.Enabled, on a shared solve pool fed through a
// class queue:
//
//	shard timer fire: StepIngest
//	      │ push(token)
//	      ▼
//	[solve class queue] ─► solve pool (profile inversion)
//	  latency ▸▸ bulk          │ park ⤴ (head of its lane)
//	                           ▼
//	per-shard completion queue ─► owning shard: finish
//	                              (StepTrack, retire or reschedule)
//
// Ownership follows the token, not the goroutine: a sweepToken carries
// the device session to the pool and back, and while a token is out its
// shard never touches the session (the no-concurrent-token invariant —
// at most one token per device exists, because the shard pushes one
// only from a timer fire and reschedules only in finish).
//
// Devices carry a scheduling class. The solve — the expensive,
// variance-heavy stage — dequeues latency-class tokens ahead of
// bulk-class ones (strict priority with a starvation bound), and may
// preempt an in-flight bulk solve at its duality-gap check boundaries:
// the solver parks, the token re-enqueues with its iterate retained as
// a resume seed (tof's parked-seed machinery), and the freed worker
// picks up the waiting latency token.

// Class is a device's scheduling class on the solve pool.
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

// PipelineConfig tunes the solve pool.
type PipelineConfig struct {
	// Enabled moves every full sweep's solve off its shard onto the
	// shared solve pool. Off (the default), the shard runs the solve
	// itself, between the ingest and track it always runs.
	Enabled bool
	// SolveWorkers sizes the solve pool (default 4).
	SolveWorkers int
	// Deprecated: ignored. Ingest and track run on the shard
	// goroutines, so Config.Shards sizes them.
	IngestWorkers, TrackWorkers int
	// QueueDepth bounds the solve class queue (default 256 tokens). A
	// full queue blocks the pushing shard — backpressure, never loss.
	// Parked-solve re-enqueues bypass the bound (a worker re-queueing
	// its own token must not deadlock the pool).
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
	if c.SolveWorkers <= 0 {
		c.SolveWorkers = 4
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 256
	}
	if c.StarveBound <= 0 {
		c.StarveBound = 8
	}
	return c
}

// sweepToken carries one device's in-flight sweep from ingest to
// finish. Exactly one token exists per device at a time; whichever
// goroutine holds the token owns the device session.
type sweepToken struct {
	ds    *deviceSession
	class Class
	start int64 // obs.Tick at the timer fire (end-to-end sweep span)
	enq   int64 // obs.Tick at solve enqueue (solve-wait span)
	parks int   // times this sweep's solve parked (bounded by StarveBound)
	err   error // terminal stage error; finish retires the device
}

// solve runs the sweep's inversion stage under the svc.stage.solve_ns
// span, on whichever goroutine holds the token. parked reports a solve
// that yielded to the preemption hook mid-iterate.
func (t *sweepToken) solve() (parked bool) {
	tick := obs.Tick()
	parked, t.err = t.ds.full.StepSolve()
	obsStageSolveNs.Since(tick)
	return parked
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

// pipeline is one daemon's solve pool and the class queue feeding it.
type pipeline struct {
	cfg    PipelineConfig
	solveQ *classQueue
	wg     sync.WaitGroup
	busy   atomic.Int64 // workers inside a solve (utilization gauge)
}

func newPipeline(cfg PipelineConfig) *pipeline {
	cfg = cfg.withDefaults()
	p := &pipeline{cfg: cfg, solveQ: newClassQueue(cfg.QueueDepth, cfg.StarveBound)}
	p.wg.Add(cfg.SolveWorkers)
	for i := 0; i < cfg.SolveWorkers; i++ {
		go p.solveWorker()
	}
	return p
}

// stop closes the solve queue and returns once every worker has
// drained it and exited.
func (p *pipeline) stop() {
	p.solveQ.close()
	p.wg.Wait()
}

// solveWorker runs solves off the class queue and hands each solved
// token back to its owning shard, whose finish completes the sweep.
// Bulk-class tokens install the preemption hook when armed: the device
// estimator's solves then poll the queue's waiting-latency count at
// gap-check boundaries and park when latency work is behind them.
func (p *pipeline) solveWorker() {
	defer p.wg.Done()
	for {
		t, ok := p.solveQ.pop()
		if !ok {
			return
		}
		p.busy.Add(1)
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
		parked := t.solve()
		if preemptible {
			t.ds.est.SetPreempt(nil)
		}
		p.busy.Add(-1)
		if parked {
			t.parks++
			obsPreemptions.Inc()
			t.enq = obs.Tick()
			if p.solveQ.pushParked(t) {
				continue
			}
			t.err = ErrDraining
		}
		// Completion delivery never blocks (per-shard mutex-guarded
		// slice), so a slow shard cannot wedge the pool.
		t.ds.shard.complete(t)
	}
}
