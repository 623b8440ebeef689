package svc

import (
	"runtime"
	"sync"
	"sync/atomic"

	"chronos/internal/obs"
)

// This file holds the daemon's solve pool. Every full sweep takes one
// path: the owning shard's timer fire runs StepIngest (CSI capture,
// every RNG draw of the sweep), the solve runs on a shared solve pool
// fed through a class queue, and deviceSession.finish — back on the
// shard — runs StepTrack, records the sweep metrics, and retires or
// reschedules the device:
//
//	shard timer fire: StepIngest
//	      │ push(token)
//	      ▼
//	[solve class queue] ─► solve pool (profile inversion)
//	  latency ▸▸ bulk          │
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
// bulk-class ones (strict priority with a starvation bound). A latency
// token that arrives while a bulk solve runs does not wait for it: at
// its next duality-gap check the bulk solve runs the latency solve
// inline, on the same goroutine, and then continues from its exact
// state, so preemption changes no result.

// Class is a device's scheduling class on the solve pool.
type Class int

const (
	// ClassLatency (the zero value) marks interactive devices — e.g. a
	// drone-follow stream — whose fix cadence the service protects:
	// their solves dequeue first, and a running bulk solve runs them
	// inline at its next gap check.
	ClassLatency Class = iota
	// ClassBulk marks throughput devices (fleet surveys, batch
	// localization) that absorb queueing delay: their solves dequeue
	// after latency-class work and run waiting latency solves inline.
	ClassBulk
)

// starveBound caps consecutive latency-class solve grants while bulk
// work waits: after that many, one bulk token is granted even if latency
// tokens are queued, bounding bulk-class starvation under latency
// saturation. The same bound caps the latency solves one bulk sweep runs
// inline.
const starveBound = 8

// PipelineConfig tunes the solve pool: its worker count and its queue
// depth. The class queue's starvation bound is the fixed starveBound.
type PipelineConfig struct {
	// Deprecated: ignored. Every daemon solves on its pool; the field
	// remains only because perfbench still sets it.
	Enabled bool
	// SolveWorkers sizes the solve pool (default runtime.NumCPU()).
	SolveWorkers int
	// Deprecated: ignored. Ingest and track run on the shard
	// goroutines, so Config.Shards sizes them.
	IngestWorkers, TrackWorkers int
	// QueueDepth bounds the solve class queue (default 256 tokens). A
	// full queue blocks the pushing shard — backpressure, never loss.
	QueueDepth int
	// Deprecated: ignored. A bulk solve on the pool always runs waiting
	// latency solves inline; the field remains only because perfbench
	// still sets it.
	Preempt bool
}

func (c PipelineConfig) withDefaults() PipelineConfig {
	if c.SolveWorkers <= 0 {
		c.SolveWorkers = runtime.NumCPU()
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 256
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
	// solveAt is the obs.Tick the solve span starts at. A bulk solve's
	// yield hook moves it forward past each latency solve it runs
	// inline, so the span leaves them out.
	solveAt int64
	inline  int   // latency solves this bulk sweep ran inline (≤ starveBound)
	err     error // terminal stage error; finish retires the device
}

// solve runs the sweep's inversion stage under the svc.stage.solve_ns
// span, on whichever goroutine holds the token.
func (t *sweepToken) solve() {
	t.solveAt = obs.Tick()
	_, t.err = t.ds.sess.StepSolve()
	obsStageSolveNs.Since(t.solveAt)
}

// classQueue is the solve stage's two-class priority queue: strict
// latency-over-bulk dequeue with a starvation bound (starveBound on the
// pool; tests pass smaller bounds), a blocking bound on total depth, and
// a lock-free waiting-latency count that a bulk solve's yield hook reads
// before it takes the lock.
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
	defer q.mu.Unlock()
	for len(q.lat) == 0 && len(q.bulk) == 0 && !q.closed {
		q.nonEmp.Wait()
	}
	if len(q.lat) == 0 && len(q.bulk) == 0 {
		return nil, false
	}
	if q.latencyGrantLocked() {
		return q.takeLatencyLocked(), true
	}
	t := q.bulk[0]
	q.bulk = q.bulk[1:]
	q.latRun = 0
	q.nonFul.Signal()
	return t, true
}

// popLatency dequeues the head latency token without blocking, for a
// running bulk solve's yield hook; nil when the latency lane is empty.
// It follows pop's grant rule: when the starvation bound refuses the
// grant, the bulk solve that keeps running is the bulk grant owed, so
// the run resets and nil is returned. A closed queue still hands out
// what it holds, as pop does.
func (q *classQueue) popLatency() *sweepToken {
	q.mu.Lock()
	defer q.mu.Unlock()
	if !q.latencyGrantLocked() {
		return nil
	}
	return q.takeLatencyLocked()
}

// latencyGrantLocked reports whether the head latency token may be
// granted. With bulk work waiting and starve consecutive latency grants
// behind it, the starvation bound refuses: the run resets and the
// refusal counts under svc.starve_grants.
func (q *classQueue) latencyGrantLocked() bool {
	if len(q.lat) == 0 {
		return false
	}
	if len(q.bulk) > 0 && q.latRun >= q.starve {
		q.latRun = 0
		obsStarveGrants.Inc()
		return false
	}
	return true
}

// takeLatencyLocked dequeues the head latency token and extends the run
// of latency grants while bulk work waits.
func (q *classQueue) takeLatencyLocked() *sweepToken {
	t := q.lat[0]
	q.lat = q.lat[1:]
	q.latWaiting.Add(-1)
	if len(q.bulk) > 0 {
		q.latRun++
	} else {
		q.latRun = 0
	}
	q.nonFul.Signal()
	return t
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
	p := &pipeline{cfg: cfg, solveQ: newClassQueue(cfg.QueueDepth, starveBound)}
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

// solveWorker runs solves off the class queue until it closes.
func (p *pipeline) solveWorker() {
	defer p.wg.Done()
	for {
		t, ok := p.solveQ.pop()
		if !ok {
			return
		}
		p.busy.Add(1)
		p.run(t)
		p.busy.Add(-1)
	}
}

// run solves a dequeued token and hands it back to its owning shard,
// whose finish completes the sweep; completion never blocks, so a slow
// shard cannot wedge the pool. A bulk token's solve calls runInline at
// its gap checks. Latency solves install no hook, so nesting is one
// level deep, and the worker owns both tokens while it runs them.
func (p *pipeline) run(t *sweepToken) {
	obsStageSolveWaitNs.Since(t.enq)
	if t.class == ClassBulk {
		t.ds.est.SetYield(func() { p.runInline(t) })
		t.solve()
		t.ds.est.SetYield(nil)
	} else {
		t.solve()
	}
	t.ds.shard.complete(t)
}

// runInline is a bulk solve's yield hook: while latency tokens wait and
// the sweep has run fewer than starveBound of them, it pops one and runs
// it to completion on this goroutine. The bulk solve then continues
// from its exact state, so its result does not change.
func (p *pipeline) runInline(t *sweepToken) {
	for t.inline < starveBound && p.solveQ.latWaiting.Load() > 0 {
		lt := p.solveQ.popLatency()
		if lt == nil {
			return
		}
		t.inline++
		obsPreemptions.Inc()
		paused := obs.Tick()
		p.run(lt)
		t.solveAt += obs.Tick() - paused
	}
}
