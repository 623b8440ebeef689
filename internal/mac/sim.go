// Package mac provides the deterministic virtual-time substrate for every
// protocol-level experiment: a discrete-event simulator, a lossy wireless
// link model, and message scheduling between simulated stations. Nothing
// here reads a clock: a simulator's owner decides how far each Run
// advances, so protocol runs are fast and exactly reproducible from a
// seed, and the chronos-svc daemon shards pace their sessions on one, on
// wall or virtual time.
package mac

import (
	"container/heap"
	"math/rand"
	"time"
)

// Event is a scheduled callback.
type event struct {
	at  time.Duration
	seq uint64 // tie-breaker for events at the same instant (FIFO)
	// fn is nil once the event fired or was canceled; canceled events
	// stay in the heap and are skipped on pop.
	fn func()
}

type eventQueue []*event

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q eventQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *eventQueue) Push(x any)   { *q = append(*q, x.(*event)) }
func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return e
}

// Sim is a single-threaded discrete-event simulator.
type Sim struct {
	now   time.Duration
	queue eventQueue
	seq   uint64
	live  int // queued events neither fired nor canceled
}

// NewSim returns a simulator at time zero.
func NewSim() *Sim { return &Sim{} }

// Now returns the current virtual time.
func (s *Sim) Now() time.Duration { return s.now }

// Timer is a handle that can cancel a scheduled event.
type Timer struct {
	s  *Sim
	ev *event
}

// Cancel prevents the timer's callback from running. Safe to call more
// than once or after the callback fired.
func (t *Timer) Cancel() {
	if t != nil && t.ev != nil && t.ev.fn != nil {
		t.ev.fn = nil
		t.s.live--
	}
}

// Schedule runs fn after delay of virtual time and returns a cancellable
// handle. A negative delay is treated as zero (run at the current
// instant, after already-queued events at this instant).
func (s *Sim) Schedule(delay time.Duration, fn func()) *Timer {
	if delay < 0 {
		delay = 0
	}
	ev := &event{at: s.now + delay, seq: s.seq, fn: fn}
	s.seq++
	s.live++
	heap.Push(&s.queue, ev)
	return &Timer{s: s, ev: ev}
}

// step pops the head event and runs it unless it was canceled,
// reporting whether a callback ran.
func (s *Sim) step() bool {
	ev := heap.Pop(&s.queue).(*event)
	fn := ev.fn
	if fn == nil {
		return false
	}
	ev.fn = nil
	s.live--
	s.now = ev.at
	fn()
	return true
}

// Run processes events until the queue empties or virtual time would pass
// until. It returns the number of events executed.
func (s *Sim) Run(until time.Duration) int {
	n := 0
	for len(s.queue) > 0 && s.queue[0].at <= until {
		if s.step() {
			n++
		}
	}
	if s.now < until {
		s.now = until
	}
	return n
}

// RunAll processes every pending event (including ones scheduled while
// running) and returns the count. Use only with protocols that terminate.
func (s *Sim) RunAll() int {
	n := 0
	for len(s.queue) > 0 {
		if s.step() {
			n++
		}
	}
	return n
}

// Pending returns the number of scheduled events that have neither fired
// nor been canceled.
func (s *Sim) Pending() int { return s.live }

// Next returns the due time of the earliest pending event, first
// dropping canceled events from the head of the queue. It reports false
// when nothing is pending.
func (s *Sim) Next() (time.Duration, bool) {
	for len(s.queue) > 0 {
		if head := s.queue[0]; head.fn != nil {
			return head.at, true
		}
		heap.Pop(&s.queue)
	}
	return 0, false
}

// Link is a half-duplex lossy link between two stations. Delivery takes
// Latency; each frame independently drops with probability LossProb.
type Link struct {
	Sim      *Sim
	Latency  time.Duration // propagation + processing latency
	LossProb float64
	Rng      *rand.Rand
}

// Send delivers a frame to the receiver callback after Latency, or drops
// it. Loss happens silently at the receiver, as in a real radio: the
// sender learns of it only by the missing reply.
func (l *Link) Send(deliver func()) {
	if l.Rng != nil && l.Rng.Float64() < l.LossProb {
		return // lost in flight: receiver never sees it
	}
	l.Sim.Schedule(l.Latency, deliver)
}
