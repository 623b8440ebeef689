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

// event is one scheduled callback, fn(arg). Events are recycled: once
// popped from the queue (fired, or canceled and skipped) an event
// returns to its simulator's free list with its generation bumped,
// which voids every Timer still naming it. So a simulator whose queue
// has stopped growing schedules without allocating.
type event struct {
	at  time.Duration
	seq uint64 // tie-breaker for events at the same instant (FIFO)
	gen uint64 // recycles so far; a Timer holds the one it was issued at
	// fn is nil once the event fired or was canceled; canceled events
	// stay in the heap and are skipped on pop.
	fn  func(uint64)
	arg uint64
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
	free  []*event // popped events, ready for reuse
	seq   uint64
	live  int // queued events neither fired nor canceled
}

// NewSim returns a simulator at time zero.
func NewSim() *Sim { return &Sim{} }

// Now returns the current virtual time.
func (s *Sim) Now() time.Duration { return s.now }

// Timer is a handle that can cancel a scheduled event. It names the
// event and the generation it was scheduled at, so once the event has
// fired or been canceled, and its storage has been recycled for a later
// event, the Timer cancels nothing. The zero Timer cancels nothing.
type Timer struct {
	s   *Sim
	ev  *event
	gen uint64
}

// Cancel prevents the timer's callback from running. Safe to call more
// than once or after the callback fired.
func (t Timer) Cancel() {
	if ev := t.ev; ev != nil && ev.gen == t.gen && ev.fn != nil {
		ev.fn = nil
		t.s.live--
	}
}

// Schedule runs fn(arg) after delay of virtual time and returns a
// cancellable handle. A negative delay is treated as zero (run at the
// current instant, after already-queued events at this instant). A
// protocol binds its handlers once and carries each event's state in
// arg, so scheduling allocates no closure.
func (s *Sim) Schedule(delay time.Duration, fn func(uint64), arg uint64) Timer {
	if delay < 0 {
		delay = 0
	}
	var ev *event
	if n := len(s.free); n > 0 {
		ev, s.free = s.free[n-1], s.free[:n-1]
	} else {
		ev = new(event)
	}
	ev.at, ev.seq, ev.fn, ev.arg = s.now+delay, s.seq, fn, arg
	s.seq++
	s.live++
	heap.Push(&s.queue, ev)
	return Timer{s: s, ev: ev, gen: ev.gen}
}

// pop removes the head event from the queue and recycles it, returning
// what it held.
func (s *Sim) pop() (at time.Duration, fn func(uint64), arg uint64) {
	ev := heap.Pop(&s.queue).(*event)
	at, fn, arg = ev.at, ev.fn, ev.arg
	ev.gen++
	ev.fn = nil
	s.free = append(s.free, ev)
	return at, fn, arg
}

// step pops the head event and runs it unless it was canceled,
// reporting whether a callback ran. The event is recycled before its
// callback runs, so the callback's own schedules may reuse it.
func (s *Sim) step() bool {
	at, fn, arg := s.pop()
	if fn == nil {
		return false
	}
	s.live--
	s.now = at
	fn(arg)
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
		s.pop()
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

// Send delivers a frame, its content arg, to the receiver callback as
// deliver(arg) after Latency, or drops it. Loss happens silently at the
// receiver, as in a real radio: the sender learns of it only by the
// missing reply.
func (l *Link) Send(deliver func(uint64), arg uint64) {
	if l.Rng != nil && l.Rng.Float64() < l.LossProb {
		return // lost in flight: receiver never sees it
	}
	l.Sim.Schedule(l.Latency, deliver, arg)
}
