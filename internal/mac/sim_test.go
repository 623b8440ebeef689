package mac

import (
	"math/rand"
	"sort"
	"testing"
	"time"
)

func TestScheduleOrdering(t *testing.T) {
	s := NewSim()
	var order []int
	s.Schedule(3*time.Millisecond, func() { order = append(order, 3) })
	s.Schedule(1*time.Millisecond, func() { order = append(order, 1) })
	s.Schedule(2*time.Millisecond, func() { order = append(order, 2) })
	s.RunAll()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Errorf("order = %v", order)
	}
	if s.Now() != 3*time.Millisecond {
		t.Errorf("now = %v", s.Now())
	}
}

func TestScheduleSameInstantFIFO(t *testing.T) {
	s := NewSim()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.Schedule(time.Millisecond, func() { order = append(order, i) })
	}
	s.RunAll()
	for i, v := range order {
		if v != i {
			t.Fatalf("FIFO violated: %v", order)
		}
	}
}

func TestNestedScheduling(t *testing.T) {
	s := NewSim()
	var hits []time.Duration
	s.Schedule(time.Millisecond, func() {
		hits = append(hits, s.Now())
		s.Schedule(time.Millisecond, func() {
			hits = append(hits, s.Now())
		})
	})
	s.RunAll()
	if len(hits) != 2 || hits[0] != time.Millisecond || hits[1] != 2*time.Millisecond {
		t.Errorf("hits = %v", hits)
	}
}

func TestRunUntilStopsEarly(t *testing.T) {
	s := NewSim()
	ran := false
	s.Schedule(10*time.Millisecond, func() { ran = true })
	n := s.Run(5 * time.Millisecond)
	if n != 0 || ran {
		t.Error("event beyond horizon executed")
	}
	if s.Now() != 5*time.Millisecond {
		t.Errorf("now = %v, want horizon", s.Now())
	}
	if s.Pending() != 1 {
		t.Errorf("pending = %d", s.Pending())
	}
	// Continuing runs it.
	s.Run(20 * time.Millisecond)
	if !ran {
		t.Error("event never ran")
	}
}

func TestTimerCancel(t *testing.T) {
	s := NewSim()
	ran := false
	tm := s.Schedule(time.Millisecond, func() { ran = true })
	tm.Cancel()
	tm.Cancel() // double-cancel is safe
	s.RunAll()
	if ran {
		t.Error("canceled event executed")
	}
	var nilTimer *Timer
	nilTimer.Cancel() // nil-safe
}

// TestPendingCountsLiveEvents pins that Pending counts exactly the
// events that can still fire: a canceled event leaves the count at once
// though it stays queued, a fired one leaves it as it runs, and
// canceling a fired or canceled event changes nothing.
func TestPendingCountsLiveEvents(t *testing.T) {
	s := NewSim()
	var inside int
	first := s.Schedule(time.Millisecond, func() { inside = s.Pending() })
	dropped := s.Schedule(2*time.Millisecond, func() { t.Error("canceled event ran") })
	s.Schedule(3*time.Millisecond, func() {})
	if s.Pending() != 3 {
		t.Fatalf("pending = %d, want 3", s.Pending())
	}
	dropped.Cancel()
	dropped.Cancel()
	if s.Pending() != 2 {
		t.Fatalf("pending = %d after cancel, want 2", s.Pending())
	}
	if n := s.Run(time.Millisecond); n != 1 || inside != 1 {
		t.Fatalf("Run fired %d with pending %d inside the callback, want 1 and 1", n, inside)
	}
	first.Cancel()
	if s.Pending() != 1 {
		t.Fatalf("pending = %d after canceling a fired event, want 1", s.Pending())
	}
	if n := s.RunAll(); n != 1 || s.Pending() != 0 {
		t.Errorf("RunAll fired %d leaving %d pending, want 1 and 0", n, s.Pending())
	}
}

// TestNextSkipsCanceledHead pins the due time a wall-clock shard loop
// sleeps toward: Next reports the earliest event that can still fire,
// dropping canceled ones from the head of the queue.
func TestNextSkipsCanceledHead(t *testing.T) {
	s := NewSim()
	if _, ok := s.Next(); ok {
		t.Error("empty sim reported a next event")
	}
	head := s.Schedule(3*time.Millisecond, func() {})
	tail := s.Schedule(700*time.Millisecond, func() {})
	if at, ok := s.Next(); !ok || at != 3*time.Millisecond {
		t.Errorf("Next = %v,%v, want 3ms,true", at, ok)
	}
	head.Cancel()
	if at, ok := s.Next(); !ok || at != 700*time.Millisecond {
		t.Errorf("Next = %v,%v after canceling the head, want 700ms,true", at, ok)
	}
	if len(s.queue) != 1 {
		t.Errorf("%d events queued, want the canceled head dropped", len(s.queue))
	}
	tail.Cancel()
	if at, ok := s.Next(); ok {
		t.Errorf("Next = %v with every event canceled", at)
	}
}

func TestNegativeDelay(t *testing.T) {
	s := NewSim()
	s.Run(5 * time.Millisecond) // advance clock
	ran := time.Duration(-1)
	s.Schedule(-time.Second, func() { ran = s.Now() })
	s.RunAll()
	if ran != 5*time.Millisecond {
		t.Errorf("negative delay ran at %v", ran)
	}
}

func TestLinkDeliveryTiming(t *testing.T) {
	s := NewSim()
	l := &Link{Sim: s, Latency: 10 * time.Microsecond}
	var at time.Duration
	l.Send(func() { at = s.Now() })
	s.RunAll()
	if want := 10 * time.Microsecond; at != want {
		t.Errorf("delivered at %v, want %v", at, want)
	}
}

// TestLinkZeroRateInstantaneous pins that the link has no airtime model:
// frames sent back to back at one instant take no time on the air, so
// none waits behind another and each lands exactly Latency after its send.
func TestLinkZeroRateInstantaneous(t *testing.T) {
	s := NewSim()
	s.Run(5 * time.Millisecond) // send from a later clock
	l := &Link{Sim: s, Latency: time.Microsecond}
	var at []time.Duration
	for i := 0; i < 3; i++ {
		l.Send(func() { at = append(at, s.Now()) })
	}
	s.RunAll()
	if len(at) != 3 {
		t.Fatalf("delivered %d frames, want 3", len(at))
	}
	for i, got := range at {
		if want := 5*time.Millisecond + time.Microsecond; got != want {
			t.Errorf("frame %d delivered at %v, want %v", i, got, want)
		}
	}
}

func TestLinkLossRate(t *testing.T) {
	s := NewSim()
	l := &Link{Sim: s, Rng: rand.New(rand.NewSource(1)), LossProb: 0.3}
	delivered := 0
	n := 10000
	for i := 0; i < n; i++ {
		l.Send(func() { delivered++ })
	}
	s.RunAll()
	got := float64(delivered) / float64(n)
	if got < 0.66 || got > 0.74 {
		t.Errorf("delivery rate = %v, want ≈0.7", got)
	}
}

func TestLinkNoRngNeverDrops(t *testing.T) {
	s := NewSim()
	l := &Link{Sim: s, LossProb: 1.0} // no Rng → loss disabled
	delivered := 0
	l.Send(func() { delivered++ })
	s.RunAll()
	if delivered != 1 {
		t.Error("frame dropped without an Rng")
	}
}

// simModel runs a random schedule/cancel/run script against the
// simulator and a sorted-list oracle and asserts identical fire
// sequences: no lost or duplicated events, each at exactly its due time,
// in (due, schedule order) order. After every step Pending must equal
// the oracle's live count and Next its earliest due time. Shared by the
// fuzz target and the seeded random test.
func simModel(t *testing.T, data []byte) {
	t.Helper()
	s := NewSim()
	type ev struct {
		id int // schedule order
		at time.Duration
	}
	var (
		handles []*Timer
		alive   = map[int]ev{}
		fired   []ev
		oracle  []ev
	)
	schedule := func(delay time.Duration) {
		id := len(handles)
		handles = append(handles, s.Schedule(delay, func() {
			fired = append(fired, ev{id, s.Now()})
		}))
		alive[id] = ev{id, s.Now() + delay}
	}
	check := func(step int) {
		if s.Pending() != len(alive) {
			t.Fatalf("step %d: pending = %d, oracle has %d live", step, s.Pending(), len(alive))
		}
		first, live := time.Duration(0), false
		for _, e := range alive {
			if !live || e.at < first {
				first, live = e.at, true
			}
		}
		if at, ok := s.Next(); ok != live || at != first {
			t.Fatalf("step %d: Next = %v,%v, oracle says %v,%v", step, at, ok, first, live)
		}
	}
	for i := 0; i+2 < len(data); i += 3 {
		op, a, b := data[i], time.Duration(data[i+1]), time.Duration(data[i+2])
		switch op % 4 {
		case 0: // near, including the current instant
			schedule(a * time.Millisecond)
		case 1: // far
			schedule(((a+1)*257 + b<<17) * time.Millisecond)
		case 2: // cancel a random handle (maybe already fired or canceled)
			if len(handles) > 0 {
				id := int(a) % len(handles)
				handles[id].Cancel()
				delete(alive, id)
			}
		case 3: // run
			until := s.Now() + (a*64+b)*time.Millisecond
			for id, e := range alive {
				if e.at <= until {
					oracle = append(oracle, e)
					delete(alive, id)
				}
			}
			s.Run(until)
		}
		check(i / 3)
	}
	for id, e := range alive {
		oracle = append(oracle, e)
		delete(alive, id)
	}
	s.RunAll()
	check(len(data) / 3)
	sort.Slice(oracle, func(i, j int) bool {
		if oracle[i].at != oracle[j].at {
			return oracle[i].at < oracle[j].at
		}
		return oracle[i].id < oracle[j].id
	})
	if len(fired) != len(oracle) {
		t.Fatalf("fired %d events, oracle expects %d", len(fired), len(oracle))
	}
	for i := range fired {
		if fired[i] != oracle[i] {
			t.Fatalf("fire %d: event %d at %v, oracle says event %d at %v",
				i, fired[i].id, fired[i].at, oracle[i].id, oracle[i].at)
		}
	}
}

// FuzzSim drives simModel from fuzzer-chosen scripts.
func FuzzSim(f *testing.F) {
	f.Add([]byte{0, 5, 0, 3, 10, 0})
	f.Add([]byte{1, 200, 9, 2, 0, 0, 3, 255, 255})
	f.Add([]byte{0, 63, 0, 0, 64, 0, 0, 65, 0, 3, 2, 0, 3, 255, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 3*512 {
			data = data[:3*512]
		}
		simModel(t, data)
	})
}

// TestSimRandomizedModel runs the fuzz model over seeded random scripts
// so the property check executes in every plain `go test` run.
func TestSimRandomizedModel(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 50; trial++ {
		data := make([]byte, 3*(20+rng.Intn(150)))
		rng.Read(data)
		simModel(t, data)
	}
}
