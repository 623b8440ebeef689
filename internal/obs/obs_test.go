package obs

import (
	"runtime"
	"sync"
	"testing"
	"time"
)

// withObs enables recording for one test body, resetting all registered
// metrics before and after so globally registered handles from other
// tests don't bleed through.
func withObs(t *testing.T, body func()) {
	t.Helper()
	Reset()
	SetEnabled(true)
	defer func() {
		SetEnabled(false)
		Reset()
	}()
	body()
}

func TestCounterGatedWhenDisabled(t *testing.T) {
	c := NewCounter("test.gate.counter")
	g := NewGauge("test.gate.gauge")
	h := NewHist("test.gate.hist")
	SetEnabled(false)
	c.Add(5)
	g.Set(3.5)
	h.Observe(1.25)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 {
		t.Fatalf("disabled recording leaked: counter=%d gauge=%v hist=%d",
			c.Value(), g.Value(), h.Count())
	}
	if tick := Tick(); tick != 0 {
		t.Fatalf("Tick() = %d while disabled, want 0", tick)
	}
	// A span opened while disabled records nothing even if the layer
	// turns on before it closes.
	start := Tick()
	SetEnabled(true)
	defer func() { SetEnabled(false); Reset() }()
	h.Since(start)
	if h.Count() != 0 {
		t.Fatal("Since recorded a span opened while disabled")
	}
}

func TestCounterGaugeRoundTrip(t *testing.T) {
	c := NewCounter("test.rt.counter")
	g := NewGauge("test.rt.gauge")
	withObs(t, func() {
		c.Add(3)
		c.Inc()
		if got := c.Value(); got != 4 {
			t.Fatalf("counter = %d, want 4", got)
		}
		g.Set(2.5)
		g.Set(-1.25)
		if got := g.Value(); got != -1.25 {
			t.Fatalf("gauge = %v, want -1.25", got)
		}
	})
	if c.Value() != 0 {
		t.Fatal("Reset did not zero the counter")
	}
}

func TestDuplicateNamePanics(t *testing.T) {
	NewCounter("test.dup.name")
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate metric name did not panic")
		}
	}()
	NewHist("test.dup.name")
}

func TestCaptureAndCallbacks(t *testing.T) {
	c := NewCounter("test.capture.counter")
	h := NewHist("test.capture.hist")
	OnSnapshot(func(s *Snapshot) { s.Gauges["test.capture.derived"] = float64(s.Counters["test.capture.counter"]) * 2 })
	withObs(t, func() {
		c.Add(7)
		h.Observe(10)
		h.Observe(20)
		s := Capture()
		if s.Counters["test.capture.counter"] != 7 {
			t.Fatalf("snapshot counter = %d, want 7", s.Counters["test.capture.counter"])
		}
		if s.Gauges["test.capture.derived"] != 14 {
			t.Fatalf("snapshot callback gauge = %v, want 14", s.Gauges["test.capture.derived"])
		}
		hs := s.Hists["test.capture.hist"]
		if hs.Count != 2 || hs.Sum != 30 || hs.Min != 10 || hs.Max != 20 {
			t.Fatalf("hist snapshot = %+v, want count 2 sum 30 min 10 max 20", hs)
		}
		var total int64
		for _, b := range hs.Buckets {
			if b.Lo >= b.Hi {
				t.Fatalf("bucket bounds inverted: %+v", b)
			}
			total += b.Count
		}
		if total != hs.Count {
			t.Fatalf("bucket counts sum to %d, want %d", total, hs.Count)
		}
		if s.UptimeNs <= 0 {
			t.Fatalf("uptime = %d, want > 0", s.UptimeNs)
		}
	})
}

// TestRecordingAllocsFree pins the tentpole property: with the layer
// enabled, every recording operation is allocation-free.
func TestRecordingAllocsFree(t *testing.T) {
	c := NewCounter("test.alloc.counter")
	g := NewGauge("test.alloc.gauge")
	h := NewHist("test.alloc.hist")
	withObs(t, func() {
		if n := testing.AllocsPerRun(100, func() {
			c.Inc()
			g.Set(1.5)
			h.Observe(123456)
			h.Since(Tick())
		}); n != 0 {
			t.Fatalf("recording allocates %v allocs/op, want 0", n)
		}
	})
}

// The Reset tests register their histograms once per test binary, so
// -count reruns (the -race repetition of the concurrency test) reuse
// them instead of panicking on a duplicate name.
var (
	straddleHist   = NewHist("test.reset.straddle")
	concurrentHist = NewHist("test.reset.concurrent")
)

// TestSpanStraddlesReset pins that Reset leaves the span clock alone: a
// span opened before a Reset and closed after it records its true,
// positive duration instead of landing in the underflow bucket, while
// Snapshot.UptimeNs restarts at the Reset.
func TestSpanStraddlesReset(t *testing.T) {
	const gap = 20 * time.Millisecond
	withObs(t, func() {
		start := Tick()
		time.Sleep(gap)
		Reset()
		straddleHist.Since(start)
		s := Capture()
		hs := s.Hists["test.reset.straddle"]
		if hs.Count != 1 || hs.Sum < float64(gap) || hs.Min < float64(gap) {
			t.Fatalf("straddling span = %+v, want one sample of at least %v", hs, gap)
		}
		if s.UptimeNs <= 0 || s.UptimeNs >= int64(hs.Sum) {
			t.Fatalf("uptime = %d ns, want positive and counted from the Reset (span %g ns)",
				s.UptimeNs, hs.Sum)
		}
	})
}

// TestResetConcurrentWithTick runs Resets against goroutines that keep
// opening and closing spans: the span clock must never step backwards,
// and (under -race) Reset must not race Tick or Since.
func TestResetConcurrentWithTick(t *testing.T) {
	withObs(t, func() {
		var wg sync.WaitGroup
		stop := make(chan struct{})
		backwards := make(chan int64, 2)
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				prev := Tick()
				for {
					select {
					case <-stop:
						return
					default:
					}
					now := Tick()
					if now < prev {
						backwards <- prev - now
						return
					}
					concurrentHist.Since(prev)
					prev = now
					runtime.Gosched()
				}
			}()
		}
		for i := 0; i < 50; i++ {
			Reset()
			time.Sleep(100 * time.Microsecond)
		}
		close(stop)
		wg.Wait()
		close(backwards)
		for d := range backwards {
			t.Errorf("span clock stepped back %d ns across a Reset", d)
		}
	})
}
