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
	h := NewHist("test.gate.hist")
	SetEnabled(false)
	c.Add(5)
	h.Observe(1.25)
	if c.Value() != 0 || h.Count() != 0 {
		t.Fatalf("disabled recording leaked: counter=%d hist=%d", c.Value(), h.Count())
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

// TestCounterGaugeRoundTrip checks that a gauge reads its source at
// every capture, the last value wins, and it records with the layer
// disabled too.
func TestCounterGaugeRoundTrip(t *testing.T) {
	c := NewCounter("test.rt.counter")
	v := 2.5
	NewGauge("test.rt.gauge", func(*Snapshot) float64 { return v })
	withObs(t, func() {
		c.Add(3)
		c.Inc()
		if got := c.Value(); got != 4 {
			t.Fatalf("counter = %d, want 4", got)
		}
		if got := Capture().Gauges["test.rt.gauge"]; got != 2.5 {
			t.Fatalf("gauge = %v, want 2.5", got)
		}
		v = -1.25
		if got := Capture().Gauges["test.rt.gauge"]; got != -1.25 {
			t.Fatalf("gauge = %v, want -1.25", got)
		}
	})
	if c.Value() != 0 {
		t.Fatal("Reset did not zero the counter")
	}
	if got := Capture().Gauges["test.rt.gauge"]; got != -1.25 {
		t.Fatalf("gauge with the layer disabled = %v, want -1.25", got)
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
	NewGauge("test.capture.derived", func(s *Snapshot) float64 {
		return float64(s.Counters["test.capture.counter"] + s.Hists["test.capture.hist"].Count)
	})
	withObs(t, func() {
		c.Add(7)
		h.Observe(10)
		h.Observe(20)
		s := Capture()
		if s.Counters["test.capture.counter"] != 7 {
			t.Fatalf("snapshot counter = %d, want 7", s.Counters["test.capture.counter"])
		}
		// The gauge sees the counter and the histogram of its own snapshot.
		if s.Gauges["test.capture.derived"] != 9 {
			t.Fatalf("derived gauge = %v, want 9", s.Gauges["test.capture.derived"])
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
	h := NewHist("test.alloc.hist")
	withObs(t, func() {
		if n := testing.AllocsPerRun(100, func() {
			c.Inc()
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
