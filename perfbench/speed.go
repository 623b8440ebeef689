package main

import (
	"runtime"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The reference host's speed drifts: another tenant on the same physical
// core slows every instruction stream that competes for the core's
// execution ports, in epochs from seconds to many minutes. A fixed
// pipeline workload then runs up to ~1.6× slower, and two sets of runs
// taken a few minutes apart disagree by more than any admissible bound
// (NOTES.md has the measurements). So every run measures the host's speed
// while it works, with a reference kernel that this directory owns and the
// program cannot change, and reports its timings scaled to the nominal
// speed: a timing metric is the measured value × nominal / measured
// reference time. A change to the program moves the timings exactly as
// before; a change of host speed moves the reference too and cancels.
//
// The reference blends two loops in the proportion that tracked the
// pipeline on the reference host: a throughput-bound one (eight
// independent multiply-adds over an L2-resident array), which contention
// slows ~2×, and a latency-bound one (a dependent chain), which it slows
// ~1.15×, while frequency changes scale both alike.
const (
	speedPeriod = 50 * time.Millisecond // between reference slices

	// Reference slice times (ms of thread CPU) on the reference host when
	// no other tenant competes, and the throughput loop's share of the
	// blend.
	nominalThroughputMs = 0.50
	nominalLatencyMs    = 0.44
	throughputShare     = 0.75

	throughputReps = 70
	latencyIters   = 165_000
)

var (
	refArray = func() []float64 {
		a := make([]float64, 16384) // 128 KiB: L2-resident, like the NDFT plans
		for i := range a {
			a[i] = float64(i%97) * 1e-3
		}
		return a
	}()
	refSink float64
)

// throughputLoop is port-bound: eight independent accumulators.
func throughputLoop() {
	var s0, s1, s2, s3, s4, s5, s6, s7 float64
	a := refArray
	for r := 0; r < throughputReps; r++ {
		for i := 0; i+8 <= len(a); i += 8 {
			s0 += a[i] * a[i+1]
			s1 += a[i+1] * a[i+2]
			s2 += a[i+2] * a[i+3]
			s3 += a[i+3] * a[i+4]
			s4 += a[i+4] * a[i+5]
			s5 += a[i+5] * a[i+6]
			s6 += a[i+6] * a[i+7]
			s7 += a[i+7] * a[i]
		}
	}
	refSink += s0 + s1 + s2 + s3 + s4 + s5 + s6 + s7
}

// latencyLoop is bound by the latency of one dependent chain.
func latencyLoop() {
	x := 1.0
	for i := 0; i < latencyIters; i++ {
		x = x*1.0000001 + 1e-9
	}
	refSink += x
}

// speedSampler runs a reference slice every speedPeriod on a goroutine of
// its own OS thread, timing each loop by that thread's CPU time, so that
// the Go scheduler and the program's own load do not count.
type speedSampler struct {
	stop, done chan struct{}

	mu  sync.Mutex
	sum float64 // blended slowdowns of all slices so far
	n   int
}

func startSpeedSampler() *speedSampler {
	s := &speedSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go s.run()
	return s
}

func (s *speedSampler) run() {
	defer close(s.done)
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	tick := time.NewTicker(speedPeriod)
	defer tick.Stop()
	for {
		c0 := threadCPU()
		throughputLoop()
		c1 := threadCPU()
		latencyLoop()
		c2 := threadCPU()
		slow := throughputShare*ms(c1-c0)/nominalThroughputMs +
			(1-throughputShare)*ms(c2-c1)/nominalLatencyMs
		s.mu.Lock()
		s.sum += slow
		s.n++
		s.mu.Unlock()
		select {
		case <-s.stop:
			return
		case <-tick.C:
		}
	}
}

// speedMark is the sampler's state at one instant.
type speedMark struct {
	sum float64
	n   int
}

func (s *speedSampler) mark() speedMark {
	s.mu.Lock()
	defer s.mu.Unlock()
	return speedMark{s.sum, s.n}
}

// slowdown is the host's mean slowdown against the nominal speed between
// two marks (1 when fewer than one slice completed in between).
func slowdown(from, to speedMark) float64 {
	if to.n <= from.n {
		return 1
	}
	return (to.sum - from.sum) / float64(to.n-from.n)
}

// close stops the sampler and waits for its goroutine.
func (s *speedSampler) close() {
	close(s.stop)
	<-s.done
}

// threadCPU is the calling thread's CPU time, read from
// CLOCK_THREAD_CPUTIME_ID (getrusage counts threads in scheduler ticks).
func threadCPU() time.Duration {
	const clockThreadCPUTime = 3 // CLOCK_THREAD_CPUTIME_ID on Linux
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime,
		uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}
