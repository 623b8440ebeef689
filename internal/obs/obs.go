// Package obs is the unified observability core: dependency-free,
// concurrency-safe counters, log-bucketed latency histograms and
// snapshot-time gauges that every layer of the pipeline reports
// through — ndft solver telemetry, tof estimation stages, hop protocol
// events, track fixes — surfaced live over the cmd binaries' -metrics
// endpoint and embedded in campaign JSON (exp.WriteJSON).
//
// # Design constraints
//
// The instrumented paths are the hot paths (Plan.Solve,
// track.RunSession), so the layer is engineered to cost near-nothing:
//
//   - Disabled (the default), every operation is one atomic bool load
//     and a branch. Nothing is recorded, Tick returns 0, and no state is
//     touched — the instrumented solve benchmarks measure the layer at
//     ≤1% overhead (BenchmarkObsOverheadSolve asserts it).
//   - Enabled, no operation allocates: counters are sharded padded
//     atomics, histogram recording is one atomic bucket increment plus a
//     sharded compare-and-swap sum, and spans are two monotonic clock
//     reads. The zero-alloc solve and session paths stay 0 allocs/op
//     with obs on (asserted by tests and the bench-smoke lane).
//
// Counter and histogram handles are package-level vars in the
// instrumented packages, registered by name at init, as are the
// functions that derive the gauges; Capture renders everything into a
// Snapshot. Instrumentation never changes results — the golden-trace
// tests pin track.RunSession byte-identity with obs on vs off.
//
// # Determinism
//
// Counters count scheduling-independent quantities (solve requests,
// iterations, fixes, protocol events), so campaign counter totals are
// identical at any worker count — a property the exp golden test pins
// — and the ndft and tof totals identical at any daemon shard count.
// Wall-clock histogram *contents* naturally vary per host and run;
// their counts remain deterministic wherever the underlying event
// streams are.
package obs

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"
)

// enabled is the global gate every recording operation checks first.
// One atomic load when off is the entire cost of the layer.
var enabled atomic.Bool

// SetEnabled turns the observability layer on or off. Off (the default)
// every instrumentation call is a single atomic load and branch.
func SetEnabled(on bool) { enabled.Store(on) }

// Enabled reports whether metrics are being recorded.
func Enabled() bool { return enabled.Load() }

// base anchors the monotonic span clock; Tick and Hist.Since measure
// against it so span starts fit in an int64 of nanoseconds. It stays
// fixed for the life of the process, so a span opened before a Reset
// and closed after it still measures its true duration.
var base = time.Now()

// resetAt is the span clock at the last Reset: Snapshot.UptimeNs counts
// from it, so rates derived from uptime cover the same window as the
// zeroed metrics.
var resetAt atomic.Int64

// Tick returns the current monotonic span clock in nanoseconds, or 0
// when the layer is disabled — Hist.Since treats a zero start as "span
// never opened" and records nothing, so callers need no second gate.
func Tick() int64 {
	if !enabled.Load() {
		return 0
	}
	return int64(time.Since(base))
}

// shards is the counter/sum shard count (power of two). Sixteen padded
// cells keep campaign worker pools from serializing on one cache line.
const shards = 16

// cell is one cache-line-padded atomic shard.
type cell struct {
	v atomic.Int64
	_ [56]byte
}

// fcell is one cache-line-padded atomic float64 shard (IEEE bits).
type fcell struct {
	v atomic.Uint64
	_ [56]byte
}

// shardIdx picks a shard from the address of a stack variable: cheap,
// allocation-free, and stable per goroutine (stacks are spread across
// the address space), so concurrent writers scatter across cells. The
// pointer is converted to uintptr immediately and never dereferenced.
func shardIdx() int {
	var b byte
	return int(uintptr(unsafe.Pointer(&b)) >> 6 & (shards - 1))
}

// addFloat accumulates v into a float64 shard with a CAS loop.
func (c *fcell) add(v float64) {
	for {
		old := c.v.Load()
		if c.v.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Counter is a monotonically increasing event count, sharded across
// padded atomic cells so hot concurrent paths don't contend.
type Counter struct {
	name  string
	cells [shards]cell
}

// Add records n occurrences. No-op (one atomic load) when disabled.
func (c *Counter) Add(n int64) {
	if !enabled.Load() {
		return
	}
	c.cells[shardIdx()].v.Add(n)
}

// Inc records one occurrence.
func (c *Counter) Inc() { c.Add(1) }

// Value sums the shards.
func (c *Counter) Value() int64 {
	var s int64
	for i := range c.cells {
		s += c.cells[i].v.Load()
	}
	return s
}

// Name returns the counter's registered name.
func (c *Counter) Name() string { return c.name }

func (c *Counter) reset() {
	for i := range c.cells {
		c.cells[i].v.Store(0)
	}
}

// registry is the package-level metric namespace. Handles register at
// package init of the instrumented packages (deterministic order per
// package); duplicate names panic — silently merged metrics would make
// two call sites indistinguishable in every snapshot.
var reg struct {
	mu       sync.Mutex
	names    map[string]bool
	counters []*Counter
	gauges   []gauge
	hists    []*Hist
	labels   map[string]string
}

// gauge is a value derived at snapshot time: the tof plan-registry
// occupancy, a fix rate. Registering the function that computes it lets
// packages contribute gauges without obs depending on them.
type gauge struct {
	name string
	eval func(*Snapshot) float64
}

func register(name string) {
	if reg.names == nil {
		reg.names = make(map[string]bool)
	}
	if reg.names[name] {
		panic(fmt.Sprintf("obs: duplicate metric name %q", name))
	}
	reg.names[name] = true
}

// NewCounter registers a counter under name (panics on duplicates).
func NewCounter(name string) *Counter {
	reg.mu.Lock()
	defer reg.mu.Unlock()
	register(name)
	c := &Counter{name: name}
	reg.counters = append(reg.counters, c)
	return c
}

// NewGauge registers a gauge under name (panics on duplicates). Capture
// evaluates eval once per snapshot, after the counters and histograms
// are rendered, so a gauge may derive from them; it records whether or
// not the layer is enabled.
func NewGauge(name string, eval func(*Snapshot) float64) {
	reg.mu.Lock()
	defer reg.mu.Unlock()
	register(name)
	reg.gauges = append(reg.gauges, gauge{name: name, eval: eval})
}

// NewHist registers a histogram under name (panics on duplicates). By
// convention names carry their unit as a suffix (_ns, _rel, _width).
func NewHist(name string) *Hist {
	reg.mu.Lock()
	defer reg.mu.Unlock()
	register(name)
	h := &Hist{name: name}
	h.minBits.Store(histMinSentinel)
	reg.hists = append(reg.hists, h)
	return h
}

// SetLabel records a static string fact about the process — the ndft
// kernel tier, for example — surfaced verbatim in every Snapshot's
// "labels" object. Labels are for init-time environment facts, not
// per-event data: unlike metrics they record even while the layer is
// disabled (they describe the process, not traffic), and setting one
// takes the registry lock, so keep SetLabel off hot paths.
func SetLabel(name, value string) {
	reg.mu.Lock()
	defer reg.mu.Unlock()
	if reg.labels == nil {
		reg.labels = make(map[string]string)
	}
	reg.labels[name] = value
}

// Reset zeroes every registered counter and histogram and restarts
// Snapshot.UptimeNs — test and campaign scaffolding for measurement
// windows, not part of the hot path. The span clock keeps running:
// spans open across a Reset record their full duration.
func Reset() {
	reg.mu.Lock()
	defer reg.mu.Unlock()
	for _, c := range reg.counters {
		c.reset()
	}
	for _, h := range reg.hists {
		h.reset()
	}
	resetAt.Store(int64(time.Since(base)))
}

// Capture renders every registered metric into a Snapshot, gauges
// last. Safe to call concurrently with recording; the snapshot is a
// consistent-enough point-in-time read (individual atomics, not a
// global barrier), which is all a telemetry poll needs.
func Capture() *Snapshot {
	reg.mu.Lock()
	counters := append([]*Counter(nil), reg.counters...)
	gauges := append([]gauge(nil), reg.gauges...)
	hists := append([]*Hist(nil), reg.hists...)
	var labels map[string]string
	if len(reg.labels) > 0 {
		labels = make(map[string]string, len(reg.labels))
		for k, v := range reg.labels {
			labels[k] = v
		}
	}
	reg.mu.Unlock()

	s := &Snapshot{
		UptimeNs: int64(time.Since(base)) - resetAt.Load(),
		Counters: make(map[string]int64, len(counters)),
		Gauges:   make(map[string]float64, len(gauges)),
		Hists:    make(map[string]HistSnapshot, len(hists)),
		Labels:   labels,
	}
	for _, c := range counters {
		s.Counters[c.name] = c.Value()
	}
	for _, h := range hists {
		s.Hists[h.name] = h.snapshot()
	}
	for _, g := range gauges {
		s.Gauges[g.name] = g.eval(s)
	}
	return s
}

// Snapshot is one point-in-time rendering of every registered metric —
// the /metrics JSON body and the "obs" object campaign JSON embeds.
type Snapshot struct {
	// UptimeNs is the wall time since the obs package initialized or
	// the last Reset, whichever is later.
	UptimeNs int64                   `json:"uptime_ns"`
	Counters map[string]int64        `json:"counters"`
	Gauges   map[string]float64      `json:"gauges"`
	Hists    map[string]HistSnapshot `json:"hists"`
	// Labels are static process facts registered via SetLabel (the ndft
	// kernel tier, for example); additive, omitted when none are set.
	Labels map[string]string `json:"labels,omitempty"`
}

// HistSnapshot is one histogram's rendered state: totals, the standard
// quantiles, and the occupied log buckets.
type HistSnapshot struct {
	Count int64   `json:"count"`
	Sum   float64 `json:"sum"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	P50   float64 `json:"p50"`
	P95   float64 `json:"p95"`
	P99   float64 `json:"p99"`
	// Buckets lists only the occupied buckets, lo ≤ v < hi each.
	Buckets []Bucket `json:"buckets,omitempty"`
}

// Bucket is one occupied histogram bucket.
type Bucket struct {
	Lo    float64 `json:"lo"`
	Hi    float64 `json:"hi"`
	Count int64   `json:"count"`
}
