package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/metrics"
	"strings"
	"syscall"
	"time"

	"chronos/internal/ndft"
	"chronos/internal/obs"
	"chronos/internal/stats"
)

// metricSpec names one reported metric and its unit; BENCHMARK.json lists
// the same names and units.
type metricSpec struct{ name, unit string }

// endToEnd are the metrics of an untraced run.
var endToEnd = []metricSpec{
	{"fix_ms_p50", "ms"},
	{"fix_ms_p90", "ms"},
	{"fixes_per_s", "1/s"},
	{"cpu_ms_per_fix", "ms"},
	{"setup_s", "s"},
	{"rss_mb", "MB"},
}

// perLayer are the metrics of a traced run. Every workload prints all of
// them; a layer the workload does not exercise reads 0.
var perLayer = []metricSpec{
	{"track.calibrate_ms", "ms"},
	{"track.ingest_ms", "ms"},
	{"track.solve_ms", "ms"},
	{"track.kalman_ms", "ms"},
	{"track.capped_fix_ratio", "ratio"},
	{"track.gate_reject_ratio", "ratio"},
	{"svc.attach_ms", "ms"},
	{"svc.transit_ms", "ms"},
	{"svc.sweep_ms", "ms"},
	{"svc.stage.ingest_ms", "ms"},
	{"svc.stage.solve_ms", "ms"},
	{"svc.stage.track_ms", "ms"},
	{"svc.stage.solve_wait_ms", "ms"},
	{"svc.preemptions_per_fix", "1/fix"},
	{"svc.starve_grants", "count"},
	{"svc.backpressure", "count"},
	{"svc.timer_fires_per_fix", "1/fix"},
	{"ndft.solves_per_fix", "1/fix"},
	{"ndft.iters_per_solve", "1/solve"},
	{"ndft.capped_ratio", "ratio"},
	{"ndft.gap_stop_ratio", "ratio"},
	{"ndft.kkt_fallback_ratio", "ratio"},
	{"ndft.batch_width_mean", "count"},
	{"ndft.parked_per_fix", "1/fix"},
	{"tof.solve_ms_per_fix", "ms"},
	{"tof.alias_ms_per_fix", "ms"},
	{"tof.alias_refits_per_fix", "1/fix"},
	{"tof.alias_flip_ratio", "ratio"},
	{"tof.coalesce_hold_ratio", "ratio"},
	{"tof.coalesce_follower_ratio", "ratio"},
	{"tof.coalesce_width_mean", "count"},
	{"tof.registry_builds", "count"},
	{"tof.registry_mb", "MB"},
	{"go.alloc_kb_per_fix", "KiB"},
	{"go.gc_cpu_share", "ratio"},
	{"range_err_cm_p50", "cm"},
	{"range_err_cm_p90", "cm"},
	{"host.slowdown", "ratio"},
	{"trace_overhead_pct", "%"},
}

// host records the machine and kernel tier a run measured.
type host struct {
	GOARCH       string `json:"goarch"`
	CPUModel     string `json:"cpu_model"`
	NumCPU       int    `json:"nproc"`
	GOMAXPROCS   int    `json:"gomaxprocs"`
	GoVersion    string `json:"go_version"`
	VectorKernel string `json:"vector_kernel"`
}

func hostInfo() host {
	return host{
		GOARCH:       runtime.GOARCH,
		CPUModel:     cpuModel(),
		NumCPU:       runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		GoVersion:    runtime.Version(),
		VectorKernel: ndft.VectorKernel(),
	}
}

// cpuModel reads the processor name from /proc/cpuinfo ("unknown"
// elsewhere).
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// meter samples the process around a measured phase: wall clock, CPU
// time and host speed, and, when traced, the obs registry and the Go
// runtime metrics.
type meter struct {
	traced bool
	wall   time.Time
	cpu    time.Duration
	speed  *speedSampler
	mark   speedMark
	snap   *obs.Snapshot
	rt     []metrics.Sample
}

var runtimeMetrics = []string{
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func startMeter(traced bool, sp *speedSampler) *meter {
	m := &meter{traced: traced, speed: sp, mark: sp.mark()}
	if traced {
		m.snap = obs.Capture()
		m.rt = readRuntime()
	}
	m.wall, m.cpu = time.Now(), cpuTime()
	return m
}

// phase is what one measured phase observed.
type phase struct {
	fixes int           // final fixes completed in the phase
	wall  time.Duration // phase wall time
	cpu   time.Duration // process user+sys CPU over the phase
	rssMB float64       // peak resident set size of the process
	slow  float64       // host slowdown against the nominal speed (speed.go)

	fixMs  []float64 // per-fix latency samples
	errsCm []float64 // |Kalman-smoothed − true range| of the accuracy fixes

	// spans are the benchmark's own span means (ms), keyed by per-layer
	// metric name. The obs and runtime samples are taken only when traced.
	spans               map[string]*stats.Running
	obsBefore, obsAfter *obs.Snapshot
	rtBefore, rtAfter   []metrics.Sample
}

// stop closes the phase.
func (m *meter) stop(fixes int) *phase {
	p := &phase{fixes: fixes, wall: time.Since(m.wall), cpu: cpuTime() - m.cpu, rssMB: peakRSSMB(),
		slow: slowdown(m.mark, m.speed.mark()), spans: map[string]*stats.Running{}}
	if m.traced {
		p.obsBefore, p.obsAfter = m.snap, obs.Capture()
		p.rtBefore, p.rtAfter = m.rt, readRuntime()
	}
	return p
}

func readRuntime() []metrics.Sample {
	s := make([]metrics.Sample, len(runtimeMetrics))
	for i, name := range runtimeMetrics {
		s[i].Name = name
	}
	metrics.Read(s)
	return s
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set size (Linux reports
// ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6
}

// endToEndMetrics are the user-visible metrics of an untraced phase, its
// timings scaled to the nominal host speed; setup_s is added by the
// parent, host.slowdown only logged.
func (p *phase) endToEndMetrics() map[string]float64 {
	return map[string]float64{
		"fix_ms_p50":     stats.Percentile(p.fixMs, 50) / p.slow,
		"fix_ms_p90":     stats.Percentile(p.fixMs, 90) / p.slow,
		"fixes_per_s":    float64(p.fixes) / p.wall.Seconds() * p.slow,
		"cpu_ms_per_fix": ms(p.cpu) / float64(p.fixes) / p.slow,
		"rss_mb":         p.rssMB,
		"host.slowdown":  p.slow,
	}
}

// layerMetrics derives the per-layer metrics of a traced phase from the
// benchmark's spans, the obs counters and histogram sums (never their
// bucket quantiles), and the Go runtime metrics. Layer times are as
// measured; host.slowdown is the factor that scales them to the nominal
// host speed, as the end-to-end timings are.
func (p *phase) layerMetrics() map[string]float64 {
	a, b := p.obsBefore, p.obsAfter
	count := func(name string) float64 { return float64(b.Counters[name] - a.Counters[name]) }
	histCount := func(name string) float64 { return float64(b.Hists[name].Count - a.Hists[name].Count) }
	histSum := func(name string) float64 { return b.Hists[name].Sum - a.Hists[name].Sum }
	fixes := float64(p.fixes)
	solves := count("ndft.solve.requests")
	submits := count("tof.coalesce.submits")

	out := map[string]float64{
		"fixes_per_s":                 fixes / p.wall.Seconds() * p.slow,
		"host.slowdown":               p.slow,
		"track.capped_fix_ratio":      ratio(count("track.capped_fixes"), count("track.fixes")),
		"track.gate_reject_ratio":     ratio(count("track.gate_rejects"), count("track.fixes")),
		"svc.sweep_ms":                ratio(histSum("svc.sweep_ns"), histCount("svc.sweep_ns")) / 1e6,
		"svc.stage.ingest_ms":         ratio(histSum("svc.stage.ingest_ns"), histCount("svc.stage.ingest_ns")) / 1e6,
		"svc.stage.solve_ms":          ratio(histSum("svc.stage.solve_ns"), histCount("svc.stage.solve_ns")) / 1e6,
		"svc.stage.track_ms":          ratio(histSum("svc.stage.track_ns"), histCount("svc.stage.track_ns")) / 1e6,
		"svc.stage.solve_wait_ms":     ratio(histSum("svc.stage.solve_wait_ns"), histCount("svc.stage.solve_wait_ns")) / 1e6,
		"svc.preemptions_per_fix":     count("svc.preemptions") / fixes,
		"svc.starve_grants":           count("svc.starve_grants"),
		"svc.backpressure":            count("svc.backpressure"),
		"svc.timer_fires_per_fix":     count("svc.timer_fires") / fixes,
		"ndft.solves_per_fix":         solves / fixes,
		"ndft.iters_per_solve":        ratio(count("ndft.solve.iterations"), solves),
		"ndft.capped_ratio":           ratio(count("ndft.solve.capped"), solves),
		"ndft.gap_stop_ratio":         ratio(count("ndft.solve.gap_stops"), solves),
		"ndft.kkt_fallback_ratio":     ratio(count("ndft.solve.kkt_fallbacks"), solves),
		"ndft.batch_width_mean":       ratio(histSum("ndft.solve.batch_width"), histCount("ndft.solve.batch_width")),
		"ndft.parked_per_fix":         count("ndft.solve.parked") / fixes,
		"tof.solve_ms_per_fix":        histSum("tof.stage.solve_ns") / 1e6 / fixes,
		"tof.alias_ms_per_fix":        histSum("tof.stage.alias_ns") / 1e6 / fixes,
		"tof.alias_refits_per_fix":    count("tof.alias.refits") / fixes,
		"tof.alias_flip_ratio":        ratio(count("tof.alias.flips"), count("tof.alias.refits")),
		"tof.coalesce_hold_ratio":     ratio(count("tof.coalesce.holds"), submits),
		"tof.coalesce_follower_ratio": ratio(count("tof.coalesce.followers"), submits),
		"tof.coalesce_width_mean":     ratio(histSum("tof.coalesce.batch_width"), histCount("tof.coalesce.batch_width")),
		"tof.registry_builds":         b.Gauges["tof.registry.builds"],
		"tof.registry_mb":             b.Gauges["tof.registry.bytes"] / 1e6,
		"range_err_cm_p50":            stats.Percentile(p.errsCm, 50),
		"range_err_cm_p90":            stats.Percentile(p.errsCm, 90),
	}
	allocs := float64(p.rtAfter[0].Value.Uint64() - p.rtBefore[0].Value.Uint64())
	out["go.alloc_kb_per_fix"] = allocs / 1024 / fixes
	gc := p.rtAfter[1].Value.Float64() - p.rtBefore[1].Value.Float64()
	total := p.rtAfter[2].Value.Float64() - p.rtBefore[2].Value.Float64()
	out["go.gc_cpu_share"] = ratio(gc, total)
	for _, s := range perLayer {
		if m := p.spans[s.name]; m != nil && m.N() > 0 {
			out[s.name] = m.Mean()
		} else if _, ok := out[s.name]; !ok {
			out[s.name] = 0
		}
	}
	return out
}

// ratio is a/b, or 0 when nothing was counted.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
