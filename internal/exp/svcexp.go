package exp

import (
	"fmt"
	"math/rand"
	"time"

	"chronos/internal/obs"
	"chronos/internal/sim"
	"chronos/internal/svc"
	"chronos/internal/tof"
	"chronos/internal/track"
)

// PerfPipeline is the solve-pool latency-isolation campaign (the
// BENCH_9.json trajectory): one latency-class drone-follow stream
// buried under a bulk-class full-pipeline swarm that saturates the
// solve capacity, measured twice on virtual time — undisaggregated
// (every solve on its shard goroutine, where the stream waits its turn
// behind whole bulk sweeps) and staged through the solve pool with
// latency classes (the stream's solves jump the class queue, and a
// running bulk solve runs them inline at its next gap check). The
// figure of merit is the latency-class p99 inter-fix wall gap, which
// the staged run must hold strictly below the undisaggregated run's at
// the same offered load; the bulk-lane queue depth and solve-pool
// utilization ride along from a mid-window snapshot. Wall-clock
// columns, so explicit-only like the other perf campaigns.
func PerfPipeline(o Options) *Result {
	o = o.withDefaults(1)
	const (
		shards      = 2
		latDevices  = 2
		bulkDevices = 24
		settle      = 400 * time.Millisecond
		window      = 2500 * time.Millisecond
	)

	wasEnabled := obs.Enabled()
	obs.SetEnabled(true)
	defer obs.SetEnabled(wasEnabled)

	type modeOut struct {
		latP99, bulkP99, latP50, bulkP50 float64 // ms
		sweepRate                        float64
		preemptions, starveGrants        float64
		queueBulk, utilSolve             float64
	}
	run := func(pipeline bool) modeOut {
		obs.Reset()
		rng := rand.New(rand.NewSource(o.Seed))
		office := sim.NewOffice(rand.New(rand.NewSource(o.Seed^0x5eed0ff1ce)), sim.OfficeConfig{})
		d := svc.NewDaemon(svc.Config{
			Shards: shards, Office: office, Virtual: true,
			Pipeline: svc.PipelineConfig{
				Enabled: pipeline,
				// Solve capacity matches the undisaggregated run's shard
				// parallelism, so the comparison isolates scheduling: the
				// staged run wins by ordering and preemption, not by
				// throwing more solver goroutines at the same load.
				SolveWorkers: shards,
			},
		})
		scfg := track.SessionConfig{
			Speed: 1.0, Sweeps: -1, WarmStart: true, VelocityTranslate: true,
		}
		ecfg := tof.Config{Mode: tof.BandsFused, Quirk24: true, MaxIter: 1200}
		for i := 0; i < latDevices; i++ {
			if err := d.Attach(uint64(1+i), svc.DeviceConfig{
				Seed: rng.Int63(), Class: svc.ClassLatency, Session: scfg, Estimator: ecfg,
			}); err != nil {
				panic(fmt.Sprintf("perf-pipeline: latency attach: %v", err))
			}
		}
		for i := 0; i < bulkDevices; i++ {
			if err := d.Attach(uint64(1<<16+i), svc.DeviceConfig{
				Seed: rng.Int63(), Class: svc.ClassBulk, Session: scfg, Estimator: ecfg,
			}); err != nil {
				panic(fmt.Sprintf("perf-pipeline: bulk attach: %v", err))
			}
		}
		for d.Sessions() < latDevices+bulkDevices || d.QueueDepth() > 0 {
			time.Sleep(time.Millisecond)
		}
		// Settle into steady state, then reset so the histograms hold
		// only the measurement window.
		time.Sleep(settle)
		obs.Reset()
		t0 := time.Now()
		time.Sleep(window)
		mid := obs.Capture()
		elapsed := time.Since(t0).Seconds()
		snap, err := d.Drain(120 * time.Second)
		if err != nil {
			panic(fmt.Sprintf("perf-pipeline: %v", err))
		}
		// Queue depth and utilization are meaningful only mid-run, so
		// they come from the in-window capture; the per-class gap
		// histograms come from the drain snapshot so sweeps still in
		// flight at window close (under starvation, most bulk sweeps)
		// flush into the quantiles instead of vanishing.
		lat := snap.Hists["svc.fix.latency_ns"]
		bulk := snap.Hists["svc.fix.bulk_ns"]
		return modeOut{
			latP99:       lat.P99 / 1e6,
			latP50:       lat.P50 / 1e6,
			bulkP99:      bulk.P99 / 1e6,
			bulkP50:      bulk.P50 / 1e6,
			sweepRate:    float64(mid.Counters["svc.full_sweeps"]) / elapsed,
			preemptions:  float64(mid.Counters["svc.preemptions"]),
			starveGrants: float64(mid.Counters["svc.starve_grants"]),
			queueBulk:    mid.Gauges["svc.pipe.queue.solve_bulk"],
			utilSolve:    mid.Gauges["svc.pipe.util.solve"],
		}
	}

	inline := run(false)
	staged := run(true)

	res := &Result{
		ID: "perf-pipeline",
		Title: "staged pipeline with latency classes: latency-class p99 fix gap under bulk saturation, " +
			"staged (class queue + preemption) vs undisaggregated shard sweeps",
		Header: []string{"mode", "lat p50 ms", "lat p99 ms", "bulk p50 ms", "bulk p99 ms",
			"sweep/s", "preempts", "q(bulk)", "util(solve)"},
	}
	row := func(name string, m modeOut) {
		res.Rows = append(res.Rows, []string{
			name,
			fmtF(m.latP50, 1), fmtF(m.latP99, 1),
			fmtF(m.bulkP50, 1), fmtF(m.bulkP99, 1),
			fmtF(m.sweepRate, 1),
			fmtF(m.preemptions, 0),
			fmtF(m.queueBulk, 0), fmtF(m.utilSolve, 2),
		})
	}
	row("undisaggregated", inline)
	row("staged+classes", staged)
	res.Metrics = map[string]float64{
		"shards":                float64(shards),
		"latency_devices":       latDevices,
		"bulk_devices":          bulkDevices,
		"window_s":              window.Seconds(),
		"inline_lat_p50_ms":     inline.latP50,
		"inline_lat_p99_ms":     inline.latP99,
		"inline_bulk_p99_ms":    inline.bulkP99,
		"inline_sweep_rate_hz":  inline.sweepRate,
		"staged_lat_p50_ms":     staged.latP50,
		"staged_lat_p99_ms":     staged.latP99,
		"staged_bulk_p99_ms":    staged.bulkP99,
		"staged_sweep_rate_hz":  staged.sweepRate,
		"staged_preemptions":    staged.preemptions,
		"staged_starve_grants":  staged.starveGrants,
		"staged_queue_bulk":     staged.queueBulk,
		"staged_util_solve":     staged.utilSolve,
		"lat_p99_speedup":       inline.latP99 / staged.latP99,
		"lat_p99_improved":      boolMetric(staged.latP99 < inline.latP99),
		"lat_under_bulk_staged": boolMetric(staged.latP99 < staged.bulkP99),
	}
	return res
}

// boolMetric renders a pass/fail assertion as a 0/1 metric column.
func boolMetric(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
