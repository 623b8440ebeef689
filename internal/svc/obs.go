package svc

import (
	"sync/atomic"

	"chronos/internal/obs"
)

// Service observability handles. Lifecycle counters count
// scheduling-independent events, so their totals are deterministic at
// any shard count; the fleet gauges are derived at snapshot time from
// the most recently started daemon's atomic shard mirrors.
var (
	// obsAttaches counts accepted Attach calls.
	obsAttaches = obs.NewCounter("svc.attaches")
	// obsDetaches counts accepted Detach calls.
	obsDetaches = obs.NewCounter("svc.detaches")
	// obsRetired counts retired devices (completed, detached, drained,
	// or failed).
	obsRetired = obs.NewCounter("svc.retired")
	// obsAttachErrors counts rejected lifecycle commands: duplicate
	// attaches, detaches of unknown IDs, session build failures.
	obsAttachErrors = obs.NewCounter("svc.attach_errors")
	// obsDrains counts completed graceful drains.
	obsDrains = obs.NewCounter("svc.drains")
	// obsTimerFires counts shard timer fires across all shards.
	obsTimerFires = obs.NewCounter("svc.timer_fires")
	// obsFullSweeps counts full band sweeps executed by the daemon.
	obsFullSweeps = obs.NewCounter("svc.full_sweeps")

	// obsSweepNs spans one sweep, in wall nanoseconds — the service's
	// fix latency distribution: from the timer fire that starts it to
	// the finish that records its fix, solve-queue waiting included.
	obsSweepNs = obs.NewHist("svc.sweep_ns")

	// Per-class inter-fix wall gap of every device: the time between a
	// device's consecutive completed sweeps. Head-of-line blocking shows
	// up here wherever it happens — as timer-fire delay on the shard, as
	// class-queue delay on the pool — which is what the pipeline
	// campaign's p99 comparison and the CI smoke lane assert against.
	obsFixLatencyNs = obs.NewHist("svc.fix.latency_ns")
	obsFixBulkNs    = obs.NewHist("svc.fix.bulk_ns")

	// Stage spans of every full sweep (ingest and track on the shard, the
	// solve on whichever pool goroutine runs it) and the solve's queue
	// wait (class-queue enqueue → dequeue). One of each per sweep: a bulk
	// solve's span leaves out the latency solves it ran inline.
	obsStageIngestNs    = obs.NewHist("svc.stage.ingest_ns")
	obsStageSolveNs     = obs.NewHist("svc.stage.solve_ns")
	obsStageSolveWaitNs = obs.NewHist("svc.stage.solve_wait_ns")
	obsStageTrackNs     = obs.NewHist("svc.stage.track_ns")

	// obsPreemptions counts latency-class solves that a bulk solve ran
	// inline at one of its gap checks.
	obsPreemptions = obs.NewCounter("svc.preemptions")
	// obsStarveGrants counts bulk tokens granted by the starvation
	// bound while latency tokens were still queued.
	obsStarveGrants = obs.NewCounter("svc.starve_grants")
	// obsBackpressure counts solve-queue pushes that found the queue
	// full and blocked their shard (bounded-queue backpressure events).
	obsBackpressure = obs.NewCounter("svc.backpressure")
)

// currentDaemon is the daemon the snapshot gauges describe. The metric
// registry is process-wide while daemons are per-instance, so the last
// daemon started wins — in production there is exactly one; tests that
// assert gauges start their daemon last.
var currentDaemon atomic.Pointer[Daemon]

func init() {
	gauge := func(name string, f func(*Daemon) float64) {
		obs.NewGauge(name, func(*obs.Snapshot) float64 {
			if d := currentDaemon.Load(); d != nil {
				return f(d)
			}
			return 0
		})
	}
	gauge("svc.sessions", func(d *Daemon) float64 { return float64(d.Sessions()) })
	gauge("svc.shards", func(d *Daemon) float64 { return float64(len(d.shards)) })
	gauge("svc.queue_depth", func(d *Daemon) float64 { return float64(d.QueueDepth()) })
	// The pending shard-timer count, under the metric name dashboards
	// already read.
	gauge("svc.wheel_timers", func(d *Daemon) float64 { return float64(d.PendingTimers()) })

	// Solve-pool class-queue depths, utilization (busy workers / pool
	// size) and tokens out in the pool.
	gauge("svc.pipe.queue.solve_lat", func(d *Daemon) float64 {
		lat, _ := d.pipe.solveQ.depths()
		return float64(lat)
	})
	gauge("svc.pipe.queue.solve_bulk", func(d *Daemon) float64 {
		_, bulk := d.pipe.solveQ.depths()
		return float64(bulk)
	})
	gauge("svc.pipe.util.solve", func(d *Daemon) float64 {
		return float64(d.pipe.busy.Load()) / float64(d.pipe.cfg.SolveWorkers)
	})
	gauge("svc.pipe.inflight", func(d *Daemon) float64 {
		inflight := int64(0)
		for _, sh := range d.shards {
			inflight += sh.inflight.Load()
		}
		return float64(inflight)
	})
}
