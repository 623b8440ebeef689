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
	// obsFullSweeps counts full-pipeline sweeps executed by the daemon.
	obsFullSweeps = obs.NewCounter("svc.full_sweeps")
	// obsStatFixes counts stat-device fixes executed by the daemon.
	obsStatFixes = obs.NewCounter("svc.stat_fixes")

	// obsSweepNs spans one full-pipeline sweep, in wall nanoseconds —
	// the service's full-fix latency distribution. Inline it spans the
	// StepSweep call; staged it spans submission to track completion
	// (queueing included), so the two modes stay comparable.
	obsSweepNs = obs.NewHist("svc.sweep_ns")
	// obsStatFixNs spans one stat fix (walk advance, sensor draw, Kalman
	// observe) in wall nanoseconds.
	obsStatFixNs = obs.NewHist("svc.stat_fix_ns")

	// Per-class inter-fix wall gap of full devices: the time between a
	// device's consecutive completed sweeps. Head-of-line blocking shows
	// up here identically on both execution paths — as timer-fire delay
	// inline, as queueing delay staged — which is what the pipeline
	// campaign's p99 comparison and the CI smoke lane assert against.
	obsFixLatencyNs = obs.NewHist("svc.fix.latency_ns")
	obsFixBulkNs    = obs.NewHist("svc.fix.bulk_ns")

	// Staged-pipeline stage spans (work time on a pool worker) and the
	// solve queue wait (class-queue enqueue → dequeue).
	obsStageIngestNs    = obs.NewHist("svc.stage.ingest_ns")
	obsStageSolveNs     = obs.NewHist("svc.stage.solve_ns")
	obsStageSolveWaitNs = obs.NewHist("svc.stage.solve_wait_ns")
	obsStageTrackNs     = obs.NewHist("svc.stage.track_ns")

	// obsPreemptions counts bulk solves parked at a gap-check boundary
	// to yield a solve worker to waiting latency-class work.
	obsPreemptions = obs.NewCounter("svc.preemptions")
	// obsStarveGrants counts bulk tokens granted by the starvation
	// bound while latency tokens were still queued.
	obsStarveGrants = obs.NewCounter("svc.starve_grants")
	// obsBackpressure counts stage-queue pushes that found the queue
	// full and blocked (bounded-queue backpressure events).
	obsBackpressure = obs.NewCounter("svc.backpressure")

	obsSessions   = obs.NewGauge("svc.sessions")
	obsShards     = obs.NewGauge("svc.shards")
	obsQueueDepth = obs.NewGauge("svc.queue_depth")
	// obsWheelTimers is the pending shard-timer count, under the metric
	// name dashboards already read.
	obsWheelTimers = obs.NewGauge("svc.wheel_timers")

	// Staged-pipeline queue depths and pool utilization (busy workers /
	// pool size), refreshed at snapshot time. All zero when the staged
	// pipeline is disabled.
	obsPipeQueueIngest    = obs.NewGauge("svc.pipe.queue.ingest")
	obsPipeQueueSolveLat  = obs.NewGauge("svc.pipe.queue.solve_lat")
	obsPipeQueueSolveBulk = obs.NewGauge("svc.pipe.queue.solve_bulk")
	obsPipeQueueTrack     = obs.NewGauge("svc.pipe.queue.track")
	obsPipeUtilIngest     = obs.NewGauge("svc.pipe.util.ingest")
	obsPipeUtilSolve      = obs.NewGauge("svc.pipe.util.solve")
	obsPipeUtilTrack      = obs.NewGauge("svc.pipe.util.track")
	obsPipeInflight       = obs.NewGauge("svc.pipe.inflight")
)

// currentDaemon is the daemon the snapshot gauges describe. The metric
// registry is process-wide while daemons are per-instance, so the last
// daemon started wins — in production there is exactly one; tests that
// assert gauges start their daemon last.
var currentDaemon atomic.Pointer[Daemon]

func init() {
	obs.OnSnapshot(func(s *obs.Snapshot) {
		d := currentDaemon.Load()
		if d == nil {
			return
		}
		obsSessions.Set(float64(d.Sessions()))
		obsShards.Set(float64(len(d.shards)))
		obsQueueDepth.Set(float64(d.QueueDepth()))
		obsWheelTimers.Set(float64(d.PendingTimers()))
		s.Gauges["svc.sessions"] = obsSessions.Value()
		s.Gauges["svc.shards"] = obsShards.Value()
		s.Gauges["svc.queue_depth"] = obsQueueDepth.Value()
		s.Gauges["svc.wheel_timers"] = obsWheelTimers.Value()
		if p := d.pipe; p != nil {
			lat, bulk := p.solveQ.depths()
			inflight := int64(0)
			for _, sh := range d.shards {
				inflight += sh.inflight.Load()
			}
			set := func(g *obs.Gauge, name string, v float64) {
				g.Set(v)
				s.Gauges[name] = v
			}
			set(obsPipeQueueIngest, "svc.pipe.queue.ingest", float64(len(p.ingestQ)))
			set(obsPipeQueueSolveLat, "svc.pipe.queue.solve_lat", float64(lat))
			set(obsPipeQueueSolveBulk, "svc.pipe.queue.solve_bulk", float64(bulk))
			set(obsPipeQueueTrack, "svc.pipe.queue.track", float64(len(p.trackQ)))
			set(obsPipeUtilIngest, "svc.pipe.util.ingest",
				float64(p.ingestBusy.Load())/float64(p.cfg.IngestWorkers))
			set(obsPipeUtilSolve, "svc.pipe.util.solve",
				float64(p.solveBusy.Load())/float64(p.cfg.SolveWorkers))
			set(obsPipeUtilTrack, "svc.pipe.util.track",
				float64(p.trackBusy.Load())/float64(p.cfg.TrackWorkers))
			set(obsPipeInflight, "svc.pipe.inflight", float64(inflight))
		}
	})
}
