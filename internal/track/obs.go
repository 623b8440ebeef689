package track

import "chronos/internal/obs"

// Tracking observability handles. Fix counters and the fix-latency
// histogram are measured on the MAC simulator's virtual clock, so both
// their counts and their contents are deterministic per seed; only the
// wall-clock stage spans (sweep accumulate, Kalman update) vary per
// host.
var (
	// obsFixes counts final (full-sweep) fixes across all sessions.
	obsFixes = obs.NewCounter("track.fixes")
	// obsEarlyFixes counts early partial-sweep fixes.
	obsEarlyFixes = obs.NewCounter("track.early_fixes")
	// obsCappedFixes counts fixes whose inversion hit the iteration cap.
	obsCappedFixes = obs.NewCounter("track.capped_fixes")
	// obsGateRejects counts fixes discarded by the Kalman innovation gate.
	obsGateRejects = obs.NewCounter("track.gate_rejects")
	// obsFixLatencyNs is per-fix protocol latency (sweep start to fix) in
	// virtual nanoseconds — deterministic contents, unlike the wall spans.
	obsFixLatencyNs = obs.NewHist("track.fix_latency_ns")
	// obsStageSweepNs spans one sweep's accumulate stage (all band
	// dwells, hops, and CSI bookkeeping) in wall nanoseconds.
	obsStageSweepNs = obs.NewHist("track.stage.sweep_ns")
	// obsStageKalmanNs spans one Kalman observe/update in wall
	// nanoseconds.
	obsStageKalmanNs = obs.NewHist("track.stage.kalman_ns")
)

func init() {
	// Fix rate and cap rate are derived at snapshot time from the
	// counters already in the snapshot — the live numbers the -watch
	// mode polls.
	obs.NewGauge("track.fix_rate_hz", func(s *obs.Snapshot) float64 {
		if up := float64(s.UptimeNs) / 1e9; up > 0 {
			return float64(s.Counters["track.fixes"]) / up
		}
		return 0
	})
	obs.NewGauge("track.cap_rate", func(s *obs.Snapshot) float64 {
		if fixes := s.Counters["track.fixes"]; fixes > 0 {
			return float64(s.Counters["track.capped_fixes"]) / float64(fixes)
		}
		return 0
	})
}

// recordFix folds one final fix into the tracking metrics.
func recordFix(latency int64, accepted, converged bool) {
	if !obs.Enabled() {
		return
	}
	obsFixes.Inc()
	if !accepted {
		obsGateRejects.Inc()
	}
	if !converged {
		obsCappedFixes.Inc()
	}
	obsFixLatencyNs.Observe(float64(latency))
}
