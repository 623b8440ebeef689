package hop

import "chronos/internal/obs"

// Hop-protocol observability handles. Everything is driven by the
// virtual-time MAC simulator, so both the counters and the histogram
// contents (dwell, sweep duration, revert time — all virtual
// nanoseconds) are fully deterministic for a given seed at any worker
// count.
var (
	// obsHops counts completed band hops (acked announce rounds).
	obsHops = obs.NewCounter("hop.hops")
	// obsAnnounces counts announce frames sent, retransmissions included.
	obsAnnounces = obs.NewCounter("hop.announces")
	// obsRetries totals announce retransmissions across completed hops.
	obsRetries = obs.NewCounter("hop.retries")
	// obsFailSafes counts fail-safe reverts to the default band.
	obsFailSafes = obs.NewCounter("hop.failsafes")
	// obsRevertNs totals virtual time lost to fail-safe reverts.
	obsRevertNs = obs.NewCounter("hop.revert_ns")
	// obsDwellNs is per-band occupancy (virtual ns from band entry to
	// leave) of every RunSchedule dwell.
	obsDwellNs = obs.NewHist("hop.band_dwell_ns")
	// obsSweepNs is each completed sweep's duration, first dwell to fix,
	// in virtual nanoseconds.
	obsSweepNs = obs.NewHist("hop.sweep_duration_ns")
)
