package tof

import "chronos/internal/obs"

// Estimation-stage observability handles. Counters here count
// scheduling-independent events, so their totals are identical at any
// shard or worker count. Registry occupancy is exported as
// snapshot-time gauges (builds and evictions depend on process-wide
// cache warmth, so they are state, not a deterministic event count).
var (
	// obsEstimates counts Estimate calls that reached inversion.
	obsEstimates = obs.NewCounter("tof.estimates")
	// obsAliasRefits counts alias-window refit solves (each one is an
	// extra restricted Plan.Solve issued by the scorer).
	obsAliasRefits = obs.NewCounter("tof.alias.refits")
	// obsAliasFlips counts candidate placements the alias scorer moved
	// to a different fold than the solver's first peak.
	obsAliasFlips = obs.NewCounter("tof.alias.flips")
	// obsAliasResolves counts sweeps solved a second time, on the
	// precise path, because their gap-stopped placement came out
	// contested (at most one per Estimate).
	obsAliasResolves = obs.NewCounter("tof.alias.resolves")
	// obsRegistryLookups counts plan-registry resolutions (hits and
	// builds alike — deterministic, unlike the build/eviction split).
	obsRegistryLookups = obs.NewCounter("tof.registry.lookups")
	// obsNoiseRel is the sweep's relative noise floor ‖w‖/‖h‖, one per
	// solved Estimate — the quantity that scales the gap tolerance and
	// the alias evidence gates.
	obsNoiseRel = obs.NewHist("tof.noise_rel")
	// obsBandsDropped counts bands AddBand discarded because their
	// folded mean or pair spread was not finite (NaN, ±Inf, or CSI so
	// large the fold overflowed): one such band would otherwise corrupt
	// the whole inversion without an error.
	obsBandsDropped = obs.NewCounter("tof.bands_dropped")
	// obsStageSolveNs spans one main inversion attempt (Plan.Solve),
	// including whatever its yield hook ran; a re-solved sweep records
	// two.
	obsStageSolveNs = obs.NewHist("tof.stage.solve_ns")
	// obsStageAliasNs spans the alias ranking/refit stage of one attempt.
	obsStageAliasNs = obs.NewHist("tof.stage.alias_ns")
)

func init() {
	// Registry occupancy is read at snapshot time rather than pushed on
	// every mutation: the registry converges to a steady state within
	// one campaign, and a poll-time read avoids putting the stats lock
	// on the solve path.
	gauge := func(name string, field func(RegistryStats) float64) {
		obs.NewGauge(name, func(*obs.Snapshot) float64 { return field(SharedRegistryStats()) })
	}
	gauge("tof.registry.plans", func(st RegistryStats) float64 { return float64(st.Plans) })
	gauge("tof.registry.max_plans", func(st RegistryStats) float64 { return float64(st.MaxPlans) })
	gauge("tof.registry.builds", func(st RegistryStats) float64 { return float64(st.Builds) })
	gauge("tof.registry.evictions", func(st RegistryStats) float64 { return float64(st.Evictions) })
	gauge("tof.registry.bytes", func(st RegistryStats) float64 { return float64(st.Bytes) })
}
