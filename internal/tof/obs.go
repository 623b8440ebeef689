package tof

import "chronos/internal/obs"

// Estimation-stage observability handles. Counters here count
// scheduling-independent events, so their totals are identical at any
// shard or worker count. Registry occupancy is exported as snapshot-time gauges (builds and
// evictions depend on process-wide cache warmth, so they are state, not
// a deterministic event count).
var (
	// obsEstimates counts Estimate calls that reached inversion.
	obsEstimates = obs.NewCounter("tof.estimates")
	// obsAliasRefits counts alias-window refit solves (each one is an
	// extra restricted Plan.Solve issued by the scorer).
	obsAliasRefits = obs.NewCounter("tof.alias.refits")
	// obsAliasFlips counts candidate placements the alias scorer moved
	// to a different fold than the solver's first peak.
	obsAliasFlips = obs.NewCounter("tof.alias.flips")
	// obsAliasResolves counts primary groups solved a second time, on
	// the precise path, because their gap-stopped placement came out
	// contested (at most one per Estimate).
	obsAliasResolves = obs.NewCounter("tof.alias.resolves")
	// obsRegistryLookups counts plan-registry resolutions (hits and
	// builds alike — deterministic, unlike the build/eviction split).
	obsRegistryLookups = obs.NewCounter("tof.registry.lookups")
	// obsNoiseRel is the per-group relative noise floor ‖w‖/‖h‖ — the
	// quantity that scales the gap tolerance and the alias evidence gates.
	obsNoiseRel = obs.NewHist("tof.noise_rel")
	// obsNoiseFallbacks counts groups whose pair-spread noise estimate
	// was empty (single-pair dwells) and fell back to the cross-band MAD
	// floor (ndft.Plan.NoiseFloor).
	obsNoiseFallbacks = obs.NewCounter("tof.noise_fallbacks")
	// obsBandsDropped counts bands AddBand discarded because their
	// folded mean or pair spread was not finite (NaN, ±Inf, or CSI so
	// large the fold overflowed): one such band would otherwise corrupt
	// its whole group's inversion without an error.
	obsBandsDropped = obs.NewCounter("tof.bands_dropped")
	// obsStageSolveNs spans one main inversion attempt of one group
	// (Plan.Solve), including whatever its yield hook ran; a re-solved
	// group records two.
	obsStageSolveNs = obs.NewHist("tof.stage.solve_ns")
	// obsStageAliasNs spans the alias ranking/refit stage of one group.
	obsStageAliasNs = obs.NewHist("tof.stage.alias_ns")

	obsRegistryPlans     = obs.NewGauge("tof.registry.plans")
	obsRegistryMaxPlans  = obs.NewGauge("tof.registry.max_plans")
	obsRegistryBuilds    = obs.NewGauge("tof.registry.builds")
	obsRegistryEvictions = obs.NewGauge("tof.registry.evictions")
	obsRegistryBytes     = obs.NewGauge("tof.registry.bytes")
)

func init() {
	// Registry occupancy is read at snapshot time rather than pushed on
	// every mutation: the registry converges to a steady state within
	// one campaign, and a poll-time gauge read avoids putting the stats
	// lock on the solve path.
	obs.OnSnapshot(func(s *obs.Snapshot) {
		st := SharedRegistryStats()
		obsRegistryPlans.Set(float64(st.Plans))
		obsRegistryMaxPlans.Set(float64(st.MaxPlans))
		obsRegistryBuilds.Set(float64(st.Builds))
		obsRegistryEvictions.Set(float64(st.Evictions))
		obsRegistryBytes.Set(float64(st.Bytes))
		// Callbacks run after the gauge map is rendered, so snapshot-time
		// gauges write the map directly (Set alone would lag a snapshot).
		s.Gauges["tof.registry.plans"] = float64(st.Plans)
		s.Gauges["tof.registry.max_plans"] = float64(st.MaxPlans)
		s.Gauges["tof.registry.builds"] = float64(st.Builds)
		s.Gauges["tof.registry.evictions"] = float64(st.Evictions)
		s.Gauges["tof.registry.bytes"] = float64(st.Bytes)
	})
}
