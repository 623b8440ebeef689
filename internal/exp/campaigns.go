package exp

import "strings"

// Campaign is one registered campaign: the key a binary selects it by
// and the function that regenerates its table.
type Campaign struct {
	Key string
	Run func(Options) *Result
	// ExplicitOnly keeps a pseudo-figure out of chronos-bench's empty
	// -fig "run everything" loop: it runs only when named.
	ExplicitOnly bool
	// WallClock marks a campaign whose columns time the host, so its
	// table differs from run to run at one seed. Such a campaign is
	// ExplicitOnly, since the default invocation is byte-identical per
	// seed, and the campaign golden leaves it out.
	WallClock bool
}

// Figures lists chronos-bench's -fig keys in run order: the paper's §12
// figures, then the pseudo-figures. The pseudo-figures are not paper
// figures, so they run only when named.
var Figures = []Campaign{
	{Key: "3", Run: Fig3},
	{Key: "4", Run: Fig4},
	{Key: "7a", Run: Fig7a},
	{Key: "7b", Run: Fig7b},
	{Key: "7c", Run: Fig7c},
	{Key: "8a", Run: Fig8a},
	{Key: "8b", Run: Fig8b},
	{Key: "8c", Run: Fig8c},
	{Key: "9a", Run: Fig9a},
	{Key: "9b", Run: Fig9b},
	{Key: "9c", Run: Fig9c},
	{Key: "10a", Run: Fig10a},
	{Key: "10b", Run: Fig10b},
	// alias measures the family-ranked alias resolution on the office
	// campaign and an adversarial deep-NLOS geometry; aliasperf
	// snapshots the alias-refit cost cold vs warm-started in
	// deterministic Work units.
	{Key: "alias", Run: AliasRanking, ExplicitOnly: true},
	{Key: "aliasperf", Run: PerfAlias, ExplicitOnly: true},
	// converge is the noise-adaptive convergence campaign: the
	// duality-gap stop vs Algorithm 1's iterate rule across SNR, the
	// office accuracy guard, the colliding-families warm-refit fixture,
	// and streaming-session convergence telemetry — all in deterministic
	// units.
	{Key: "converge", Run: PerfConverge, ExplicitOnly: true},
	// pipeline is the solve-pool latency-isolation campaign: a
	// latency-class stream under a bulk-class swarm, run with every solve
	// on its shard and again through the solve pool, where latency solves
	// dequeue first and bulk solves run waiting ones inline at their gap
	// checks, comparing per-class p99 inter-fix gaps.
	{Key: "pipeline", Run: PerfPipeline, ExplicitOnly: true, WallClock: true},
}

// Ablations lists chronos-bench's -ablate keys in run order.
var Ablations = []Campaign{
	{Key: "bands", Run: AblationBands},
	{Key: "delay", Run: AblationDelay},
	{Key: "cfo", Run: AblationCFO},
	{Key: "sparsity", Run: AblationSparsity},
	{Key: "separation", Run: AblationSeparation},
}

// TrackCampaigns lists chronos-track's -campaign keys in run order.
var TrackCampaigns = []Campaign{
	{Key: "speed", Run: TrackSpeed},
	{Key: "latency", Run: TrackLatency},
	{Key: "capacity", Run: TrackCapacity},
}

// Keys joins the campaigns' keys with commas, in list order.
func Keys(cs []Campaign) string {
	keys := make([]string, len(cs))
	for i, c := range cs {
		keys[i] = c.Key
	}
	return strings.Join(keys, ",")
}
