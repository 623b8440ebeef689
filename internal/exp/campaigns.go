package exp

import (
	"fmt"
	"slices"
	"strings"
)

// Campaign is one registered campaign: the key chronos-bench selects it
// by and the function that regenerates its table.
type Campaign struct {
	Key string
	Run func(Options) *Result
	// ExplicitOnly keeps a pseudo-figure out of chronos-bench's default
	// run of the paper figures: it runs only when named.
	ExplicitOnly bool
	// WallClock marks a campaign whose columns time the host, so its
	// table differs from run to run at one seed. Such a campaign is
	// ExplicitOnly, since the default invocation is byte-identical per
	// seed, and the campaign golden leaves it out.
	WallClock bool
}

// Figures lists chronos-bench's figure keys in run order: the paper's
// §12 figures, then the pseudo-figures. The pseudo-figures are not paper
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
	// campaign and an adversarial deep-NLOS geometry.
	{Key: "alias", Run: AliasRanking, ExplicitOnly: true},
	// pipeline is the solve-pool latency-isolation campaign: a
	// latency-class stream under a bulk-class swarm on the daemon's solve
	// pool, where latency solves dequeue first and bulk solves run
	// waiting ones inline at their gap checks, comparing per-class p99
	// inter-fix gaps.
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

// TrackCampaigns lists the streaming tracking campaigns in run order.
// chronos-bench's -fig names them beside the figures, and like the
// pseudo-figures they run only when named.
var TrackCampaigns = []Campaign{
	{Key: "speed", Run: TrackSpeed},
	{Key: "latency", Run: TrackLatency},
	{Key: "capacity", Run: TrackCapacity},
}

// registry is every campaign list in run order. Keys are unique across
// it, so one key names one campaign.
var registry = [][]Campaign{Figures, Ablations, TrackCampaigns}

// Keys joins the campaigns' keys with commas, in list order.
func Keys(cs []Campaign) string {
	keys := make([]string, len(cs))
	for i, c := range cs {
		keys[i] = c.Key
	}
	return strings.Join(keys, ",")
}

// Select resolves chronos-bench's -fig and -ablate values to the
// campaigns they name, in registry order: Figures, Ablations, then
// TrackCampaigns. Each value is a comma-separated key list: fig names
// figure and tracking keys, ablate names ablation keys or is "all".
// With both empty, Select returns the paper figures, the Figures that
// are not ExplicitOnly. An unknown key, or a value that names no key,
// is an error that lists the valid keys, so a typo fails before any
// campaign runs.
func Select(fig, ablate string) ([]Campaign, error) {
	want := map[string]bool{}
	figs := slices.Concat(Figures, TrackCampaigns)
	if err := addKeys(want, "-fig", fig, figs, Keys(figs)); err != nil {
		return nil, err
	}
	if ablate == "all" {
		ablate = Keys(Ablations)
	}
	if err := addKeys(want, "-ablate", ablate, Ablations, Keys(Ablations)+",all"); err != nil {
		return nil, err
	}
	if len(want) == 0 {
		for _, c := range Figures {
			want[c.Key] = !c.ExplicitOnly
		}
	}
	var sel []Campaign
	for _, c := range slices.Concat(registry...) {
		if want[c.Key] {
			sel = append(sel, c)
		}
	}
	return sel, nil
}

// addKeys adds each key of value, a comma-separated list, to want. Every
// key must name a campaign of known; have lists the valid keys for the
// error.
func addKeys(want map[string]bool, flag, value string, known []Campaign, have string) error {
	var named, unknown []string
	for _, k := range strings.Split(value, ",") {
		if k = strings.TrimSpace(k); k == "" {
			continue
		}
		if !slices.ContainsFunc(known, func(c Campaign) bool { return c.Key == k }) {
			unknown = append(unknown, k)
		}
		named = append(named, k)
	}
	switch {
	case len(unknown) > 0:
		return fmt.Errorf("unknown %s key(s) %q (have: %s)", flag, strings.Join(unknown, ","), have)
	case len(named) == 0 && value != "":
		// A value of only commas or spaces is a typo, not a request for
		// the default run.
		return fmt.Errorf("no campaign selected by %s %q (have: %s)", flag, value, have)
	}
	for _, k := range named {
		want[k] = true
	}
	return nil
}
