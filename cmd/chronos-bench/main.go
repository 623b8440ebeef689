// Command chronos-bench regenerates every table and figure of the paper's
// evaluation (§12) from the simulated testbed and prints them as text
// tables. Each figure can be selected individually:
//
//	chronos-bench              # run everything
//	chronos-bench -fig 7a      # one figure
//	chronos-bench -ablate cfo  # one ablation study
//	chronos-bench -trials 50   # scale campaign sizes
//	chronos-bench -workers 4   # bound the trial worker pool (0 = all cores)
//	chronos-bench -json        # machine-readable output (feeds BENCH_*.json)
//
// Campaign trials are seeded per trial, so tables are byte-identical for
// a given -seed regardless of -workers.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"chronos/internal/exp"
)

var figures = []struct {
	key string
	fn  func(exp.Options) *exp.Result
	// explicitOnly excludes a pseudo-figure from the empty -fig "run
	// everything" loop: the default invocation must keep the documented
	// byte-identical-per-seed contract, which wall-clock columns break.
	explicitOnly bool
}{
	{key: "3", fn: exp.Fig3},
	{key: "4", fn: exp.Fig4},
	{key: "7a", fn: exp.Fig7a},
	{key: "7b", fn: exp.Fig7b},
	{key: "7c", fn: exp.Fig7c},
	{key: "8a", fn: exp.Fig8a},
	{key: "8b", fn: exp.Fig8b},
	{key: "8c", fn: exp.Fig8c},
	{key: "9a", fn: exp.Fig9a},
	{key: "9b", fn: exp.Fig9b},
	{key: "9c", fn: exp.Fig9c},
	{key: "10a", fn: exp.Fig10a},
	{key: "10b", fn: exp.Fig10b},
	// perf is not a paper figure: it snapshots the solver core's cold vs
	// warm-started iteration counts and latency (the BENCH_baseline.json
	// trajectory). Its µs columns are wall-clock, so it only runs when
	// requested explicitly.
	{key: "perf", fn: exp.PerfSolver, explicitOnly: true},
	// alias is the alias-resolution ablation (vertex- vs family-ranked
	// peaks); aliasperf snapshots the alias-refit cost cold vs
	// warm-started in deterministic Work units (both feed BENCH_4.json).
	// They are deterministic per seed but not paper figures, so like perf
	// they run only when requested.
	{key: "alias", fn: exp.AliasRanking, explicitOnly: true},
	{key: "aliasperf", fn: exp.PerfAlias, explicitOnly: true},
	// converge is the noise-adaptive convergence campaign (PR 5): the
	// duality-gap stop vs the fixed-tolerance ablation across SNR, the
	// office accuracy guard, the colliding-families warm-refit fixture,
	// and streaming-session convergence telemetry — all in deterministic
	// units, snapshotted into BENCH_5.json.
	{key: "converge", fn: exp.PerfConverge, explicitOnly: true},
	// service is the always-on daemon capacity campaign (PR 9): a
	// virtual-time chronos-svc carrying a 10k-device stat fleet plus a
	// full-pipeline cohort, reporting concurrent tracked devices,
	// sustained fix throughput, p99 fix latency, and drain time
	// (BENCH_8.json). Wall-clock columns, so
	// explicit-only like perf; servicescaled is the CI-sized variant.
	{key: "service", fn: exp.PerfService, explicitOnly: true},
	{key: "servicescaled", fn: exp.PerfServiceScaled, explicitOnly: true},
	// pipeline is the solve-pool latency-isolation campaign: a
	// latency-class stream under a bulk-class swarm, run with every solve
	// on its shard and again through the solve pool, where latency solves
	// dequeue first and bulk solves run waiting ones inline at their gap
	// checks, comparing per-class p99 inter-fix gaps (BENCH_9.json).
	// Wall-clock columns, so explicit-only like perf.
	{key: "pipeline", fn: exp.PerfPipeline, explicitOnly: true},
}

var ablations = []struct {
	key string
	fn  func(exp.Options) *exp.Result
}{
	{key: "bands", fn: exp.AblationBands},
	{key: "delay", fn: exp.AblationDelay},
	{key: "cfo", fn: exp.AblationCFO},
	{key: "sparsity", fn: exp.AblationSparsity},
	{key: "separation", fn: exp.AblationSeparation},
}

func main() {
	fig := flag.String("fig", "", "comma-separated figures to regenerate (3,4,7a,7b,7c,8a,8b,8c,9a,9b,9c,10a,10b, plus the pseudo-figures perf, alias, aliasperf, converge); empty = all paper figures (pseudo-figures run only when requested)")
	ablate := flag.String("ablate", "", "ablation to run (bands,delay,cfo,sparsity,separation, or 'all')")
	trials := flag.Int("trials", 0, "trials per condition (0 = experiment default)")
	seed := flag.Int64("seed", 1, "campaign seed")
	workers := flag.Int("workers", 0, "campaign worker-pool size (0 = all cores); tables are identical for a given -seed at any worker count")
	asJSON := flag.Bool("json", false, "emit results as JSON instead of text tables")
	flag.Parse()

	opts := exp.Options{Seed: *seed, Trials: *trials, Workers: *workers}

	// Text mode streams each table as its campaign finishes (full runs
	// take minutes); JSON buffers so the output is one valid array.
	var results []*exp.Result
	collect := func(r *exp.Result) {
		if *asJSON {
			results = append(results, r)
			return
		}
		fmt.Println(r)
	}

	ran := false
	if *ablate != "" {
		for _, a := range ablations {
			if *ablate == "all" || a.key == *ablate {
				collect(a.fn(opts))
				ran = true
			}
		}
		if !ran {
			fmt.Fprintf(os.Stderr, "unknown ablation %q (have: %s, all)\n", *ablate, keys(len(ablations), func(i int) string { return ablations[i].key }))
			os.Exit(2)
		}
	} else {
		// -fig accepts a comma-separated list so one invocation can emit
		// a combined JSON snapshot (e.g. -fig perf,alias,aliasperf -json
		// regenerates BENCH_4.json as a single array). Keys are validated
		// up front: campaigns take minutes, and a typo must not burn a
		// run before erroring (or discard buffered -json results).
		known := map[string]bool{}
		for _, f := range figures {
			known[f.key] = true
		}
		want := map[string]bool{}
		var unknown []string
		for _, k := range strings.Split(*fig, ",") {
			if k = strings.TrimSpace(k); k != "" {
				if !known[k] {
					unknown = append(unknown, k)
				}
				want[k] = true
			}
		}
		if len(unknown) > 0 {
			fmt.Fprintf(os.Stderr, "unknown figure(s) %q (have: %s)\n", strings.Join(unknown, ","), keys(len(figures), func(i int) string { return figures[i].key }))
			os.Exit(2)
		}
		if len(want) == 0 && strings.TrimSpace(*fig) != "" {
			// A -fig of only commas/whitespace is a typo, not a request
			// to run the full multi-minute sweep.
			fmt.Fprintf(os.Stderr, "no figure selected by -fig %q (have: %s)\n", *fig, keys(len(figures), func(i int) string { return figures[i].key }))
			os.Exit(2)
		}
		runAll := len(want) == 0
		for _, f := range figures {
			if want[f.key] || (runAll && !f.explicitOnly) {
				collect(f.fn(opts))
				ran = true
			}
		}
		if !ran {
			fmt.Fprintf(os.Stderr, "no figure selected by %q (have: %s)\n", *fig, keys(len(figures), func(i int) string { return figures[i].key }))
			os.Exit(2)
		}
	}

	if *asJSON {
		if err := exp.WriteJSON(os.Stdout, results); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
}

func keys(n int, get func(int) string) string {
	out := make([]string, n)
	for i := range out {
		out[i] = get(i)
	}
	return strings.Join(out, ",")
}
