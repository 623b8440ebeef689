// Command chronos-bench regenerates every table and figure of the paper's
// evaluation (§12) from the simulated testbed and prints them as text
// tables. Each figure can be selected individually:
//
//	chronos-bench              # run everything
//	chronos-bench -fig 7a      # one figure
//	chronos-bench -ablate cfo  # one ablation study
//	chronos-bench -trials 50   # scale campaign sizes
//	chronos-bench -workers 4   # bound the trial worker pool (0 = all cores)
//	chronos-bench -json        # machine-readable output
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

func main() {
	fig := flag.String("fig", "", "comma-separated figures to regenerate (3,4,7a,7b,7c,8a,8b,8c,9a,9b,9c,10a,10b, plus the pseudo-figures alias, aliasperf, converge, pipeline); empty = all paper figures (pseudo-figures run only when requested)")
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
		for _, a := range exp.Ablations {
			if *ablate == "all" || a.Key == *ablate {
				collect(a.Run(opts))
				ran = true
			}
		}
		if !ran {
			fmt.Fprintf(os.Stderr, "unknown ablation %q (have: %s, all)\n", *ablate, exp.Keys(exp.Ablations))
			os.Exit(2)
		}
	} else {
		// -fig accepts a comma-separated list so one invocation can emit
		// a combined JSON snapshot (e.g. -fig alias,aliasperf -json
		// prints both tables as a single array). Keys are validated
		// up front: campaigns take minutes, and a typo must not burn a
		// run before erroring (or discard buffered -json results).
		known := map[string]bool{}
		for _, f := range exp.Figures {
			known[f.Key] = true
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
			fmt.Fprintf(os.Stderr, "unknown figure(s) %q (have: %s)\n", strings.Join(unknown, ","), exp.Keys(exp.Figures))
			os.Exit(2)
		}
		if len(want) == 0 && strings.TrimSpace(*fig) != "" {
			// A -fig of only commas/whitespace is a typo, not a request
			// to run the full multi-minute sweep.
			fmt.Fprintf(os.Stderr, "no figure selected by -fig %q (have: %s)\n", *fig, exp.Keys(exp.Figures))
			os.Exit(2)
		}
		runAll := len(want) == 0
		for _, f := range exp.Figures {
			if want[f.Key] || (runAll && !f.ExplicitOnly) {
				collect(f.Run(opts))
				ran = true
			}
		}
		if !ran {
			fmt.Fprintf(os.Stderr, "no figure selected by %q (have: %s)\n", *fig, exp.Keys(exp.Figures))
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
