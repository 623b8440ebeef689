// Command chronos-bench runs every campaign of the internal/exp
// registry: the paper's evaluation (§12) regenerated from the simulated
// testbed, the ablations and the streaming tracking campaigns, each
// printed as a text table.
//
//	chronos-bench                              # every paper figure
//	chronos-bench -fig 7a                      # one figure
//	chronos-bench -fig speed,latency,capacity  # the tracking campaigns
//	chronos-bench -fig pipeline                # the daemon's solve pool, timed on this host
//	chronos-bench -ablate cfo                  # one ablation study
//	chronos-bench -fig 3 -ablate all           # a figure and every ablation
//	chronos-bench -trials 50                   # scale campaign sizes
//	chronos-bench -workers 4                   # bound the trial worker pool (0 = all cores)
//	chronos-bench -json                        # machine-readable output
//	chronos-bench -metrics :6060               # live /metrics + pprof endpoint
//	chronos-bench -watch 1s                    # live fix-rate/p99 lines on stderr
//
// Campaign trials are seeded per trial, so tables are byte-identical for
// a given -seed regardless of -workers. -metrics and -watch enable the
// observability layer (instrumentation records nothing without them);
// -json with either set embeds the obs snapshot in the output, and
// -linger keeps the endpoint serving after the campaigns finish so a
// poller can scrape the final state.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"chronos/internal/exp"
	"chronos/internal/obs"
	"chronos/internal/obs/obshttp"
)

func main() {
	fig := flag.String("fig", "", "comma-separated figures and tracking campaigns to run ("+exp.Keys(exp.Figures)+","+exp.Keys(exp.TrackCampaigns)+"); empty = the paper figures (tracking campaigns run only when named)")
	ablate := flag.String("ablate", "", "comma-separated ablations to run ("+exp.Keys(exp.Ablations)+"), or 'all'")
	trials := flag.Int("trials", 0, "trials per condition (0 = experiment default)")
	seed := flag.Int64("seed", 1, "campaign seed")
	workers := flag.Int("workers", 0, "campaign worker-pool size (0 = all cores); tables are identical for a given -seed at any worker count")
	asJSON := flag.Bool("json", false, "emit results as JSON instead of text tables")
	metrics := flag.String("metrics", "", "serve JSON /metrics and pprof on this address (e.g. :6060)")
	watch := flag.Duration("watch", 0, "print a live fix-rate/p99 line to stderr at this interval")
	linger := flag.Duration("linger", 0, "keep the -metrics endpoint serving this long after campaigns finish")
	flag.Parse()

	// Keys are checked before anything runs: campaigns take minutes, and
	// a typo must not burn a run before erroring (or discard buffered
	// -json results).
	campaigns, err := exp.Select(*fig, *ablate)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	if *metrics != "" {
		addr, err := obshttp.Serve(*metrics)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "metrics: http://%s/metrics\n", addr)
	}
	if *watch > 0 {
		obs.SetEnabled(true)
		stop := make(chan struct{})
		defer close(stop)
		go obshttp.Watch(*watch, stop, func(line string) {
			fmt.Fprintln(os.Stderr, line)
		})
	}

	// Text mode streams each table as its campaign finishes; JSON
	// buffers so the output is one valid array.
	opts := exp.Options{Seed: *seed, Trials: *trials, Workers: *workers}
	var results []*exp.Result
	for _, c := range campaigns {
		r := c.Run(opts)
		if *asJSON {
			results = append(results, r)
		} else {
			fmt.Println(r)
		}
	}
	if *asJSON {
		if err := exp.WriteJSON(os.Stdout, results); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	if *metrics != "" && *linger > 0 {
		// Hold the endpoint open so an external poller (the CI smoke, a
		// curious operator) can scrape the finished campaigns' snapshot.
		time.Sleep(*linger)
	}
}
