// Command chronos-track runs the streaming multi-device tracking
// campaigns built on internal/track: tracking error against target
// speed, fix latency as bands stream into the incremental estimator, and
// capacity against concurrent tracked clients.
//
//	chronos-track                    # run every tracking campaign
//	chronos-track -campaign speed    # one campaign (speed,latency,capacity)
//	chronos-track -trials 8 -seed 7  # scale and reseed
//	chronos-track -workers 4         # bound the trial worker pool
//	chronos-track -json              # machine-readable output
//	chronos-track -metrics :6060     # live /metrics + pprof endpoint
//	chronos-track -watch 1s          # live fix-rate/p99 lines on stderr
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
	campaign := flag.String("campaign", "", "campaign to run (speed,latency,capacity); empty = all")
	trials := flag.Int("trials", 0, "trials per condition (0 = campaign default)")
	seed := flag.Int64("seed", 1, "campaign seed")
	workers := flag.Int("workers", 0, "campaign worker-pool size (0 = all cores)")
	asJSON := flag.Bool("json", false, "emit results as JSON instead of text tables")
	metrics := flag.String("metrics", "", "serve JSON /metrics and pprof on this address (e.g. :6060)")
	watch := flag.Duration("watch", 0, "print a live fix-rate/p99 line to stderr at this interval")
	linger := flag.Duration("linger", 0, "keep the -metrics endpoint serving this long after campaigns finish")
	flag.Parse()

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

	opts := exp.Options{Seed: *seed, Trials: *trials, Workers: *workers}

	var results []*exp.Result
	for _, c := range exp.TrackCampaigns {
		if *campaign == "" || c.Key == *campaign {
			results = append(results, c.Run(opts))
		}
	}
	if len(results) == 0 {
		fmt.Fprintf(os.Stderr, "unknown campaign %q (have: %s)\n", *campaign, exp.Keys(exp.TrackCampaigns))
		os.Exit(2)
	}

	if *asJSON {
		if err := exp.WriteJSON(os.Stdout, results); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	} else {
		for _, r := range results {
			fmt.Println(r)
		}
	}
	if *metrics != "" && *linger > 0 {
		// Hold the endpoint open so an external poller (the CI smoke, a
		// curious operator) can scrape the finished campaign's snapshot.
		time.Sleep(*linger)
	}
}
