// Package exp is the evaluation harness: one function per figure of the
// paper's §12, each regenerating the corresponding table or series from
// the simulated testbed, plus the ablations, the streaming tracking
// campaigns (TrackSpeed, TrackLatency, TrackCapacity) built on
// internal/track, and the daemon's solve-pool campaign (PerfPipeline),
// which times the host. One registry (Figures, Ablations,
// TrackCampaigns) lists them: cmd/chronos-bench runs from it through
// Select, and TestCampaignGolden checks every campaign that does not
// time the host against testdata/campaigns.json, the values
// EXPERIMENTS.md quotes. So the numbers reported everywhere come from a
// single implementation.
//
// # Campaign parallelism and the per-trial seeding scheme
//
// Campaign trials are independent, so every campaign loop runs on the
// runTrials worker-pool engine (Options.Workers goroutines, defaulting
// to all cores). Determinism is preserved by making the canonical RNG
// stream per-trial rather than per-campaign: trial t of campaign id
// draws from rand.NewSource(Options.Seed ^ fnv64a(id, t)). A trial's
// randomness therefore depends only on the campaign seed, the campaign
// ID, and the trial index — never on which worker runs it or in what
// order trials finish — so a campaign's Result is bit-identical for a
// given seed at any worker count. Shared campaign fixtures (the office
// floor plan) are generated before the fan-out from their own stream
// and are read-only during trials. So is a campaign's tof.Estimator,
// which every trial may share: it holds no per-call state, and the
// expensive NDFT solver plans live in internal/tof's shared
// concurrency-safe registry, built once per band-group geometry for the
// whole process.
package exp

import (
	"fmt"
	"math/rand"
	"strings"

	"chronos/internal/sim"
	"chronos/internal/tof"
)

// Options scales a campaign.
type Options struct {
	Seed   int64
	Trials int // per condition; 0 = experiment default
	// Workers is the size of the trial worker pool; 0 (or negative)
	// means one worker per CPU core. The result tables are identical
	// for a given Seed at any Workers value.
	Workers int
}

func (o Options) withDefaults(defTrials int) Options {
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Trials == 0 {
		o.Trials = defTrials
	}
	return o
}

// Result is a regenerated table or series.
type Result struct {
	ID      string             `json:"id"`
	Title   string             `json:"title"`
	Header  []string           `json:"header"`
	Rows    [][]string         `json:"rows"`
	Metrics map[string]float64 `json:"metrics"` // headline numbers by name; EXPERIMENTS.md quotes them
}

// String renders the result as an aligned text table.
func (r *Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", r.ID, r.Title)
	widths := make([]int, len(r.Header))
	for i, h := range r.Header {
		widths[i] = len(h)
	}
	for _, row := range r.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			fmt.Fprintf(&b, "%-*s  ", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(r.Header)
	for _, row := range r.Rows {
		writeRow(row)
	}
	return b.String()
}

// tofTrial is one calibrated ToF measurement in an office.
type tofTrial struct {
	ErrNs    float64 // |ToF − offset − truth| in ns; unclamped, so period-early fixes count
	DistM    float64 // ground-truth distance
	Peaks    int     // dominant profile peaks
	DelaysNs []float64
	NLOS     bool
}

// runToFCampaign measures calibrated ToF error over `trials` random
// placements of each visibility class, fanned out over the worker pool.
// The racing trials share one tof.Estimator: Estimate and Calibrate are
// safe for concurrent use, and the NDFT plans come from the shared
// registry, built once per band-group geometry.
func runToFCampaign(o Options, campaignID string, office *sim.Office, cfg tof.Config, trials int, nlos bool, maxDist float64) []tofTrial {
	bands := tof.BandsFor(cfg)
	est := tof.NewEstimator(cfg)
	return runTrials(o, campaignID, trials, func(t int, rng *rand.Rand) (tofTrial, bool) {
		p := office.RandomPlacement(rng, maxDist, nlos)
		link := office.NewLink(rng, p, sim.LinkConfig{Quirk: cfg.Quirk24})

		// One-time calibration of this device pair at a known reference
		// placement (LOS, mid-range).
		calP := office.RandomPlacement(rng, 8, false)
		link.Channel = office.Channel(calP)
		calSweep := link.Sweep(rng, bands, 3)
		cal, err := est.Calibrate(bands, calSweep, calP.TrueDistance())
		if err != nil {
			return tofTrial{}, false
		}

		link.Channel = office.Channel(p)
		sweep := link.Sweep(rng, bands, 3)
		r, err := est.Estimate(bands, sweep)
		if err != nil {
			return tofTrial{}, false
		}
		e := (r.ToF - cal.Offset - p.TrueToF()) * 1e9
		if e < 0 {
			e = -e
		}
		trial := tofTrial{ErrNs: e, DistM: p.TrueDistance(), Peaks: r.Peaks, NLOS: nlos}
		for _, pr := range sweep {
			for _, pair := range pr {
				trial.DelaysNs = append(trial.DelaysNs, pair.Forward.DetectionDelay*1e9)
			}
		}
		return trial, true
	})
}

// defaultToFConfig is the evaluation configuration used across figures:
// quirked radios (faithful to the Intel 5300) sweeping all 35 bands, the
// fix read off the 5 GHz bands folded in h̃².
func defaultToFConfig() tof.Config {
	return tof.Config{Mode: tof.BandsFused, Quirk24: true, MaxIter: 1200}
}

func fmtF(v float64, prec int) string { return fmt.Sprintf("%.*f", prec, v) }
