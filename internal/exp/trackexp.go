package exp

import (
	"fmt"
	"math/rand"
	"sort"

	"chronos/internal/hop"
	"chronos/internal/stats"
	"chronos/internal/tof"
	"chronos/internal/track"
)

// trackSessionConfig is the shared full-pipeline session shape for the
// tracking campaigns: a handful of sweeps per session, driven by the
// same 35-band evaluation estimator (defaultToFConfig) as the figures.
// Each session owns its state, so results stay identical at any
// -workers.
func trackSessionConfig(speed float64, sweeps int) track.SessionConfig {
	return track.SessionConfig{Speed: speed, Sweeps: sweeps}
}

// TrackSpeed measures streaming tracking error against target speed: for
// each speed, full-pipeline sessions stream sweeps over a walking target
// and report raw per-sweep RMSE next to the Kalman-smoothed RMSE. Like
// every campaign it fans trials out over the worker pool with per-trial
// seeding; each trial gets its own estimator, and all of them share the
// process-wide NDFT plan registry, so the dictionaries are built once
// per band-group geometry rather than once per worker.
func TrackSpeed(o Options) *Result {
	o = o.withDefaults(4)
	office := newOffice(o)
	cfg := defaultToFConfig()
	speeds := []float64{0, 0.5, 1.0, 2.0}

	res := &Result{
		ID:     "track-speed",
		Title:  "Streaming tracking error vs target speed (raw vs Kalman)",
		Header: []string{"speed (m/s)", "raw RMSE (m)", "smoothed RMSE (m)", "gated out", "fixes"},
	}
	res.Metrics = map[string]float64{}
	type out struct {
		raw, smooth float64
		rejected    int
		fixes       int
	}
	for _, v := range speeds {
		campaign := fmt.Sprintf("track-speed/v%.1f", v)
		runs := runTrials(o, campaign, o.Trials, func(t int, rng *rand.Rand) (out, bool) {
			est := tof.NewEstimator(cfg)
			r, err := track.RunSession(rng, office, est, trackSessionConfig(v, 5))
			if err != nil || len(r.Fixes) == 0 {
				return out{}, false
			}
			return out{raw: r.RawRMSE, smooth: r.SmoothedRMSE, rejected: r.Rejected, fixes: len(r.Fixes)}, true
		})
		var raws, smooths []float64
		rejected, fixes := 0, 0
		for _, r := range runs {
			raws = append(raws, r.raw)
			smooths = append(smooths, r.smooth)
			rejected += r.rejected
			fixes += r.fixes
		}
		res.Rows = append(res.Rows, []string{
			fmtF(v, 1), fmtF(stats.Median(raws), 3), fmtF(stats.Median(smooths), 3),
			fmt.Sprintf("%d", rejected), fmt.Sprintf("%d", fixes),
		})
		key := fmt.Sprintf("v%.1f", v)
		res.Metrics["raw_rmse_"+key+"_m"] = stats.Median(raws)
		res.Metrics["smooth_rmse_"+key+"_m"] = stats.Median(smooths)
	}
	return res
}

// TrackLatency measures fix latency and the accuracy of degraded early
// fixes: the incremental estimator snapshots mid-sweep once the hop has
// visited 8 and 16 bands, so the table shows, by bands folded, how error
// falls and latency rises as more bands fold in — the streaming
// subsystem's core trade-off.
func TrackLatency(o Options) *Result {
	o = o.withDefaults(3)
	office := newOffice(o)
	cfg := defaultToFConfig()
	checkpoints := []int{8, 16}

	type fixSample struct {
		Bands     int
		ErrM      float64
		LatencyMS float64
	}
	runs := runTrials(o, "track-latency", o.Trials, func(t int, rng *rand.Rand) ([]fixSample, bool) {
		est := tof.NewEstimator(cfg)
		scfg := trackSessionConfig(1.0, 3)
		scfg.EarlyFixBands = checkpoints
		r, err := track.RunSession(rng, office, est, scfg)
		if err != nil || len(r.Fixes) == 0 {
			return nil, false
		}
		var out []fixSample
		for _, f := range append(r.EarlyFixes, r.Fixes...) {
			e := f.Range - f.TrueRange
			if e < 0 {
				e = -e
			}
			out = append(out, fixSample{Bands: f.Bands, ErrM: e, LatencyMS: f.Latency.Seconds() * 1000})
		}
		return out, true
	})

	byBands := map[int][]fixSample{}
	for _, samples := range runs {
		for _, s := range samples {
			byBands[s.Bands] = append(byBands[s.Bands], s)
		}
	}
	var bandCounts []int
	for b := range byBands {
		bandCounts = append(bandCounts, b)
	}
	sort.Ints(bandCounts)

	res := &Result{
		ID:     "track-latency",
		Title:  "Fix latency vs accuracy as bands stream in (early fixes)",
		Header: []string{"bands folded", "median |err| (m)", "median latency (ms)", "fixes"},
	}
	res.Metrics = map[string]float64{}
	if len(bandCounts) == 0 {
		// Every trial failed (e.g. calibration errors at extreme
		// configs): report an empty table rather than crashing.
		return res
	}
	full := bandCounts[len(bandCounts)-1]
	for _, b := range bandCounts {
		var errs, lats []float64
		for _, s := range byBands[b] {
			errs = append(errs, s.ErrM)
			lats = append(lats, s.LatencyMS)
		}
		res.Rows = append(res.Rows, []string{
			fmt.Sprintf("%d", b), fmtF(stats.Median(errs), 3), fmtF(stats.Median(lats), 1),
			fmt.Sprintf("%d", len(errs)),
		})
		key := fmt.Sprintf("%dbands", b)
		if b == full {
			key = "full"
		}
		res.Metrics["median_err_"+key+"_m"] = stats.Median(errs)
		res.Metrics["median_latency_"+key+"_ms"] = stats.Median(lats)
	}
	return res
}

// TrackCapacity measures the multi-client schedule: aggregate fix
// throughput, per-device fix latency and anchor airtime utilization as
// the number of concurrently tracked devices grows. It runs the protocol
// schedule alone; TrackSpeed measures the tracking error of real fixes.
func TrackCapacity(o Options) *Result {
	o = o.withDefaults(8)
	deviceCounts := []int{1, 2, 4, 8, 16}

	res := &Result{
		ID:     "track-capacity",
		Title:  "Multi-device tracking capacity vs concurrent clients",
		Header: []string{"devices", "fixes/s", "fix latency (ms)", "airtime util"},
	}
	res.Metrics = map[string]float64{}
	for _, n := range deviceCounts {
		campaign := fmt.Sprintf("track-capacity/n%d", n)
		runs := runTrials(o, campaign, o.Trials, func(t int, rng *rand.Rand) (*hop.Schedule, bool) {
			return hop.RunSchedule(rng, n, 3), true
		})
		var fps, lats, utils []float64
		for _, s := range runs {
			fps = append(fps, s.FixesPerSecond)
			lats = append(lats, s.MeanFixLatency().Seconds()*1000)
			utils = append(utils, s.Utilization)
		}
		res.Rows = append(res.Rows, []string{
			fmt.Sprintf("%d", n), fmtF(stats.Median(fps), 2), fmtF(stats.Median(lats), 1),
			fmtF(stats.Median(utils), 3),
		})
		key := fmt.Sprintf("n%d", n)
		res.Metrics["fixes_per_sec_"+key] = stats.Median(fps)
		res.Metrics["fix_latency_"+key+"_ms"] = stats.Median(lats)
		res.Metrics["util_"+key] = stats.Median(utils)
	}
	return res
}
