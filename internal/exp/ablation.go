package exp

import (
	"fmt"

	"chronos/internal/csi"
	"chronos/internal/stats"
	"chronos/internal/tof"
)

// ablationRun measures median/p90 ToF error for one estimator
// configuration over a mixed LOS campaign. Every case of one ablation
// passes the same campaignID: per-trial RNG streams depend only on
// (seed, campaignID, trial), so trial t starts from identical placement
// draws under every configuration — a paired comparison, with the
// config under test as the only variable.
func ablationRun(o Options, campaignID string, cfg tof.Config) (median, p90 float64, n int) {
	office := newOffice(o)
	tr := runToFCampaign(o, campaignID, office, cfg, o.Trials, false, 15)
	errs := make([]float64, len(tr))
	for i, t := range tr {
		errs[i] = t.ErrNs
	}
	return stats.Median(errs), stats.Percentile(errs, 90), len(errs)
}

// AblationBands compares band subsets: the 2.4 GHz bands alone (h̃⁸ on
// quirked radios), the 5 GHz bands alone, the 5 GHz fix of the faithful
// 35-band sweep (BandsFused folds the same 24 bands as 5 GHz only; the
// two rows differ by the capture draws of the 2.4 GHz dwells between
// them), and the quirk-free all-coherent what-if (the "bands" row of
// EXPERIMENTS.md's ablations). The what-if bounds how often stitching
// misses an alias period, not the median: it misses almost no period,
// but its median error is about 3× the 35-band sweep's.
func AblationBands(o Options) *Result {
	o = o.withDefaults(12)
	res := &Result{
		ID:     "ablate-bands",
		Title:  "Band-set ablation: ToF error vs bands used",
		Header: []string{"mode", "median (ns)", "p90 (ns)", "trials"},
	}
	res.Metrics = map[string]float64{}
	cases := []struct {
		name string
		cfg  tof.Config
	}{
		{"2.4GHz only (h^8)", tof.Config{Mode: tof.Bands24Only, Quirk24: true, MaxIter: 1200}},
		{"5GHz only (h^2)", tof.Config{Mode: tof.Bands5GHzOnly, Quirk24: true, MaxIter: 1200}},
		{"5GHz fix, 35-band sweep", tof.Config{Mode: tof.BandsFused, Quirk24: true, MaxIter: 1200}},
		{"all coherent (no quirk)", tof.Config{Mode: tof.BandsAllCoherent, Quirk24: false, MaxIter: 1200}},
	}
	for i, c := range cases {
		med, p90, n := ablationRun(o, "ablate-bands", c.cfg)
		res.Rows = append(res.Rows, []string{c.name, fmtF(med, 3), fmtF(p90, 3), fmt.Sprintf("%d", n)})
		res.Metrics[fmt.Sprintf("median_%d_ns", i)] = med
	}
	return res
}

// AblationDelay compares the §5 zero-subcarrier detection-delay
// compensation against no compensation.
func AblationDelay(o Options) *Result {
	o = o.withDefaults(12)
	res := &Result{
		ID:     "ablate-delay",
		Title:  "Detection-delay compensation ablation",
		Header: []string{"mode", "median (ns)", "p90 (ns)", "trials"},
	}
	res.Metrics = map[string]float64{}
	cases := []struct {
		name   string
		interp tof.InterpMode
	}{
		{"spline zero-subcarrier (paper)", tof.InterpSpline},
		{"linear zero-subcarrier", tof.InterpLinear},
		{"nearest subcarrier (residual jitter)", tof.InterpNone},
	}
	for i, c := range cases {
		cfg := tof.Config{Mode: tof.Bands5GHzOnly, MaxIter: 1200, Interp: c.interp}
		med, p90, n := ablationRun(o, "ablate-delay", cfg)
		res.Rows = append(res.Rows, []string{c.name, fmtF(med, 3), fmtF(p90, 3), fmt.Sprintf("%d", n)})
		res.Metrics[fmt.Sprintf("median_%d_ns", i)] = med
		// The per-packet jitter that the zero-subcarrier interpolation
		// removes shows up mostly in the error tail, so expose p90 too.
		res.Metrics[fmt.Sprintf("p90_%d_ns", i)] = p90
	}
	// The truly uncompensated approach — time-of-arrival from the raw
	// packet timeline, detection delay included — is the §5 strawman.
	// Even after subtracting the mean delay (the median plus the skew of
	// the 10% heavy shoulder), the per-packet variance leaks straight
	// into ToF. The draws come from a default radio at 30 dB.
	rng := trialRNG(o, "ablate-delay/toa", 0)
	var radio csi.Radio
	mean := csi.DefaultDetectDelayMed + 0.1*csi.DefaultDetectDelaySigma
	var toaErrs []float64
	for i := 0; i < 500; i++ {
		e := (radio.DrawDetectionDelay(rng, 30) - mean) * 1e9
		if e < 0 {
			e = -e
		}
		toaErrs = append(toaErrs, e)
	}
	res.Rows = append(res.Rows, []string{
		"time-of-arrival (delay uncompensated)",
		fmtF(stats.Median(toaErrs), 3), fmtF(stats.Percentile(toaErrs, 90), 3), "500",
	})
	res.Metrics["median_toa_ns"] = stats.Median(toaErrs)
	return res
}

// AblationCFO compares the §7 forward×reverse CFO cancellation against a
// forward-only pipeline.
func AblationCFO(o Options) *Result {
	o = o.withDefaults(12)
	res := &Result{
		ID:     "ablate-cfo",
		Title:  "CFO cancellation ablation",
		Header: []string{"mode", "median (ns)", "p90 (ns)", "trials"},
	}
	res.Metrics = map[string]float64{}
	for i, c := range []struct {
		name string
		fwd  bool
	}{
		{"fwd x rev product (paper)", false},
		{"forward only (no cancellation)", true},
	} {
		cfg := tof.Config{Mode: tof.Bands5GHzOnly, MaxIter: 1200, ForwardOnly: c.fwd}
		med, p90, n := ablationRun(o, "ablate-cfo", cfg)
		res.Rows = append(res.Rows, []string{c.name, fmtF(med, 3), fmtF(p90, 3), fmt.Sprintf("%d", n)})
		res.Metrics[fmt.Sprintf("median_%d_ns", i)] = med
	}
	return res
}

// AblationSparsity sweeps the sparsity parameter α (as a fraction of the
// auto-scaled value) to show its effect on profile quality.
func AblationSparsity(o Options) *Result {
	o = o.withDefaults(10)
	res := &Result{
		ID:     "ablate-sparsity",
		Title:  "Sparsity parameter sweep (α as fraction of auto scale)",
		Header: []string{"alpha factor", "median (ns)", "p90 (ns)", "trials"},
	}
	res.Metrics = map[string]float64{}
	// The estimator's α is 0.1·‖Fᴴh‖∞ per inversion, and ‖Fᴴh‖∞ varies
	// per trial, so the sweep scales that auto value by AlphaFactor.
	for _, f := range []float64{0.3, 1.0, 3.0} {
		cfg := tof.Config{Mode: tof.Bands5GHzOnly, MaxIter: 1200, AlphaFactor: f}
		med, p90, n := ablationRun(o, "ablate-sparsity", cfg)
		res.Rows = append(res.Rows, []string{fmtF(f, 1), fmtF(med, 3), fmtF(p90, 3), fmt.Sprintf("%d", n)})
		res.Metrics[fmt.Sprintf("median_x%.1f_ns", f)] = med
	}
	return res
}

// AblationSeparation sweeps receiver antenna separation (the §10
// trade-off behind Fig. 8b vs 8c).
func AblationSeparation(o Options) *Result {
	o = o.withDefaults(12)
	office := newOffice(o)
	res := &Result{
		ID:     "ablate-separation",
		Title:  "Antenna-separation sweep: localization error vs array span",
		Header: []string{"separation (cm)", "median err (m)", "trials"},
	}
	res.Metrics = map[string]float64{}
	for _, sep := range []float64{0.15, 0.30, 0.60, 1.00} {
		errs := locCampaign(o, "ablate-separation", office, sep, o.Trials, false)
		res.Rows = append(res.Rows, []string{
			fmtF(sep*100, 0), fmtF(stats.Median(errs), 3), fmt.Sprintf("%d", len(errs)),
		})
		res.Metrics[fmt.Sprintf("median_%.0fcm_m", sep*100)] = stats.Median(errs)
	}
	return res
}
