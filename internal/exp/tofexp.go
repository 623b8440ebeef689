package exp

import (
	"fmt"
	"math"
	"sync"

	"chronos/internal/crt"
	"chronos/internal/dsp"
	"chronos/internal/ndft"
	"chronos/internal/stats"
	"chronos/internal/wifi"
)

// fig4Plan is the fixed Fig. 4 inversion geometry (all U.S. bands, 40 ns
// grid), built once per process like every other solver plan.
var fig4Plan = sync.OnceValues(func() (*ndft.Plan, error) {
	return ndft.NewPlan(wifi.Centers(wifi.USBands()), ndft.TauGrid(40e-9, 0.1e-9))
})

// Fig3 reproduces the Chinese-remainder illustration: a source at 0.6 m
// (τ = 2 ns) measured on five bands, solved by phase alignment.
func Fig3(o Options) *Result {
	o = o.withDefaults(1)
	freqs := []float64{2.412e9, 2.462e9, 5.18e9, 5.3e9, 5.825e9}
	trueTau := 2e-9
	obs := make([]crt.Observation, len(freqs))
	for i, f := range freqs {
		obs[i] = crt.Observation{Freq: f, Phase: math.Mod(-2*math.Pi*f*trueTau, 2*math.Pi)}
	}
	res := &Result{
		ID:     "fig3",
		Title:  "CRT phase alignment resolves τ=2 ns from 5 bands",
		Header: []string{"band (GHz)", "period (ns)", "candidates ≤ 3 ns"},
	}
	for i, f := range freqs {
		cands := crt.Candidates(obs[i], 3e-9)
		res.Rows = append(res.Rows, []string{
			fmtF(f/1e9, 3), fmtF(1/f*1e9, 3), fmt.Sprintf("%d", len(cands)),
		})
	}
	tau, score, err := crt.Solve(obs, 10e-9)
	if err != nil {
		tau, score = math.NaN(), math.NaN()
	}
	res.Rows = append(res.Rows, []string{"solved τ (ns)", fmtF(tau*1e9, 3), fmtF(score, 4)})
	res.Metrics = map[string]float64{
		"solved_tau_ns": tau * 1e9,
		"true_tau_ns":   trueTau * 1e9,
		"error_ps":      math.Abs(tau-trueTau) * 1e12,
	}
	return res
}

// Fig4 reproduces the multipath-profile illustration: three paths at 5.2,
// 10 and 16 ns recovered by the sparse inverse NDFT across all bands.
func Fig4(o Options) *Result {
	o = o.withDefaults(1)
	freqs := wifi.Centers(wifi.USBands())
	delays := []float64{5.2e-9, 10e-9, 16e-9}
	gains := []float64{1, 0.7, 0.5}
	h := make(dsp.Vec, len(freqs))
	for i, f := range freqs {
		for k := range delays {
			h[i] += dsp.FromPolar(gains[k], math.Mod(-2*math.Pi*f*delays[k], 2*math.Pi))
		}
	}
	plan, err := fig4Plan()
	if err != nil {
		panic(err)
	}
	inv, err := plan.Solve(ndft.SolveRequest{H: h, InvertOptions: ndft.InvertOptions{MaxIter: 4000}})
	if err != nil {
		panic(err)
	}
	peaks := dsp.FindPeaks(inv.Taus, inv.Magnitude, 0.2)
	res := &Result{
		ID:     "fig4",
		Title:  "Multipath profile: 3 paths at 5.2/10/16 ns via inverse NDFT",
		Header: []string{"peak", "delay (ns)", "relative power"},
	}
	maxP := 0.0
	for _, p := range peaks {
		if p.Power > maxP {
			maxP = p.Power
		}
	}
	for i, p := range peaks {
		res.Rows = append(res.Rows, []string{
			fmt.Sprintf("%d", i+1), fmtF(p.X*1e9, 2), fmtF(p.Power/maxP, 3),
		})
	}
	m := map[string]float64{"peaks": float64(len(peaks))}
	if len(peaks) > 0 {
		m["first_peak_ns"] = peaks[0].X * 1e9
		m["first_peak_err_ps"] = math.Abs(peaks[0].X-5.2e-9) * 1e12
	}
	res.Metrics = m
	return res
}

// Fig7a reproduces the headline ToF-accuracy CDF: calibrated error over
// random LOS and NLOS placements up to 15 m (paper: median 0.47 ns LOS /
// 0.69 ns NLOS).
func Fig7a(o Options) *Result {
	o = o.withDefaults(30)
	office := newOffice(o)
	cfg := defaultToFConfig()

	res := &Result{
		ID:     "fig7a",
		Title:  "Time-of-flight error CDF (LOS and NLOS)",
		Header: []string{"condition", "median (ns)", "p67 (ns)", "p95 (ns)", "trials"},
	}
	res.Metrics = map[string]float64{}
	for _, nlos := range []bool{false, true} {
		trials := runToFCampaign(o, campaignName("fig7a", nlos), office, cfg, o.Trials, nlos, 15)
		errs := make([]float64, len(trials))
		for i, t := range trials {
			errs[i] = t.ErrNs
		}
		name := "LOS"
		if nlos {
			name = "NLOS"
		}
		res.Rows = append(res.Rows, []string{
			name,
			fmtF(stats.Median(errs), 3),
			fmtF(stats.Percentile(errs, 67), 3),
			fmtF(stats.Percentile(errs, 95), 3),
			fmt.Sprintf("%d", len(errs)),
		})
		res.Metrics["median_"+name+"_ns"] = stats.Median(errs)
		res.Metrics["p95_"+name+"_ns"] = stats.Percentile(errs, 95)
	}
	return res
}

// Fig7b reproduces the profile-sparsity census: the mean and standard
// deviation of the number of dominant peaks across placements (paper:
// 5.05 ± 1.95).
func Fig7b(o Options) *Result {
	o = o.withDefaults(30)
	office := newOffice(o)
	cfg := defaultToFConfig()

	var peaksAll []float64
	res := &Result{
		ID:     "fig7b",
		Title:  "Multipath profile sparsity (dominant peak census)",
		Header: []string{"condition", "mean peaks", "std", "trials"},
	}
	for _, nlos := range []bool{false, true} {
		trials := runToFCampaign(o, campaignName("fig7b", nlos), office, cfg, o.Trials/2+1, nlos, 15)
		var peaks []float64
		for _, t := range trials {
			peaks = append(peaks, float64(t.Peaks))
			peaksAll = append(peaksAll, float64(t.Peaks))
		}
		name := "LOS"
		if nlos {
			name = "NLOS"
		}
		res.Rows = append(res.Rows, []string{
			name, fmtF(stats.Mean(peaks), 2), fmtF(stats.StdDev(peaks), 2),
			fmt.Sprintf("%d", len(peaks)),
		})
	}
	res.Rows = append(res.Rows, []string{
		"overall", fmtF(stats.Mean(peaksAll), 2), fmtF(stats.StdDev(peaksAll), 2),
		fmt.Sprintf("%d", len(peaksAll)),
	})
	res.Metrics = map[string]float64{
		"mean_peaks": stats.Mean(peaksAll),
		"std_peaks":  stats.StdDev(peaksAll),
	}
	return res
}

// Fig7c reproduces the packet-detection-delay histogram and its contrast
// with time of flight (paper: median delay 177 ns, σ 24.76 ns, ≈8× ToF).
func Fig7c(o Options) *Result {
	o = o.withDefaults(20)
	office := newOffice(o)
	cfg := defaultToFConfig()

	trials := runToFCampaign(o, "fig7c", office, cfg, o.Trials, false, 15)
	var delays, tofs []float64
	for _, t := range trials {
		delays = append(delays, t.DelaysNs...)
		tofs = append(tofs, t.DistM/wifi.SpeedOfLight*1e9)
	}
	res := &Result{
		ID:     "fig7c",
		Title:  "Packet detection delay vs time of flight",
		Header: []string{"quantity", "median (ns)", "std (ns)"},
	}
	res.Rows = append(res.Rows, []string{"detection delay", fmtF(stats.Median(delays), 1), fmtF(stats.StdDev(delays), 2)})
	res.Rows = append(res.Rows, []string{"time of flight", fmtF(stats.Median(tofs), 1), fmtF(stats.StdDev(tofs), 2)})
	ratio := stats.Median(delays) / stats.Median(tofs)
	res.Rows = append(res.Rows, []string{"delay / ToF", fmtF(ratio, 1), ""})
	res.Metrics = map[string]float64{
		"median_delay_ns": stats.Median(delays),
		"std_delay_ns":    stats.StdDev(delays),
		"delay_tof_ratio": ratio,
	}
	return res
}

// Fig8a reproduces distance error bucketed by true distance (paper:
// ~10 cm near, ≤25.6 cm at 12–15 m).
func Fig8a(o Options) *Result {
	o = o.withDefaults(60)
	office := newOffice(o)
	cfg := defaultToFConfig()

	buckets := []struct{ lo, hi float64 }{
		{0, 2}, {2, 4}, {4, 6}, {6, 8}, {8, 10}, {10, 12}, {12, 15},
	}
	type agg struct{ los, nlos []float64 }
	data := make([]agg, len(buckets))

	for _, nlos := range []bool{false, true} {
		trials := runToFCampaign(o, campaignName("fig8a", nlos), office, cfg, o.Trials, nlos, 15)
		for _, t := range trials {
			for bi, b := range buckets {
				if t.DistM > b.lo && t.DistM <= b.hi {
					errM := t.ErrNs * 1e-9 * wifi.SpeedOfLight
					if nlos {
						data[bi].nlos = append(data[bi].nlos, errM)
					} else {
						data[bi].los = append(data[bi].los, errM)
					}
				}
			}
		}
	}
	res := &Result{
		ID:     "fig8a",
		Title:  "Distance error vs device separation",
		Header: []string{"distance (m)", "LOS median err (m)", "NLOS median err (m)", "n(LOS)", "n(NLOS)"},
	}
	res.Metrics = map[string]float64{}
	for bi, b := range buckets {
		res.Rows = append(res.Rows, []string{
			fmt.Sprintf("%g–%g", b.lo, b.hi),
			fmtF(stats.Median(data[bi].los), 3),
			fmtF(stats.Median(data[bi].nlos), 3),
			fmt.Sprintf("%d", len(data[bi].los)),
			fmt.Sprintf("%d", len(data[bi].nlos)),
		})
	}
	// Headline: median error in the nearest and farthest populated bins.
	for bi := range buckets {
		if len(data[bi].los) > 0 {
			res.Metrics["near_err_m"] = stats.Median(data[bi].los)
			break
		}
	}
	for bi := len(buckets) - 1; bi >= 0; bi-- {
		if len(data[bi].los) > 0 {
			res.Metrics["far_err_m"] = stats.Median(data[bi].los)
			break
		}
	}
	return res
}
