package exp

import (
	"fmt"
	"math"

	"chronos/internal/csi"
	"chronos/internal/rf"
	"chronos/internal/stats"
	"chronos/internal/tof"
	"chronos/internal/track"
	"chronos/internal/wifi"
)

// PerfConverge is the noise-adaptive convergence campaign
// (chronos-bench -fig converge): it compares the duality-gap stopping
// rule with Algorithm 1's fixed iterate tolerance (tof.StopIterate, the
// "eps" arm) across SNR regimes, in deterministic units (solver
// iterations, Work, ToF error — never wall clock). Three sections:
//
//  1. an SNR sweep (12/18/26 dB) over a fixed deep-multipath link,
//     gap-stopped versus fixed-epsilon solves: Work medians, cap-rates,
//     and ToF error medians per arm. Every solve of the eps arm runs to
//     its 1200-iteration cap (cap_rate_eps_* read 1), so
//     work_reduction_* compares the gap stop against that cap, not
//     against the iterate rule converging;
//  2. an office LOS accuracy guard: the default gap stop against
//     StopIterate on paired placements — the campaign-SNR median must
//     not move;
//  3. a streaming track session, surfacing the per-fix convergence
//     telemetry (cap-rate, Work) the session records.
//
// The campaign golden, internal/exp/testdata/campaigns.json, snapshots
// this table.
func PerfConverge(o Options) *Result {
	o = o.withDefaults(12)
	res := &Result{
		ID:     "perf-converge",
		Title:  "Noise-adaptive convergence: gap stop vs fixed tolerance across SNR",
		Header: []string{"scenario", "rule", "work (cold)", "cap rate", "median err (ns)"},
	}
	res.Metrics = map[string]float64{}

	// --- 1. SNR sweep over a fixed deep-multipath link ---
	type arm struct {
		name string
		mod  func(*tof.Config)
	}
	arms := []arm{
		{"gap", func(*tof.Config) {}},
		{"eps", func(c *tof.Config) { c.Stop = tof.StopIterate }},
	}
	for _, snr := range []float64{12, 18, 26} {
		for _, a := range arms {
			rng := trialRNG(o, fmt.Sprintf("perf-converge/snr%v/%s", snr, a.name), 0)
			tx, rx := csi.NewRadio(rng), csi.NewRadio(rng)
			tx.Quirk24, rx.Quirk24 = false, false
			const tauNs = 20.0
			link := &csi.Link{TX: tx, RX: rx, SNRdB: snr, Channel: rf.NewChannel([]rf.Path{
				{Delay: tauNs * 1e-9, Gain: 1},
				{Delay: (tauNs + 4.2) * 1e-9, Gain: 0.6},
				{Delay: (tauNs + 9.5) * 1e-9, Gain: 0.4},
			})}
			hw := tx.Osc.HWDelayNs + rx.Osc.HWDelayNs
			bands := wifi.Bands5GHz()
			cfg := tof.Config{Mode: tof.Bands5GHzOnly, MaxIter: 1200}
			a.mod(&cfg)
			est := tof.NewEstimator(cfg)
			var work, errs []float64
			capped := 0
			for s := 0; s < o.Trials; s++ {
				// A fixed synthetic geometry: an estimate error is a bug.
				r, err := est.Estimate(bands, link.Sweep(rng, bands, 3))
				if err != nil {
					panic(err)
				}
				work = append(work, float64(r.Work))
				errs = append(errs, math.Abs(r.ToF*1e9-tauNs-hw))
				if !r.Converged {
					capped++
				}
			}
			capRate := float64(capped) / float64(o.Trials)
			if a.name == "gap" && snr == 26 {
				// The headline cap-rate is the campaign-SNR arm's, the
				// operating point the committed snapshots record; the
				// 12/18 dB arms report theirs in the table.
				res.CapRate = &capRate
				res.Metrics["cap_rate_gap_overall"] = capRate
			}
			scen := fmt.Sprintf("SNR %g dB", snr)
			cw, me := stats.Median(work), stats.Median(errs)
			res.Rows = append(res.Rows, []string{
				scen, a.name, fmtF(cw, 0), fmtF(capRate, 3), fmtF(me, 3),
			})
			key := fmt.Sprintf("%s_%g", a.name, snr)
			res.Metrics["work_cold_"+key] = cw
			res.Metrics["cap_rate_"+key] = capRate
			res.Metrics["err_"+key+"_ns"] = me
		}
	}
	for _, snr := range []float64{12, 18, 26} {
		g, e := res.Metrics[fmt.Sprintf("work_cold_gap_%g", snr)], res.Metrics[fmt.Sprintf("work_cold_eps_%g", snr)]
		if g > 0 {
			res.Metrics[fmt.Sprintf("work_reduction_%g", snr)] = e / g
		}
	}

	// --- 2. Office LOS accuracy guard, placement-paired ---
	office := newOffice(o)
	for _, a := range arms {
		cfg := tof.Config{Mode: tof.Bands5GHzOnly, MaxIter: 1200}
		a.mod(&cfg)
		trials := runToFCampaign(o, "perf-converge/office", office, cfg, o.Trials, false, 15)
		errs := make([]float64, len(trials))
		for i, tr := range trials {
			errs[i] = tr.ErrNs
		}
		res.Rows = append(res.Rows, []string{
			"office LOS", a.name, "-", "-", fmtF(stats.Median(errs), 3),
		})
		res.Metrics["office_median_"+a.name+"_ns"] = stats.Median(errs)
	}
	res.Metrics["office_median_delta_ns"] = math.Abs(
		res.Metrics["office_median_gap_ns"] - res.Metrics["office_median_eps_ns"])

	// --- 3. Streaming track session ---
	{
		rng := trialRNG(o, "perf-converge/session", 0)
		est := tof.NewEstimator(tof.Config{Mode: tof.Bands5GHzOnly, MaxIter: 1200})
		r, err := track.RunSession(rng, office, est, track.SessionConfig{Speed: 1.0, Sweeps: 6})
		if err == nil && len(r.Fixes) > 0 {
			var work []float64
			for _, f := range r.Fixes {
				work = append(work, float64(f.Work))
			}
			res.Rows = append(res.Rows, []string{
				"track session (cold)", "gap", "-",
				fmtF(float64(r.CappedFixes)/float64(len(r.Fixes)), 3), fmtF(r.RawRMSE, 3),
			})
			res.Metrics["session_cold_median_work"] = stats.Median(work)
			res.Metrics["session_cold_cap_fixes"] = float64(r.CappedFixes)
			res.Metrics["session_cold_raw_rmse_m"] = r.RawRMSE
		}
	}

	return res
}
