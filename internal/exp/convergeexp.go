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
// iterations, Work, ToF error — never wall clock). Four sections:
//
//  1. an SNR sweep (12/18/26 dB) over a fixed deep-multipath link,
//     gap-stopped versus fixed-epsilon solves, cold and warm: iteration
//     medians, cap-rates, and ToF error medians per arm;
//  2. an office LOS accuracy guard: the default gap stop against
//     StopIterate on paired placements — the campaign-SNR median must
//     not move;
//  3. the deep-NLOS colliding-families fixture: two dominant alias
//     families in one period cell, whose warm refit seeds the PR-4
//     period-index labels collided back to cold — warm/cold alias Work
//     must stay ≤ 0.75 with identical fixes;
//  4. a streaming track session, warm versus cold, surfacing the
//     per-fix convergence telemetry (cap-rate, Work) the session now
//     records.
//
// The committed BENCH_5.json snapshots this table next to the perf and
// alias campaigns.
func PerfConverge(o Options) *Result {
	o = o.withDefaults(12)
	if o.Trials < 4 {
		o.Trials = 4 // warm medians need a few seeded sweeps
	}
	res := &Result{
		ID:     "perf-converge",
		Title:  "Noise-adaptive convergence: gap stop vs fixed tolerance across SNR",
		Header: []string{"scenario", "rule", "work (cold)", "work (warm)", "cap rate", "median err (ns)"},
	}
	res.Metrics = map[string]float64{}

	gapSolves, gapCapped := 0, 0

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
			var coldWork, warmWork, errs []float64
			solves, capped := 0, 0
			twinStreams(tof.NewEstimator(cfg), bands, o.Trials, func() [][]csi.Pair {
				return link.Sweep(rng, bands, 3)
			}, func(s int, rc, rw *tof.Estimate) {
				coldWork = append(coldWork, float64(rc.Work))
				errs = append(errs, math.Abs(rc.ToF*1e9-tauNs-hw))
				solves += 2
				if !rc.Converged {
					capped++
				}
				if !rw.Converged {
					capped++
				}
				if s > 0 { // the first warm sweep has nothing to warm from
					warmWork = append(warmWork, float64(rw.Work))
				}
			})
			capRate := float64(capped) / float64(solves)
			if a.name == "gap" && snr == 26 {
				// The headline cap-rate is the campaign-SNR arm's, the
				// operating point the committed snapshots record; the
				// 12/18 dB arms report theirs in the table, where a
				// contested placement's precise re-solve is what can
				// still run to the cap.
				gapSolves += solves
				gapCapped += capped
			}
			scen := fmt.Sprintf("SNR %g dB", snr)
			cw, ww := stats.Median(coldWork), stats.Median(warmWork)
			me := stats.Median(errs)
			res.Rows = append(res.Rows, []string{
				scen, a.name, fmtF(cw, 0), fmtF(ww, 0), fmtF(capRate, 3), fmtF(me, 3),
			})
			key := fmt.Sprintf("%s_%g", a.name, snr)
			res.Metrics["work_cold_"+key] = cw
			res.Metrics["work_warm_"+key] = ww
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
			"office LOS", a.name, "-", "-", "-", fmtF(stats.Median(errs), 3),
		})
		res.Metrics["office_median_"+a.name+"_ns"] = stats.Median(errs)
	}
	res.Metrics["office_median_delta_ns"] = math.Abs(
		res.Metrics["office_median_gap_ns"] - res.Metrics["office_median_eps_ns"])

	// --- 3. Colliding-families warm refits ---
	{
		rng := trialRNG(o, "perf-converge/collide", 0)
		tx, rx := csi.NewRadio(rng), csi.NewRadio(rng)
		tx.Quirk24, rx.Quirk24 = false, false
		link := &csi.Link{TX: tx, RX: rx, SNRdB: 26, Channel: rf.NewChannel([]rf.Path{
			{Delay: 30e-9, Gain: 1},
			{Delay: 37e-9, Gain: 1.8},
			{Delay: 42e-9, Gain: 1.0},
		})}
		bands := wifi.Bands5GHz()
		var cW, wW int64
		var dMax float64
		est := tof.NewEstimator(tof.Config{Mode: tof.Bands5GHzOnly, MaxIter: 1200})
		twinStreams(est, bands, o.Trials, func() [][]csi.Pair {
			return link.Sweep(rng, bands, 3)
		}, func(s int, rc, rw *tof.Estimate) {
			if d := math.Abs(rc.ToF-rw.ToF) * 1e9; d > dMax {
				dMax = d
			}
			if s > 0 {
				cW += rc.AliasWork
				wW += rw.AliasWork
			}
		})
		ratio := math.NaN()
		if cW > 0 {
			ratio = float64(wW) / float64(cW)
		}
		res.Rows = append(res.Rows, []string{
			"colliding families (deep NLOS geometry)", "gap", "-", "-", "-", fmtF(dMax, 4),
		})
		res.Metrics["collide_alias_warm_ratio"] = ratio
		res.Metrics["collide_warm_cold_dtof_ns"] = dMax
	}

	// --- 4. Streaming track session, warm vs cold ---
	{
		scfg := track.SessionConfig{Speed: 1.0, Sweeps: 6}
		for _, warmStart := range []bool{false, true} {
			// Both arms replay the identical session (same rng stream), so
			// the warm row is directly comparable to the cold one.
			rng := trialRNG(o, "perf-converge/session", 0)
			cfg := scfg
			cfg.WarmStart = warmStart
			est := tof.NewEstimator(tof.Config{Mode: tof.Bands5GHzOnly, MaxIter: 1200})
			r, err := track.RunSession(rng, office, est, cfg)
			if err != nil || len(r.Fixes) == 0 {
				continue
			}
			var work []float64
			for _, f := range r.Fixes {
				work = append(work, float64(f.Work))
			}
			name := map[bool]string{false: "cold", true: "warm"}[warmStart]
			res.Rows = append(res.Rows, []string{
				"track session (" + name + ")", "gap", "-", "-",
				fmtF(float64(r.CappedFixes)/float64(len(r.Fixes)), 3), fmtF(r.RawRMSE, 3),
			})
			res.Metrics["session_"+name+"_median_work"] = stats.Median(work)
			res.Metrics["session_"+name+"_cap_fixes"] = float64(r.CappedFixes)
			res.Metrics["session_"+name+"_raw_rmse_m"] = r.RawRMSE
		}
	}

	if gapSolves > 0 {
		rate := float64(gapCapped) / float64(gapSolves)
		res.CapRate = &rate
		res.Metrics["cap_rate_gap_overall"] = rate
	}
	return res
}
