package exp

import (
	"fmt"
	"math"
	"math/rand"

	"chronos/internal/csi"
	"chronos/internal/rf"
	"chronos/internal/stats"
	"chronos/internal/tof"
	"chronos/internal/wifi"
)

// ghostNs is the error magnitude past which a ToF miss is counted as an
// alias ghost rather than estimation noise: half the 25 ns grating-lobe
// period, so any wrong-family placement lands beyond it.
const ghostNs = 12.5

// adversarialPaths is the deep-NLOS geometry of the alias campaign: a
// faded direct path under two strong late reflections at low SNR with a
// tight iteration budget. The profile's windowed first peak lands in the
// true alias cell, a few ns late, but a ±1-period refit that auto-scales
// α per hypothesis fits the member one period early better: the
// well-matched window draws the larger α and is shrunk harder. The
// estimator's placement shares one α across hypotheses and weights the
// residuals by their discrimination power, and must keep the fix in the
// true cell.
func adversarialPaths() (direct float64, extra []rf.Path, snr float64, maxIter int) {
	return 30, []rf.Path{{Delay: 37e-9, Gain: 1.8}, {Delay: 42e-9, Gain: 1.0}}, 12, 400
}

// adversarialTrial measures one synthetic deep-NLOS link, returning the
// absolute ToF error in ns.
func adversarialTrial(_ int, rng *rand.Rand) (float64, bool) {
	direct, extra, snr, maxIter := adversarialPaths()
	tx, rx := csi.NewRadio(rng), csi.NewRadio(rng)
	tx.Quirk24, rx.Quirk24 = false, false
	paths := append([]rf.Path{{Delay: direct * 1e-9, Gain: 1}}, extra...)
	link := &csi.Link{TX: tx, RX: rx, Channel: rf.NewChannel(paths), SNRdB: snr}
	bands := wifi.Bands5GHz()
	sweep := link.Sweep(rng, bands, 3)
	hw := link.TX.Osc.HWDelayNs + link.RX.Osc.HWDelayNs
	est := tof.NewEstimator(tof.Config{Mode: tof.Bands5GHzOnly, MaxIter: maxIter})
	r, err := est.Estimate(bands, sweep)
	if err != nil {
		return 0, false
	}
	return math.Abs(r.ToF*1e9 - direct - hw), true
}

// AliasRanking is the alias-resolution campaign (chronos-bench -fig
// alias): the estimator's family-ranked peak extraction on the standard
// office campaign and on the adversarial deep-NLOS geometry
// (adversarialPaths), counting ghosts — fixes a whole alias cell off.
func AliasRanking(o Options) *Result {
	o = o.withDefaults(12)
	res := &Result{
		ID:     "alias-ranking",
		Title:  "Alias resolution: family-ranked peaks",
		Header: []string{"scenario", "median (ns)", "p90 (ns)", "ghosts", "trials"},
	}
	res.Metrics = map[string]float64{}
	addRow := func(scenario, key string, errs []float64) (ghosts int) {
		for _, e := range errs {
			if e > ghostNs {
				ghosts++
			}
		}
		res.Rows = append(res.Rows, []string{
			scenario,
			fmtF(stats.Median(errs), 3), fmtF(stats.Percentile(errs, 90), 3),
			fmt.Sprintf("%d", ghosts), fmt.Sprintf("%d", len(errs)),
		})
		res.Metrics[key+"_median_family_ns"] = stats.Median(errs)
		res.Metrics[key+"_ghosts_family"] = float64(ghosts)
		return ghosts
	}

	cfg := tof.Config{Mode: tof.Bands5GHzOnly, MaxIter: 1200}
	trials := runToFCampaign(o, "alias-ranking/office", newOffice(o), cfg, o.Trials, false, 15)
	errs := make([]float64, len(trials))
	for i, t := range trials {
		errs[i] = t.ErrNs
	}
	addRow("office LOS", "office", errs)

	adv := runTrials(o, "alias-ranking/adversarial", o.Trials*3, adversarialTrial)
	if ghosts := addRow("deep NLOS (adversarial)", "adversarial", adv); len(adv) > 0 {
		res.Metrics["adversarial_ghost_rate_family"] = float64(ghosts) / float64(len(adv))
	}
	return res
}
