package exp

import (
	"fmt"
	"math/rand"

	"chronos/internal/csi"
	"chronos/internal/geo"
	"chronos/internal/loc"
	"chronos/internal/sim"
	"chronos/internal/stats"
	"chronos/internal/tof"
	"chronos/internal/wifi"
)

// locCampaign measures localization error for a given antenna separation
// over random placements (the §12.2 method: 3-antenna receiver, per-
// antenna ToF → distances → outlier rejection → least-squares position),
// fanned out over the worker pool one placement per trial.
func locCampaign(o Options, campaignID string, office *sim.Office, sep float64, trials int, nlos bool) []float64 {
	bands := wifi.Bands5GHz()
	// Three antennas at a triangle with mean pairwise separation sep —
	// the paper's non-collinear assumption (§8).
	array := geo.TriangleArray(sep)

	return runTrials(o, campaignID, trials, func(t int, rng *rand.Rand) (float64, bool) {
		// Fresh hardware per trial: one single-antenna transmitter and
		// one 3-chain receiver card. All chains share the card's
		// oscillator and packet detector (csi.ArrayLink), so antenna-
		// differential errors stay small — as on the Intel 5300.
		tx := csi.NewRadio(rng)
		tx.Quirk24 = false
		rx := csi.NewRadio(rng)
		rx.Quirk24 = false
		link := &csi.ArrayLink{TX: tx, RX: rx, SNRdB: 26}
		localizer := loc.NewLocalizer(array, tof.Config{Mode: tof.Bands5GHzOnly, MaxIter: 1000})

		// Calibrate at a known reference geometry.
		calTx := office.RandomPlacement(rng, 8, false).TX
		rxCenter := office.Locations[rng.Intn(len(office.Locations))]
		place := func(txPos geo.Point, isNLOS bool) {
			ap := sim.AntennaPlacement{TX: txPos, RXCenter: rxCenter, Array: array, NLOS: isNLOS}
			link.Channels = office.AntennaChannels(ap)
		}
		place(calTx, false)
		trueDist := make([]float64, 3)
		for i, ant := range array.At(rxCenter) {
			trueDist[i] = calTx.Dist(ant)
		}
		if err := localizer.CalibrateArray(rng, bands, link, trueDist); err != nil {
			return 0, false
		}

		// Measure a random target placement relative to the same array,
		// redrawing placements that violate the distance envelope.
		var target geo.Point
		for {
			target = office.RandomPlacement(rng, 15, nlos).TX
			if d := target.Dist(rxCenter); d >= 1 && d <= 15 {
				break
			}
		}
		place(target, nlos)
		fix, err := localizer.LocateArray(bands, link.Sweep(rng, bands, 3))
		if err != nil {
			return 0, false
		}
		truthLocal := target.Sub(rxCenter)
		return fix.Position.Dist(truthLocal), true
	})
}

// Fig8b reproduces localization accuracy with a client-style 30 cm
// antenna separation (paper: median 58 cm LOS / 118 cm NLOS).
func Fig8b(o Options) *Result { return locFigure(o, "fig8b", 0.30) }

// Fig8c reproduces localization accuracy with an AP-style 100 cm antenna
// separation (paper: median 35 cm LOS / 62 cm NLOS).
func Fig8c(o Options) *Result { return locFigure(o, "fig8c", 1.00) }

func locFigure(o Options, id string, sep float64) *Result {
	o = o.withDefaults(20)
	office := newOffice(o)

	res := &Result{
		ID:     id,
		Title:  fmt.Sprintf("Localization error CDF (3 antennas, %.0f cm separation)", sep*100),
		Header: []string{"condition", "median (m)", "p80 (m)", "trials"},
	}
	res.Metrics = map[string]float64{"separation_m": sep}
	for _, nlos := range []bool{false, true} {
		errs := locCampaign(o, campaignName(id, nlos), office, sep, o.Trials, nlos)
		name := "LOS"
		if nlos {
			name = "NLOS"
		}
		res.Rows = append(res.Rows, []string{
			name, fmtF(stats.Median(errs), 3), fmtF(stats.Percentile(errs, 80), 3),
			fmt.Sprintf("%d", len(errs)),
		})
		res.Metrics["median_"+name+"_m"] = stats.Median(errs)
	}
	return res
}
