package exp

import (
	"math/rand"

	"chronos/internal/drone"
	"chronos/internal/stats"
)

// flight flies one §12.4 following run of the given duration on a
// calibrated full-pipeline sensor built from rng, in the room the user
// walks in. ok is false when the sensor fails to calibrate.
func flight(rng *rand.Rand, duration float64) (*drone.TrackResult, bool) {
	sensor, err := drone.NewPipelineSensor(rng)
	if err != nil {
		return nil, false
	}
	return drone.Track(rng, sensor, duration), true
}

// Fig10a reproduces the drone distance-keeping CDF: deviation from the
// desired 1.4 m while following a walking user (paper: median ≈4.2 cm).
func Fig10a(o Options) *Result {
	o = o.withDefaults(10)

	runs := runTrials(o, "fig10a", o.Trials, func(t int, rng *rand.Rand) ([]float64, bool) {
		res, ok := flight(rng, 40)
		if !ok {
			return nil, false
		}
		return res.Deviations, true
	})
	var all []float64
	for _, devs := range runs {
		all = append(all, devs...)
	}
	cm := make([]float64, len(all))
	for i, d := range all {
		cm[i] = d * 100
	}
	res := &Result{
		ID:     "fig10a",
		Title:  "Drone deviation from the desired 1.4 m distance",
		Header: []string{"percentile", "deviation (cm)"},
	}
	for _, p := range []float64{25, 50, 75, 90, 95} {
		res.Rows = append(res.Rows, []string{fmtF(p, 0), fmtF(stats.Percentile(cm, p), 1)})
	}
	res.Metrics = map[string]float64{
		"median_cm": stats.Median(cm),
		"p95_cm":    stats.Percentile(cm, 95),
		"rmse_cm":   stats.RMSE(cm),
	}
	return res
}

// Fig10b reproduces the trajectory trace: the drone's path alongside the
// user's, holding the pairwise distance.
func Fig10b(o Options) *Result {
	o = o.withDefaults(1)
	res := &Result{
		ID:     "fig10b",
		Title:  "Drone and user trajectories (sampled)",
		Header: []string{"t (s)", "user (x,y)", "drone (x,y)", "distance (m)"},
	}
	tr, ok := flight(trialRNG(o, "fig10b", 0), 30)
	if !ok {
		return res
	}
	for i := 0; i < len(tr.UserPath); i += int(drone.RateHz * 2) { // every 2 s
		u, d := tr.UserPath[i], tr.DronePath[i]
		res.Rows = append(res.Rows, []string{
			fmtF(float64(i)/drone.RateHz, 0), u.String(), d.String(), fmtF(u.Dist(d), 2),
		})
	}
	// Steady-state distance statistics over the trajectory.
	var dist []float64
	for i := range tr.UserPath {
		if float64(i)/drone.RateHz >= drone.Settle {
			dist = append(dist, tr.UserPath[i].Dist(tr.DronePath[i]))
		}
	}
	res.Metrics = map[string]float64{
		"mean_distance_m":   stats.Mean(dist),
		"median_distance_m": stats.Median(dist),
		"target_m":          drone.Desired,
	}
	res.Rows = append(res.Rows, []string{"steady mean", "", "", fmtF(stats.Mean(dist), 2)})
	return res
}
