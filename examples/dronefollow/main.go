// Dronefollow: the §9 personal-drone workload — a quadrotor follows a
// walking user at a fixed 1.4 m distance using only Chronos range
// estimates and the negative-feedback controller, in a simulated 6 m ×
// 5 m motion-capture room (§12.4).
//
//	go run ./examples/dronefollow
package main

import (
	"fmt"
	"log"
	"math/rand"

	"chronos"
	"chronos/internal/stats"
)

func main() {
	rng := rand.New(rand.NewSource(11))

	// Every control tick ranges through the full pipeline: a 5 GHz band
	// sweep over the room's multipath channel, then the ToF estimator.
	sensor, err := chronos.NewDroneSensor(rng)
	if err != nil {
		log.Fatal(err)
	}
	res := chronos.DroneTrack(rng, sensor, chronos.DroneConfig{
		Duration: 45,
		Desired:  1.4,
	})

	fmt.Println("drone following a walking user at 1.4 m (12 Hz control)")
	fmt.Printf("%6s  %-18s  %-18s  %8s\n", "t (s)", "user", "drone", "dist (m)")
	for i := 0; i < len(res.UserPath); i += 36 { // every 3 s
		u, d := res.UserPath[i], res.DronePath[i]
		fmt.Printf("%6.0f  %-18s  %-18s  %8.2f\n", float64(i)/12, u, d, u.Dist(d))
	}

	cm := make([]float64, len(res.Deviations))
	for i, d := range res.Deviations {
		cm[i] = d * 100
	}
	fmt.Printf("\ndeviation from 1.4 m: median %.1f cm, p90 %.1f cm, RMSE %.1f cm\n",
		stats.Median(cm), stats.Percentile(cm, 90), stats.RMSE(cm))
	fmt.Println("(paper Fig. 10a: median ≈4.2 cm with repeated-measurement averaging)")
}
