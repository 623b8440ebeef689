// Command chronos-drone runs the §9/§12.4 personal-drone simulation: a
// quadrotor holds a fixed distance to a walking user in a 6 m × 5 m room
// using Chronos range estimates (a full-pipeline 5 GHz sweep and
// time-of-flight estimate per control tick) and a negative-feedback
// controller, and the run's deviation statistics and trajectory samples
// are printed.
//
//	chronos-drone -duration 60 -desired 1.4
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"

	"chronos/internal/drone"
	"chronos/internal/stats"
)

func main() {
	duration := flag.Float64("duration", 60, "flight duration (s)")
	desired := flag.Float64("desired", 1.4, "distance to hold (m)")
	seed := flag.Int64("seed", 1, "simulation seed")
	trace := flag.Bool("trace", false, "print the sampled trajectory")
	flag.Parse()

	rng := rand.New(rand.NewSource(*seed))
	sensor, err := drone.NewPipelineSensor(rng, drone.Room(6, 5))
	if err != nil {
		log.Fatal(err)
	}
	res := drone.Track(rng, sensor, drone.TrackConfig{
		Duration: *duration,
		Desired:  *desired,
	})

	cm := make([]float64, len(res.Deviations))
	for i, d := range res.Deviations {
		cm[i] = d * 100
	}
	fmt.Printf("flight %.0f s at %.2f m target (12 Hz control)\n\n", *duration, *desired)
	fmt.Printf("deviation from target: median %.1f cm, p90 %.1f cm, RMSE %.1f cm\n",
		stats.Median(cm), stats.Percentile(cm, 90), stats.RMSE(cm))

	if *trace {
		fmt.Printf("\n%6s  %-18s  %-18s  %8s\n", "t (s)", "user", "drone", "dist (m)")
		for i := 0; i < len(res.UserPath); i += 24 { // every 2 s
			u, d := res.UserPath[i], res.DronePath[i]
			fmt.Printf("%6.1f  %-18s  %-18s  %8.2f\n", float64(i)/12, u, d, u.Dist(d))
		}
	}
}
