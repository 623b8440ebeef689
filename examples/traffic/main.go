// Traffic: the §10/§12.3 workload — what one Chronos localization sweep
// does to an access point's live traffic. Client-1 streams video and runs
// a TCP download; client-2 asks the AP for localization at t = 6 s,
// pulling the AP off-channel for one band sweep.
//
//	go run ./examples/traffic
package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"chronos"
	"chronos/internal/netsim"
)

func main() {
	rng := rand.New(rand.NewSource(5))

	// How long does one sweep take on this link? Run the real hop
	// protocol in virtual time.
	sweep := chronos.HopSweep(rng, chronos.USBands(), chronos.HopConfig{})
	fmt.Printf("band sweep over %d bands: %.0f ms, %d announce frames, %d fail-safes\n\n",
		len(sweep.Visits), sweep.Duration.Seconds()*1000, sweep.Announces, sweep.FailSafes)

	outage := netsim.Outage{Start: 6 * time.Second, Duration: sweep.Duration}

	// TCP flow through the AP.
	samples := netsim.TCPTrace(rng, netsim.TCPConfig{}, 15*time.Second, time.Second, []netsim.Outage{outage})
	fmt.Println("TCP throughput (1 s windows):")
	for _, s := range samples {
		marker := ""
		if s.At > outage.Start && s.At <= outage.Start+time.Second {
			marker = "  <- localization sweep"
		}
		fmt.Printf("  t=%2.0fs  %6.2f Mbit/s%s\n", s.At.Seconds(), s.Value/1e6, marker)
	}
	fmt.Printf("dip: %.1f%% (paper Fig. 9c: ≈6.5%%)\n\n", netsim.ThroughputDipPercent(samples, outage))

	// Video stream with a playout buffer.
	tr := netsim.Video(netsim.VideoConfig{}, 12*time.Second, []netsim.Outage{outage})
	fmt.Printf("video: stalls=%d (paper Fig. 9b: 0 — the buffer rides out the sweep)\n\n", tr.Stalls)

	// Airtime is one cost of serving localization; the other is the AP's
	// solver compute. When several clients ask at once, their inversions
	// share one plan and solve one after another.
	var freqs []float64
	for _, b := range chronos.USBands() {
		freqs = append(freqs, b.Center)
	}
	plan, err := chronos.NewSolverPlan(freqs, chronos.SolverTauGrid(2*60e-9, 2*0.1e-9))
	if err != nil {
		panic(err)
	}
	reqs := make([]chronos.SolveRequest, 8)
	for i := range reqs {
		tau := (8 + 3*float64(i)) * 1e-9
		h := make([]complex128, len(freqs))
		for j, f := range freqs {
			// One direct path per client, h̃² delay domain.
			ph := -2 * 2 * math.Pi * f * tau
			h[j] = complex(math.Cos(ph), math.Sin(ph))
		}
		reqs[i] = chronos.SolveRequest{H: h, InvertOptions: chronos.SolveOptions{MaxIter: 300}}
	}
	t0 := time.Now()
	for i := range reqs {
		if _, err := plan.Solve(reqs[i]); err != nil {
			panic(err)
		}
	}
	fmt.Printf("AP solver compute for 8 queued clients: %.1f ms\n", time.Since(t0).Seconds()*1000)
}
