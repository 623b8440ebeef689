// Tracking walkthrough: stream Chronos range fixes over a walking target
// and smooth them with the per-device Kalman tracker, interleave sweeps
// across several devices to see the capacity trade-off, then range four
// devices concurrently through the localization service.
//
// Sweep by sweep, the incremental estimator folds CSI in band by band on
// the hop protocol's virtual timeline; each completed sweep yields a raw
// range fix that the constant-velocity filter smooths and gates.
//
//	go run ./examples/tracking
//	go run ./examples/tracking -obs    # + live observability walkthrough
//
// With -obs, the run doubles as the observability demo: metric
// recording is enabled (chronos.SetObsEnabled), the same live /metrics
// JSON endpoint the cmd binaries expose via their -metrics flag is
// served on a loopback port and polled once, and the final
// chronos.CaptureObs snapshot — pipeline counters and p50/p99 stage
// latencies — is summarized at the end. The fixes themselves are
// byte-identical either way; instrumentation never changes a result.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net/http"
	"time"

	"chronos"
	"chronos/internal/obs/obshttp"
)

func main() {
	withObs := flag.Bool("obs", false, "enable metrics, serve+poll a live /metrics endpoint, and print a final snapshot summary")
	flag.Parse()

	var metricsAddr string
	if *withObs {
		// Equivalent to chronos-track's -metrics flag: enables recording
		// and serves JSON /metrics plus pprof for the process lifetime.
		addr, err := obshttp.Serve("127.0.0.1:0")
		if err != nil {
			log.Fatal(err)
		}
		metricsAddr = addr
		fmt.Printf("observability on: http://%s/metrics\n\n", addr)
	}

	rng := rand.New(rand.NewSource(42))

	// A generated office floor and a 5 GHz-only estimator (fast, quirk-free).
	office := chronos.NewOffice(rng, chronos.OfficeConfig{})
	est := chronos.NewToFEstimator(chronos.ToFConfig{
		Mode: chronos.Bands5GHzOnly, MaxIter: 600,
	})

	// Stream six sweeps over a target walking at 1 m/s.
	res, err := chronos.RunTrackSession(rng, office, est, chronos.TrackSessionConfig{
		Speed:  1.0,
		Sweeps: 6,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("streamed fixes (target walking at 1 m/s):")
	fmt.Println("  t (ms)   raw (m)  smoothed (m)  truth (m)  gate")
	for _, f := range res.Fixes {
		gate := "pass"
		if !f.Accepted {
			gate = "REJECT"
		}
		fmt.Printf("  %6.0f   %6.2f   %6.2f        %6.2f     %s\n",
			f.At.Seconds()*1000, f.Range, f.Smoothed, f.TrueRange, gate)
	}
	fmt.Printf("raw RMSE %.3f m → smoothed RMSE %.3f m (%d fixes, %d gated out)\n\n",
		res.RawRMSE, res.SmoothedRMSE, len(res.Fixes), res.Rejected)

	// Capacity: interleave sweeps across concurrent devices on the
	// single-anchor schedule and watch fix latency stretch.
	fmt.Println("multi-device capacity (3 sweeps per device):")
	for _, n := range []int{1, 4, 8} {
		m := chronos.RunTrackMulti(rng, chronos.TrackMultiConfig{
			Scheduler: chronos.TrackSchedulerConfig{Devices: n, SweepsPerDevice: 3},
			Speed:     0.8,
		})
		s := m.Schedule
		fmt.Printf("  %2d devices: %5.2f fixes/s aggregate, %6.1f ms fix latency, %4.1f%% airtime\n",
			n, s.FixesPerSecond, s.MeanFixLatency().Seconds()*1000, 100*s.Utilization)
	}

	// The service: attach four full-pipeline devices to a virtual-time
	// daemon whose shards sweep and solve them concurrently. Fixes are
	// byte-identical to running each session alone.
	service := chronos.NewService(chronos.ServiceConfig{Office: office, Virtual: true})
	for id := uint64(1); id <= 4; id++ {
		err := service.Attach(id, chronos.ServiceDeviceConfig{
			Seed:      rng.Int63(),
			Session:   chronos.TrackSessionConfig{Speed: 0.8, Sweeps: 2},
			Estimator: chronos.ToFConfig{Mode: chronos.Bands5GHzOnly, MaxIter: 600},
		})
		if err != nil {
			log.Fatal(err)
		}
	}
	if err := service.Quiesce(time.Minute); err != nil {
		log.Fatal(err)
	}
	results := service.Results()
	if _, err := service.Drain(10 * time.Second); err != nil {
		log.Fatal(err)
	}
	fixes := 0
	for _, r := range results {
		if r.Err != nil {
			log.Fatal(r.Err)
		}
		fixes += len(r.Session.Fixes)
	}
	fmt.Printf("\nsolver-backed ranging, 4 concurrent devices: %d fixes\n", fixes)

	if *withObs {
		// Poll the endpoint once, exactly as an external watcher would...
		resp, err := http.Get("http://" + metricsAddr + "/metrics")
		if err != nil {
			log.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		fmt.Printf("\n/metrics serves %d bytes of snapshot JSON; headline:\n", len(body))
		// ...and read the in-process snapshot for the same numbers the
		// cmd binaries' -watch mode prints live.
		s := chronos.CaptureObs()
		fmt.Printf("  %s\n", obshttp.WatchLine(s))
		fmt.Printf("  ndft.solve.requests=%d iterations=%d  tof.alias.refits=%d  hop.hops=%d\n",
			s.Counters["ndft.solve.requests"], s.Counters["ndft.solve.iterations"],
			s.Counters["tof.alias.refits"], s.Counters["hop.hops"])
	}
}
