// Command chronos-svc is the always-on localization daemon: N worker
// shards continuously tracking every attached device through the full
// Chronos pipeline, with the internal/obs layer as the management
// surface. A shard ingests and tracks each of its devices' sweeps
// itself; the solve in between runs on a shared solve pool, one worker
// per CPU, where latency-class solves dequeue first and a running bulk
// solve runs waiting latency solves inline at its gap checks.
//
//	chronos-svc                          # 4 shards, synthetic demo fleet, wall time
//	chronos-svc -shards 8 -devices 16    # latency-class fleet size
//	chronos-svc -bulk-devices 24         # bulk-class devices (yield to latency class)
//	chronos-svc -virtual                 # virtual time (as fast as the host allows)
//	chronos-svc -metrics :6060           # REQUIRED for observability: /metrics + pprof
//	chronos-svc -watch 1s                # live fix-rate line on stderr
//	chronos-svc -duration 30s            # run bounded, then drain (0 = until signal)
//	chronos-svc -drain-timeout 10s       # graceful-drain bound
//	chronos-svc -json                    # final drain snapshot as JSON on stdout
//
// The daemon runs until -duration elapses or SIGINT/SIGTERM arrives,
// then drains gracefully: admissions stop, in-flight sweeps finish,
// every session retires with its partial results, and the final metrics
// snapshot is reported.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"os/signal"
	"syscall"
	"time"

	"chronos/internal/obs"
	"chronos/internal/obs/obshttp"
	"chronos/internal/sim"
	"chronos/internal/svc"
	"chronos/internal/tof"
	"chronos/internal/track"
)

func main() {
	shards := flag.Int("shards", 4, "worker-shard count (devices hash to shards by ID)")
	devices := flag.Int("devices", 4, "latency-class devices in the synthetic fleet")
	bulkDevices := flag.Int("bulk-devices", 0, "bulk-class devices in the synthetic fleet")
	speed := flag.Float64("speed", 1.0, "device walk speed in m/s")
	sweeps := flag.Int("sweeps", -1, "full sweeps per device (-1 = track until drain)")
	seed := flag.Int64("seed", 1, "fleet seed (per-device RNGs derive from it)")
	virtual := flag.Bool("virtual", false, "run shards on virtual time instead of the wall clock")
	metrics := flag.String("metrics", "", "serve JSON /metrics and pprof on this address (e.g. :6060)")
	watch := flag.Duration("watch", 0, "print a live fix-rate line to stderr at this interval")
	duration := flag.Duration("duration", 0, "run this long then drain (0 = until SIGINT/SIGTERM)")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "graceful-drain bound")
	asJSON := flag.Bool("json", false, "emit the final drain snapshot as JSON on stdout")
	flag.Parse()

	if *metrics != "" {
		obs.SetEnabled(true)
		addr, err := obshttp.Serve(*metrics)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "metrics: http://%s/metrics\n", addr)
	}
	if *watch > 0 {
		obs.SetEnabled(true)
		stop := make(chan struct{})
		defer close(stop)
		go obshttp.Watch(*watch, stop, func(line string) {
			fmt.Fprintln(os.Stderr, line)
		})
	}

	rng := rand.New(rand.NewSource(*seed))
	office := sim.NewOffice(rand.New(rand.NewSource(*seed^0x0ff1ce)), sim.OfficeConfig{})
	d := svc.NewDaemon(svc.Config{Shards: *shards, Office: office, Virtual: *virtual})

	attach := func(id uint64, class svc.Class) {
		err := d.Attach(id, svc.DeviceConfig{
			Seed: rng.Int63(), Class: class,
			Session: track.SessionConfig{
				Speed: *speed, Sweeps: *sweeps,
				WarmStart: true, VelocityTranslate: true,
			},
			Estimator: tof.Config{Mode: tof.BandsFused, Quirk24: true, MaxIter: 1200},
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "attach: %v\n", err)
			os.Exit(1)
		}
	}
	for i := 0; i < *devices; i++ {
		attach(uint64(1+i), svc.ClassLatency)
	}
	for i := 0; i < *bulkDevices; i++ {
		attach(uint64(1<<16+i), svc.ClassBulk)
	}
	fmt.Fprintf(os.Stderr, "chronos-svc: %d shards, %d latency + %d bulk devices\n",
		*shards, *devices, *bulkDevices)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	if *duration > 0 {
		select {
		case <-time.After(*duration):
		case s := <-sig:
			fmt.Fprintf(os.Stderr, "chronos-svc: %v\n", s)
		}
	} else {
		s := <-sig
		fmt.Fprintf(os.Stderr, "chronos-svc: %v\n", s)
	}

	fmt.Fprintln(os.Stderr, "chronos-svc: draining")
	snap, err := d.Drain(*drainTimeout)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	results := d.Results()
	fixes := 0
	for _, r := range results {
		fixes += r.Fixes
	}
	fmt.Fprintf(os.Stderr, "chronos-svc: drained, %d devices retired, %d fixes\n",
		len(results), fixes)
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(snap); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
}
