// The examples pin their output. Off amd64 Go may fuse x*y+z into one
// multiply-add, which moves low bits, and the simulator is not kept
// free of fusion, so the examples build on amd64 only, like the golden
// tables run.

//go:build amd64

package chronos_test

import (
	"fmt"
	"log"
	"maps"
	"math/rand"
	"slices"
	"time"

	"chronos"
	"chronos/internal/netsim"
	"chronos/internal/stats"
)

// Measure the distance between two simulated Wi-Fi devices. The flow
// mirrors a deployment: pair two radios, calibrate the pair's constant
// hardware offset once at a known distance, then range freely.
func ExampleMeasureDistance() {
	rng := rand.New(rand.NewSource(42))

	// Two commodity 3-antenna cards; we use one antenna on each. The
	// radios carry realistic impairments: packet-detection delay,
	// residual CFO, 8-bit CSI quantization, hardware chain delays.
	tx := chronos.NewRadio(rng)
	rx := chronos.NewRadio(rng)
	tx.Quirk24, rx.Quirk24 = false, false // clean 5 GHz-only setup

	// The devices sit 4.2 m apart with one wall reflection.
	direct := 4.2 / chronos.SpeedOfLight
	link := &chronos.Link{
		TX: tx, RX: rx,
		Channel: chronos.NewChannel([]chronos.Path{
			{Delay: direct, Gain: 1.0},
			{Delay: direct + 9e-9, Gain: 0.4}, // a bounce off a wall
		}),
		SNRdB: 28,
	}

	bands := chronos.Bands5GHz()
	est := chronos.NewToFEstimator(chronos.ToFConfig{Mode: chronos.Bands5GHzOnly})

	// One-time calibration at a known 4.2 m records the constant offset
	// (hardware chain delays).
	calSweep := link.Sweep(rng, bands, 3)
	cal, err := est.Calibrate(bands, calSweep, 4.2)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("calibrated hardware offset: %.2f ns\n", cal.Offset*1e9)

	for i := 0; i < 5; i++ {
		d, err := chronos.MeasureDistance(rng, link, est, bands, cal)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("measurement %d: %.3f m (truth 4.200 m, error %+.1f cm)\n",
			i+1, d, (d-4.2)*100)
	}
	// Output:
	// calibrated hardware offset: 4.27 ns
	// measurement 1: 4.198 m (truth 4.200 m, error -0.2 cm)
	// measurement 2: 4.201 m (truth 4.200 m, error +0.1 cm)
	// measurement 3: 4.201 m (truth 4.200 m, error +0.1 cm)
	// measurement 4: 4.201 m (truth 4.200 m, error +0.1 cm)
	// measurement 5: 4.199 m (truth 4.200 m, error -0.1 cm)
}

// Device-to-device localization (§8, §12.2) on the simulated 20 m × 20 m
// office floor: a 3-antenna receiver locates a single-antenna
// transmitter with no infrastructure support. Per-antenna time of
// flight gives distances, outlier rejection drops an inconsistent
// chain, and least squares gives the fix. Trial 0 rejects one chain,
// and two circles fit two mirror-image positions: Fix.Candidates holds
// both, and the fix took the one 5.72 m off, though the other lies 3 cm
// from the truth.
func ExampleLocalizer_LocateArray() {
	rng := rand.New(rand.NewSource(7))
	office := chronos.NewOffice(rng)
	bands := chronos.Bands5GHz()

	// A laptop-class receiver: 3 antennas ~30 cm apart in a triangle
	// (non-collinear, as §8 requires for a unique fix). All chains share
	// one card, so every antenna measures each forward packet with the
	// same detection delay and CFO.
	array := chronos.TriangleArray(0.30)
	localizer := chronos.NewLocalizer(array, chronos.ToFConfig{Mode: chronos.Bands5GHzOnly, MaxIter: 1000})

	tx := chronos.NewRadio(rng)
	tx.Quirk24 = false
	rx := chronos.NewRadio(rng)
	rx.Quirk24 = false
	link := &chronos.ArrayLink{TX: tx, RX: rx, SNRdB: 26}

	rxCenter := office.Locations[0]
	place := func(txPos chronos.Point, nlos bool) {
		ap := chronos.AntennaPlacement{TX: txPos, RXCenter: rxCenter, Array: array, NLOS: nlos}
		link.Channels = office.AntennaChannels(ap)
	}

	// Calibrate each antenna chain once at a marked spot a few meters
	// from the receiver (close enough for high SNR).
	calTx := office.Locations[1]
	for _, l := range office.Locations[1:] {
		if d := l.Dist(rxCenter); d > 2 && d < 6 {
			calTx = l
			break
		}
	}
	place(calTx, false)
	trueDist := make([]float64, 3)
	for i, ant := range array.At(rxCenter) {
		trueDist[i] = calTx.Dist(ant)
	}
	if err := localizer.CalibrateArray(rng, bands, link, trueDist); err != nil {
		log.Fatal(err)
	}

	// Locate five transmitter placements within 10 m of the receiver,
	// as in Fig. 6's pairings, alternating LOS and NLOS.
	var targets []chronos.Point
	for _, l := range office.Locations[2:] {
		if d := l.Dist(rxCenter); d > 1.5 && d <= 10 && len(targets) < 5 {
			targets = append(targets, l)
		}
	}
	for trial, target := range targets {
		nlos := trial%2 == 1
		place(target, nlos)
		fix, err := localizer.LocateArray(bands, link.Sweep(rng, bands, 3))
		if err != nil {
			log.Fatal(err)
		}
		truth := target.Sub(rxCenter)
		cls := "LOS"
		if nlos {
			cls = "NLOS"
		}
		fmt.Printf("trial %d (%s): fix %s, truth %s, error %.2f m (%d antennas kept)\n",
			trial, cls, fix.Position, truth, fix.Position.Dist(truth), len(fix.KeptAntennas))
	}
	// Output:
	// trial 0 (LOS): fix (3.401, 0.016), truth (-1.538, -2.865), error 5.72 m (2 antennas kept)
	// trial 1 (NLOS): fix (4.189, 0.905), truth (4.241, 0.564), error 0.34 m (3 antennas kept)
	// trial 2 (LOS): fix (-3.186, -8.014), truth (-3.890, -7.688), error 0.78 m (3 antennas kept)
	// trial 3 (NLOS): fix (-5.753, -3.000), truth (-6.492, -0.453), error 2.65 m (3 antennas kept)
	// trial 4 (LOS): fix (-3.776, -4.368), truth (-4.042, -4.123), error 0.36 m (3 antennas kept)
}

// Stream range fixes over a walking target and smooth them with the
// per-device Kalman tracker. Sweep by sweep, the incremental estimator
// folds CSI in band by band on the hop protocol's virtual timeline;
// each completed sweep yields a raw range fix that the constant-velocity
// filter smooths and gates.
func ExampleRunTrackSession() {
	rng := rand.New(rand.NewSource(42))

	// A generated office floor and a 5 GHz-only estimator (fast,
	// quirk-free).
	office := chronos.NewOffice(rng)
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
	fmt.Println("t (ms)  raw (m)  smoothed (m)  truth (m)  gate")
	for _, f := range res.Fixes {
		gate := "pass"
		if !f.Accepted {
			gate = "REJECT"
		}
		fmt.Printf("%6.0f   %6.2f        %6.2f     %6.2f  %s\n",
			f.At.Seconds()*1000, f.Range, f.Smoothed, f.TrueRange, gate)
	}
	fmt.Printf("raw RMSE %.3f m, smoothed RMSE %.3f m (%d fixes, %d gated out)\n",
		res.RawRMSE, res.SmoothedRMSE, len(res.Fixes), res.Rejected)
	// Output:
	// t (ms)  raw (m)  smoothed (m)  truth (m)  gate
	//     58     6.60          6.60       7.04  pass
	//    118     6.75          6.69       7.00  pass
	//    177     6.75          6.74       6.97  pass
	//    237     6.72          6.75       6.94  pass
	//    296    13.83          6.77       6.90  REJECT
	//    356     6.66          6.70       6.87  pass
	// raw RMSE 2.838 m, smoothed RMSE 0.264 m (6 fixes, 1 gated out)
}

// Interleave band-hopping sweeps across concurrent devices on the
// single-anchor schedule and watch fix latency stretch: the capacity
// trade-off of one anchor radio serving many clients.
func ExampleHopSweep_capacity() {
	rng := rand.New(rand.NewSource(42))
	for _, n := range []int{1, 4, 8} {
		s := chronos.HopSweep(rng, n, 3)
		fmt.Printf("%d devices: %.2f fixes/s aggregate, %.1f ms fix latency, %.1f%% airtime\n",
			n, s.FixesPerSecond, s.MeanFixLatency().Seconds()*1000, 100*s.Utilization)
	}
	// Output:
	// 1 devices: 11.65 fixes/s aggregate, 85.0 ms fix latency, 44.8% airtime
	// 4 devices: 7.68 fixes/s aggregate, 508.3 ms fix latency, 29.6% airtime
	// 8 devices: 7.67 fixes/s aggregate, 1016.3 ms fix latency, 29.5% airtime
}

// Attach four full-pipeline devices to a virtual-time localization
// service, whose shards sweep them and whose solve pool solves them
// concurrently. Each device's fixes are byte-identical to running its
// session alone. The output shows the error that dominates this system,
// the estimator's 25 ns alias period (7.5 m): seven of the eight fixes
// land a period long or short; device 3's first fix, a period short,
// clamps at 0 m. Each range tracker primes on its device's first fix, so
// device 2's tracker gates out its true range as an outlier.
func ExampleNewService() {
	rng := rand.New(rand.NewSource(42))
	office := chronos.NewOffice(rng)
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
	for _, id := range slices.Sorted(maps.Keys(results)) {
		r := results[id]
		if r.Err != nil {
			log.Fatal(r.Err)
		}
		for _, f := range r.Session.Fixes {
			fmt.Printf("device %d: raw %6.2f m, smoothed %6.2f m, truth %.2f m, accepted %v\n",
				id, f.Range, f.Smoothed, f.TrueRange, f.Accepted)
		}
	}
	// Output:
	// device 1: raw  14.89 m, smoothed  14.89 m, truth 7.12 m, accepted true
	// device 1: raw   0.35 m, smoothed  14.89 m, truth 7.17 m, accepted false
	// device 2: raw  14.76 m, smoothed  14.76 m, truth 7.10 m, accepted true
	// device 2: raw   7.41 m, smoothed  14.76 m, truth 7.13 m, accepted false
	// device 3: raw   0.00 m, smoothed   0.00 m, truth 7.03 m, accepted true
	// device 3: raw  13.85 m, smoothed   0.00 m, truth 6.99 m, accepted false
	// device 4: raw  14.81 m, smoothed  14.81 m, truth 7.11 m, accepted true
	// device 4: raw  14.87 m, smoothed  14.85 m, truth 7.15 m, accepted true
}

// The §9 personal drone (§12.4): a quadrotor follows a user walking a
// 6 m × 5 m room at a fixed 1.4 m, using only Chronos range estimates
// and a negative-feedback controller. Fig. 10a reads a median deviation
// of ≈4.2 cm in the paper, with repeated-measurement averaging.
func ExampleDroneTrack() {
	rng := rand.New(rand.NewSource(11))

	// Every control tick ranges through the full pipeline: a 5 GHz band
	// sweep over the room's multipath channel, then the ToF estimator.
	sensor, err := chronos.NewDroneSensor(rng)
	if err != nil {
		log.Fatal(err)
	}
	res := chronos.DroneTrack(rng, sensor, 45)

	fmt.Printf("%5s  %-14s  %-14s  %8s\n", "t (s)", "user", "drone", "dist (m)")
	for i := 0; i < len(res.UserPath); i += 36 { // every 3 s at 12 Hz
		u, d := res.UserPath[i], res.DronePath[i]
		fmt.Printf("%5.0f  %-14s  %-14s  %8.2f\n", float64(i)/12, u, d, u.Dist(d))
	}
	cm := make([]float64, len(res.Deviations))
	for i, d := range res.Deviations {
		cm[i] = d * 100
	}
	fmt.Printf("deviation from 1.4 m: median %.1f cm, p90 %.1f cm, RMSE %.1f cm\n",
		stats.Median(cm), stats.Percentile(cm, 90), stats.RMSE(cm))
	// Output:
	// t (s)  user            drone           dist (m)
	//     0  (2.933, 2.504)  (4.335, 2.502)      1.40
	//     3  (0.909, 2.525)  (2.347, 2.588)      1.44
	//     6  (2.893, 1.174)  (2.906, 2.578)      1.40
	//     9  (3.751, 1.715)  (2.504, 2.406)      1.43
	//    12  (4.165, 3.036)  (2.794, 2.727)      1.41
	//    15  (4.806, 1.063)  (4.065, 2.232)      1.38
	//    18  (2.953, 1.090)  (3.958, 1.930)      1.31
	//    21  (2.279, 2.952)  (3.596, 2.485)      1.40
	//    24  (2.936, 3.254)  (3.729, 2.089)      1.41
	//    27  (5.224, 2.693)  (4.124, 1.845)      1.39
	//    30  (3.303, 2.883)  (3.879, 1.476)      1.52
	//    33  (5.090, 1.834)  (3.963, 1.005)      1.40
	//    36  (3.216, 2.094)  (3.690, 0.685)      1.49
	//    39  (4.434, 2.121)  (3.963, 0.810)      1.39
	//    42  (3.330, 3.459)  (4.095, 2.318)      1.37
	// deviation from 1.4 m: median 0.9 cm, p90 3.2 cm, RMSE 2.2 cm
}

// What one localization sweep does to an access point's live traffic
// (§10, §12.3): a client streams video and runs a TCP download while
// another asks the AP for localization at t = 6 s, pulling the AP
// off-channel for one band sweep. The paper's Fig. 9c reads a ≈6.5%
// throughput dip, and Fig. 9b no video stall: the buffer rides out the
// sweep.
func ExampleHopSweep() {
	rng := rand.New(rand.NewSource(5))

	// How long does one sweep take on this link? Run the hop protocol in
	// virtual time: one device, one sweep.
	sweep := chronos.HopSweep(rng, 1, 1)
	fmt.Printf("band sweep over %d bands: %.0f ms, %d announce frames, %d fail-safes\n",
		len(sweep.Slots), sweep.Duration.Seconds()*1000, sweep.Announces, sweep.FailSafes)

	outage := netsim.Outage{Start: 6 * time.Second, Duration: sweep.Duration}

	// A TCP flow through the AP, in 1 s windows.
	samples := netsim.TCPTrace(rng, 15*time.Second, time.Second, []netsim.Outage{outage})
	for _, s := range samples {
		marker := ""
		if s.At > outage.Start && s.At <= outage.Start+time.Second {
			marker = "  <- localization sweep"
		}
		fmt.Printf("t=%2.0fs  %5.2f Mbit/s%s\n", s.At.Seconds(), s.Value/1e6, marker)
	}
	fmt.Printf("TCP dip: %.1f%%\n", netsim.ThroughputDipPercent(samples, outage))

	// A video stream with a playout buffer.
	tr := netsim.Video(12*time.Second, []netsim.Outage{outage})
	fmt.Printf("video stalls: %d\n", tr.Stalls)
	// Output:
	// band sweep over 35 bands: 85 ms, 36 announce frames, 0 fail-safes
	// t= 1s  17.06 Mbit/s
	// t= 2s  19.45 Mbit/s
	// t= 3s  19.25 Mbit/s
	// t= 4s  19.34 Mbit/s
	// t= 5s  19.41 Mbit/s
	// t= 6s  19.48 Mbit/s
	// t= 7s  16.68 Mbit/s  <- localization sweep
	// t= 8s  19.64 Mbit/s
	// t= 9s  19.25 Mbit/s
	// t=10s  19.27 Mbit/s
	// t=11s  19.37 Mbit/s
	// t=12s  19.45 Mbit/s
	// t=13s  19.51 Mbit/s
	// t=14s  19.57 Mbit/s
	// t=15s  19.46 Mbit/s
	// TCP dip: 13.9%
	// video stalls: 0
}
