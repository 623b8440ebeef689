package chronos

import (
	"math"
	"math/rand"
	"testing"
)

func TestFacadeQuickstartFlow(t *testing.T) {
	rng := rand.New(rand.NewSource(1))

	// Two devices 3 m apart over a clean channel.
	tx, rx := NewRadio(rng), NewRadio(rng)
	tx.Quirk24, rx.Quirk24 = false, false
	link := &Link{
		TX: tx, RX: rx,
		Channel: NewChannel([]Path{{Delay: 3 / SpeedOfLight, Gain: 1}}),
		SNRdB:   30,
	}
	bands := Bands5GHz()
	est := NewToFEstimator(ToFConfig{Mode: Bands5GHzOnly, MaxIter: 800})

	// Calibrate once at a known distance, then measure.
	calSweep := link.Sweep(rng, bands, 3)
	cal, err := est.Calibrate(bands, calSweep, 3)
	if err != nil {
		t.Fatal(err)
	}
	d, err := MeasureDistance(rng, link, est, bands, cal)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(d-3) > 0.25 {
		t.Errorf("distance = %.3f m, want ≈3 m", d)
	}
}

func TestFacadeBandHelpers(t *testing.T) {
	if len(USBands()) != 35 {
		t.Errorf("USBands = %d", len(USBands()))
	}
	if len(Bands5GHz())+len(Bands24GHz()) != 35 {
		t.Error("band split inconsistent")
	}
}

func TestFacadeOfficeAndHop(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	office := NewOffice(rng)
	if len(office.Locations) != 30 {
		t.Errorf("locations = %d", len(office.Locations))
	}
	res := HopSweep(rng, 1, 1)
	if res.Duration <= 0 || len(res.Slots) != 35 {
		t.Errorf("hop sweep: %v, %d slots", res.Duration, len(res.Slots))
	}
}

func TestFacadeDrone(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	sensor, err := NewDroneSensor(rng)
	if err != nil {
		t.Fatal(err)
	}
	res := DroneTrack(rng, sensor, 10)
	if len(res.Deviations) == 0 {
		t.Fatal("no deviations")
	}
}

func TestFacadeTracking(t *testing.T) {
	rng := rand.New(rand.NewSource(4))

	// Incremental estimation through the facade: fold a sweep band by band.
	tx, rx := NewRadio(rng), NewRadio(rng)
	tx.Quirk24, rx.Quirk24 = false, false
	link := &Link{
		TX: tx, RX: rx,
		Channel: NewChannel([]Path{{Delay: 4 / SpeedOfLight, Gain: 1}}),
		SNRdB:   30,
	}
	bands := Bands5GHz()
	est := NewToFEstimator(ToFConfig{Mode: Bands5GHzOnly, MaxIter: 500})
	sweep := link.Sweep(rng, bands, 2)
	acc := est.NewSweep()
	for i, b := range bands {
		if err := acc.AddBand(b, sweep[i]); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := acc.Estimate(); err != nil {
		t.Fatalf("incremental estimate: %v", err)
	}

	// Kalman smoothing and the multi-device scheduler.
	tr := NewRangeTracker()
	if got, ok := tr.Observe(0, 5); !ok || got != 5 {
		t.Errorf("tracker priming = (%v, %v)", got, ok)
	}
	sched := HopSweep(rng, 2, 1)
	if len(sched.Fixes) != 2 || sched.Utilization <= 0 {
		t.Errorf("schedule: %d fixes, util %v", len(sched.Fixes), sched.Utilization)
	}
}

func TestFacadeTrackSession(t *testing.T) {
	if testing.Short() {
		t.Skip("full-pipeline session")
	}
	rng := rand.New(rand.NewSource(5))
	office := NewOffice(rng)
	est := NewToFEstimator(ToFConfig{Mode: Bands5GHzOnly, MaxIter: 400})
	res, err := RunTrackSession(rng, office, est, TrackSessionConfig{Speed: 0.8, Sweeps: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Fixes) == 0 {
		t.Error("session streamed no fixes")
	}
}

func TestFacadeLocalizer(t *testing.T) {
	l := NewLocalizer(LinearArray(3, 0.3), ToFConfig{})
	if l.Est == nil || len(l.Cals) != 3 {
		t.Errorf("estimator %v, calibrations = %d", l.Est, len(l.Cals))
	}
}

func TestFacadePlanRegistryStats(t *testing.T) {
	st := SharedPlanRegistryStats()
	if st.MaxPlans <= 0 {
		t.Errorf("shared plan registry reports no LRU bound: %+v", st)
	}
	if st.Plans < 0 || st.Builds < st.Evictions {
		t.Errorf("implausible registry counters: %+v", st)
	}
}

// TestFacadeConvergenceTelemetry pins the facade's convergence
// telemetry: an estimate of a sweep with repeated CSI pairs stops on its
// duality gap and reports it (Converged, Iterations, GapAtStop,
// NoiseFloor).
func TestFacadeConvergenceTelemetry(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	tx, rx := NewRadio(rng), NewRadio(rng)
	tx.Quirk24, rx.Quirk24 = false, false
	link := &Link{
		TX: tx, RX: rx,
		Channel: NewChannel([]Path{{Delay: 6 / SpeedOfLight, Gain: 1}, {Delay: 9 / SpeedOfLight, Gain: 0.5}}),
		SNRdB:   26,
	}
	bands := Bands5GHz()
	sweep := link.Sweep(rng, bands, 3)

	rg, err := NewToFEstimator(ToFConfig{Mode: Bands5GHzOnly, MaxIter: 1200}).Estimate(bands, sweep)
	if err != nil {
		t.Fatal(err)
	}
	if !rg.Converged || rg.Iterations <= 0 || rg.NoiseFloor <= 0 {
		t.Errorf("gap telemetry: converged=%v iters=%d noiseRel=%v", rg.Converged, rg.Iterations, rg.NoiseFloor)
	}
	if rg.GapAtStop <= 0 {
		t.Errorf("gap-stopped estimate reported no duality gap (%v)", rg.GapAtStop)
	}
}
