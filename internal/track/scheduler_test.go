package track

import (
	"math/rand"
	"testing"
	"time"

	"chronos/internal/hop"
	"chronos/internal/wifi"
)

func TestScheduleSingleDeviceMatchesHopSweep(t *testing.T) {
	// With one device the scheduler must reproduce hop.Sweep's shape: one
	// dwell per band and a duration in the Fig. 9a neighborhood.
	s := RunSchedule(rand.New(rand.NewSource(1)), SchedulerConfig{})
	if len(s.Fixes) != 1 {
		t.Fatalf("fixes = %d, want 1", len(s.Fixes))
	}
	if len(s.Slots) != len(wifi.USBands()) {
		t.Errorf("slots = %d, want %d", len(s.Slots), len(wifi.USBands()))
	}
	if d := s.Duration; d < 60*time.Millisecond || d > 130*time.Millisecond {
		t.Errorf("single-device sweep = %v, want ≈84 ms", d)
	}
	if s.Utilization <= 0 || s.Utilization >= 1 {
		t.Errorf("utilization = %v, want in (0,1)", s.Utilization)
	}
}

func TestScheduleCompletesAllSweeps(t *testing.T) {
	cfg := SchedulerConfig{Devices: 4, SweepsPerDevice: 3, Bands: wifi.USBands()[:10]}
	s := RunSchedule(rand.New(rand.NewSource(2)), cfg)
	if len(s.Fixes) != 4*3 {
		t.Fatalf("fixes = %d, want 12", len(s.Fixes))
	}
	perDevice := make([]int, 4)
	for _, f := range s.Fixes {
		perDevice[f.Device]++
	}
	for d, got := range perDevice {
		if got != 3 {
			t.Errorf("device %d completed %d sweeps, want 3", d, got)
		}
	}
	if len(s.Slots) != 4*3*10 {
		t.Errorf("slots = %d, want 120", len(s.Slots))
	}
}

// TestScheduleSlotsSerialize pins the single-anchor-radio invariant: the
// timeline never overlaps two slots.
func TestScheduleSlotsSerialize(t *testing.T) {
	cfg := SchedulerConfig{Devices: 3, SweepsPerDevice: 2, Bands: wifi.USBands()[:8]}
	s := RunSchedule(rand.New(rand.NewSource(3)), cfg)
	for i := 1; i < len(s.Slots); i++ {
		if s.Slots[i].Start < s.Slots[i-1].End {
			t.Fatalf("slot %d starts (%v) before slot %d ends (%v)",
				i, s.Slots[i].Start, i-1, s.Slots[i-1].End)
		}
	}
}

// TestScheduleContentionStretchesLatency checks the capacity trade the
// campaign measures: more concurrent devices mean longer per-device fix
// latency but higher aggregate fix throughput than a lone device would
// leave idle.
func TestScheduleContentionStretchesLatency(t *testing.T) {
	bands := wifi.USBands()[:12]
	one := RunSchedule(rand.New(rand.NewSource(4)), SchedulerConfig{Devices: 1, SweepsPerDevice: 4, Bands: bands})
	eight := RunSchedule(rand.New(rand.NewSource(4)), SchedulerConfig{Devices: 8, SweepsPerDevice: 4, Bands: bands})
	if eight.MeanFixLatency() <= one.MeanFixLatency() {
		t.Errorf("8-device fix latency (%v) not above single-device (%v)",
			eight.MeanFixLatency(), one.MeanFixLatency())
	}
	// The anchor's inter-device retunes cost airtime, so utilization
	// drops under contention…
	if eight.Utilization >= one.Utilization {
		t.Errorf("utilization did not drop under contention: %v vs %v",
			eight.Utilization, one.Utilization)
	}
	// …but within a factor that keeps aggregate throughput comparable.
	if eight.FixesPerSecond < one.FixesPerSecond/2 {
		t.Errorf("aggregate throughput collapsed: %v vs %v fixes/s",
			eight.FixesPerSecond, one.FixesPerSecond)
	}
}

func TestScheduleDeterministicPerSeed(t *testing.T) {
	cfg := SchedulerConfig{Devices: 5, SweepsPerDevice: 2, Bands: wifi.USBands()[:6]}
	a := RunSchedule(rand.New(rand.NewSource(7)), cfg)
	b := RunSchedule(rand.New(rand.NewSource(7)), cfg)
	if a.Duration != b.Duration || len(a.Slots) != len(b.Slots) || a.Announces != b.Announces {
		t.Error("same seed produced different schedules")
	}
	for i := range a.Fixes {
		if a.Fixes[i] != b.Fixes[i] {
			t.Fatalf("fix %d differs: %+v vs %+v", i, a.Fixes[i], b.Fixes[i])
		}
	}
}

// TestScheduleLossyLinkStillCompletes drives the fail-safe path through
// the scheduler: heavy control-frame loss must not wedge the rotation.
func TestScheduleLossyLinkStillCompletes(t *testing.T) {
	cfg := SchedulerConfig{
		Devices: 3, SweepsPerDevice: 2, Bands: wifi.USBands()[:6],
		Hop: hop.Config{LossProb: 0.7, MaxRetries: 2},
	}
	s := RunSchedule(rand.New(rand.NewSource(8)), cfg)
	if len(s.Fixes) != 6 {
		t.Fatalf("fixes = %d, want 6 despite losses", len(s.Fixes))
	}
	if s.FailSafes == 0 || s.RevertTime == 0 {
		t.Errorf("expected fail-safes at 70%% loss: failsafes=%d revert=%v", s.FailSafes, s.RevertTime)
	}
}

func TestRunMultiTracksEveryDevice(t *testing.T) {
	cfg := MultiConfig{
		Scheduler: SchedulerConfig{Devices: 4, SweepsPerDevice: 6, Bands: wifi.USBands()[:10]},
		Speed:     0.8,
	}
	m := RunMulti(rand.New(rand.NewSource(9)), cfg)
	if len(m.Devices) != 4 {
		t.Fatalf("devices = %d", len(m.Devices))
	}
	for _, d := range m.Devices {
		if len(d.Fixes) != 6 {
			t.Errorf("device %d has %d fixes, want 6", d.Device, len(d.Fixes))
		}
		if d.RawRMSE <= 0 {
			t.Errorf("device %d raw RMSE = %v", d.Device, d.RawRMSE)
		}
		for _, f := range d.Fixes {
			if f.TrueRange < 0 || f.TrueRange > 20 {
				t.Errorf("device %d truth out of room: %v", d.Device, f.TrueRange)
			}
		}
	}
}
