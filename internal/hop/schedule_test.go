package hop

import (
	"math/rand"
	"testing"

	"chronos/internal/obs"
	"chronos/internal/wifi"
)

func TestScheduleCompletesAllSweeps(t *testing.T) {
	s := RunSchedule(rand.New(rand.NewSource(2)), 4, 3)
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
	if want := 4 * 3 * len(wifi.USBands()); len(s.Slots) != want {
		t.Errorf("slots = %d, want %d", len(s.Slots), want)
	}
	// A count below one runs nothing.
	for _, c := range [][2]int{{0, 3}, {4, 0}, {-1, -1}} {
		if s := RunSchedule(rand.New(rand.NewSource(2)), c[0], c[1]); len(s.Slots) != 0 || s.Duration != 0 || s.MeanFixLatency() != 0 {
			t.Errorf("RunSchedule(%d devices, %d sweeps) ran %d slots over %v", c[0], c[1], len(s.Slots), s.Duration)
		}
	}
}

// TestScheduleSlotsSerialize pins the single-anchor-radio invariant: the
// timeline never overlaps two slots.
func TestScheduleSlotsSerialize(t *testing.T) {
	s := RunSchedule(rand.New(rand.NewSource(3)), 3, 2)
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
	one := RunSchedule(rand.New(rand.NewSource(4)), 1, 4)
	eight := RunSchedule(rand.New(rand.NewSource(4)), 8, 4)
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
	a := RunSchedule(rand.New(rand.NewSource(7)), 5, 2)
	b := RunSchedule(rand.New(rand.NewSource(7)), 5, 2)
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
// the schedule: heavy control-frame loss must not wedge the rotation.
func TestScheduleLossyLinkStillCompletes(t *testing.T) {
	s := runSchedule(lossyHoppers(rand.New(rand.NewSource(8)), 3, 0.7), 2)
	if len(s.Fixes) != 6 {
		t.Fatalf("fixes = %d, want 6 despite losses", len(s.Fixes))
	}
	if s.FailSafes == 0 || s.RevertTime == 0 {
		t.Errorf("expected fail-safes at 70%% loss: failsafes=%d revert=%v", s.FailSafes, s.RevertTime)
	}
}

// TestScheduleRecordsHistograms pins what the schedule books: one
// hop.sweep_duration_ns sample, the fix latency, per completed sweep.
func TestScheduleRecordsHistograms(t *testing.T) {
	obs.Reset()
	obs.SetEnabled(true)
	defer func() { obs.SetEnabled(false); obs.Reset() }()
	s := RunSchedule(rand.New(rand.NewSource(9)), 2, 3)
	h := obs.Capture().Hists
	var longest float64
	for _, f := range s.Fixes {
		longest = max(longest, float64(f.Latency))
	}
	if got := h["hop.sweep_duration_ns"]; got.Count != int64(len(s.Fixes)) || got.Max != longest {
		t.Errorf("sweep duration hist: count %d max %v, want %d samples up to %v", got.Count, got.Max, len(s.Fixes), longest)
	}
}
