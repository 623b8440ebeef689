package hop

import (
	"math/rand"
	"testing"
	"time"

	"chronos/internal/mac"
	"chronos/internal/stats"
	"chronos/internal/wifi"
)

// lossyHoppers builds n hoppers on one simulator whose control frames
// drop with probability loss, for runSchedule.
func lossyHoppers(rng *rand.Rand, n int, loss float64) []*Hopper {
	sim := mac.NewSim()
	hs := make([]*Hopper, n)
	for i := range hs {
		hs[i] = NewHopper(sim, rng)
		hs[i].Link.LossProb = loss
	}
	return hs
}

// TestSweepVisitsEveryBand pins the lone sweep's shape: one dwell per
// band in band order, one fix at the end, and dwell time a share of the
// timeline.
func TestSweepVisitsEveryBand(t *testing.T) {
	res := RunSchedule(rand.New(rand.NewSource(1)), 1, 1)
	bands := wifi.USBands()
	if len(res.Slots) != len(bands) {
		t.Fatalf("visited %d bands, want %d", len(res.Slots), len(bands))
	}
	for i, v := range res.Slots {
		if v.Band != bands[i] || v.Device != 0 {
			t.Errorf("slot %d = device %d on %v, want device 0 on %v", i, v.Device, v.Band, bands[i])
		}
	}
	if len(res.Fixes) != 1 || res.Fixes[0].At != res.Duration || res.Fixes[0].Latency != res.Duration {
		t.Errorf("fixes = %+v, want one at the sweep's end %v", res.Fixes, res.Duration)
	}
	if res.Utilization <= 0 || res.Utilization >= 1 {
		t.Errorf("utilization = %v, want in (0,1)", res.Utilization)
	}
}

func TestSweepDurationNearPaper(t *testing.T) {
	// Fig. 9a: median hop time over 35 bands ≈ 84 ms.
	rng := rand.New(rand.NewSource(2))
	durs := make([]float64, 50)
	for i := range durs {
		durs[i] = RunSchedule(rng, 1, 1).Duration.Seconds()
	}
	med := stats.Median(durs)
	if med < 0.070 || med > 0.100 {
		t.Errorf("median sweep = %.1f ms, want ≈84 ms", med*1000)
	}
}

func TestSweepMonotoneVisits(t *testing.T) {
	res := RunSchedule(rand.New(rand.NewSource(3)), 1, 1)
	for i := 1; i < len(res.Slots); i++ {
		if res.Slots[i].Start < res.Slots[i-1].End {
			t.Fatalf("visit %d enters before previous leaves", i)
		}
	}
	for _, v := range res.Slots {
		if v.End < v.Start {
			t.Fatalf("visit leaves before entering: %+v", v)
		}
	}
}

func TestSweepLossyLinkRetries(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	clean := runSchedule(lossyHoppers(rng, 1, 0), 1)
	lossy := runSchedule(lossyHoppers(rng, 1, 0.3), 1)
	if lossy.Announces <= clean.Announces {
		t.Errorf("lossy link sent %d announces vs clean %d — retries missing",
			lossy.Announces, clean.Announces)
	}
	if lossy.Duration <= clean.Duration {
		t.Errorf("lossy sweep (%v) not slower than clean (%v)", lossy.Duration, clean.Duration)
	}
}

func TestSweepFailSafeOnTerribleLink(t *testing.T) {
	// 85% loss: some bands should need the fail-safe, yet the sweep must
	// still terminate and cover all bands.
	res := runSchedule(lossyHoppers(rand.New(rand.NewSource(5)), 1, 0.85), 1)
	if res.FailSafes == 0 {
		t.Error("no fail-safes triggered at 85% loss")
	}
	if len(res.Slots) != len(wifi.USBands()) || len(res.Fixes) != 1 {
		t.Errorf("sweep did not complete: %d visits, %d fixes", len(res.Slots), len(res.Fixes))
	}
}

func TestSweepDeterministicPerSeed(t *testing.T) {
	a := RunSchedule(rand.New(rand.NewSource(7)), 1, 1)
	b := RunSchedule(rand.New(rand.NewSource(7)), 1, 1)
	if a.Duration != b.Duration || a.Announces != b.Announces {
		t.Error("same seed produced different sweeps")
	}
}

// TestSweepDurationsLength pins one device's repeated sweeps: n sweeps
// report n durations (the fixes' latencies), each a whole lone sweep,
// since a lone device never waits on the anchor.
func TestSweepDurationsLength(t *testing.T) {
	res := RunSchedule(rand.New(rand.NewSource(8)), 1, 7)
	if len(res.Fixes) != 7 {
		t.Fatalf("len = %d", len(res.Fixes))
	}
	for _, f := range res.Fixes {
		if d := f.Latency; d < 60*time.Millisecond || d > 130*time.Millisecond {
			t.Errorf("sweep took %v, want a lone sweep's ≈84 ms", d)
		}
	}
}

// TestSweepScalesWithBandCount checks that every band costs one dwell
// and one hop: covering the first 10 of the 35 bands takes about 10/35
// of the sweep.
func TestSweepScalesWithBandCount(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	var short, full []float64
	for i := 0; i < 20; i++ {
		res := RunSchedule(rng, 1, 1)
		short = append(short, res.Slots[9].End.Seconds())
		full = append(full, res.Duration.Seconds())
	}
	// Roughly proportional: 35/10 = 3.5×.
	if ratio := stats.Median(full) / stats.Median(short); ratio < 2.5 || ratio > 4.5 {
		t.Errorf("scaling ratio = %.2f, want ≈3.5", ratio)
	}
}

// TestHopperCleanLinkNoRetries drives the hop state machine directly:
// on a loss-free link one Hop costs announce + ack + retune and needs
// neither retries nor fail-safes.
func TestHopperCleanLinkNoRetries(t *testing.T) {
	sim := mac.NewSim()
	h := NewHopper(sim, rand.New(rand.NewSource(20)))
	h.Link.LossProb = 0
	done := false
	h.Hop(func() { done = true })
	sim.RunAll()
	if !done {
		t.Fatal("Hop never completed")
	}
	if h.Announces != 1 || h.FailSafes != 0 {
		t.Errorf("clean hop: announces=%d failsafes=%d, want 1 and 0", h.Announces, h.FailSafes)
	}
	min := switchTime + 2*latency
	max := min + switchJitter
	if at := sim.Now(); at < min || at > max {
		t.Errorf("hop completed at %v, want within [%v, %v]", at, min, max)
	}
}

// TestHopperLostAnnounceRetries exercises the lost-announce/lost-ack
// retransmission path: with heavy loss a single hop needs multiple
// announce rounds but still completes.
func TestHopperLostAnnounceRetries(t *testing.T) {
	sim := mac.NewSim()
	h := NewHopper(sim, rand.New(rand.NewSource(21)))
	h.Link.LossProb = 0.6
	completed := 0
	for i := 0; i < 20; i++ {
		h.Hop(func() { completed++ })
		sim.RunAll()
	}
	if completed != 20 {
		t.Fatalf("completed %d/20 hops", completed)
	}
	if h.Announces <= 20 {
		t.Errorf("announces = %d over 20 hops at 60%% loss — retransmissions missing", h.Announces)
	}
}

// TestHopperRetryExhaustionFailSafe forces retry exhaustion under heavy
// loss and checks the fail-safe: the hop still completes, fail-safes are
// counted, and each one charges at least the silence window plus a
// retune to RevertTime.
func TestHopperRetryExhaustionFailSafe(t *testing.T) {
	sim := mac.NewSim()
	h := NewHopper(sim, rand.New(rand.NewSource(22)))
	h.Link.LossProb = 0.8
	completed := 0
	for i := 0; i < 30; i++ {
		h.Hop(func() { completed++ })
		sim.RunAll()
	}
	if completed != 30 {
		t.Fatalf("completed %d/30 hops", completed)
	}
	if h.FailSafes == 0 {
		t.Fatal("no fail-safes at 80% loss")
	}
	minRevert := time.Duration(h.FailSafes) * (failSafe + switchTime)
	if h.RevertTime < minRevert {
		t.Errorf("RevertTime = %v, want ≥ %v (%d reverts)", h.RevertTime, minRevert, h.FailSafes)
	}
}

// TestHopperCompletesOnceWithShortAckTimeout pins single-completion when
// ackTimeout is shorter than the ack round trip: the first round's ack
// lands after its retry timer fired, so a superseded round's ack must
// complete the hop exactly once and silence the outstanding retries.
// When the ack lands even after the retries ran out, it must also call
// off the pending fail-safe revert.
func TestHopperCompletesOnceWithShortAckTimeout(t *testing.T) {
	for _, lat := range []time.Duration{
		200 * time.Microsecond, // round trip 400 µs > ackTimeout 300 µs
		2 * time.Millisecond,   // round trip 4 ms > 9 rounds × ackTimeout
	} {
		sim := mac.NewSim()
		h := NewHopper(sim, rand.New(rand.NewSource(25)))
		h.Link.LossProb, h.Link.Latency = 0, lat
		for i := 0; i < 10; i++ {
			completions := 0
			start, doneAt := sim.Now(), time.Duration(0)
			h.Hop(func() { completions, doneAt = completions+1, sim.Now() })
			sim.RunAll()
			if completions != 1 {
				t.Fatalf("latency %v: hop %d completed %d times, want exactly 1", lat, i, completions)
			}
			// The first round's ack completes the hop.
			if took, want := doneAt-start, 2*lat+switchTime+switchJitter; took > want {
				t.Errorf("latency %v: hop %d took %v, want ≤ %v", lat, i, took, want)
			}
		}
		if h.Announces <= 10 {
			t.Errorf("latency %v: announces = %d over 10 hops, want retransmissions before each late ack", lat, h.Announces)
		}
		if h.FailSafes != 0 || h.RevertTime != 0 {
			t.Errorf("latency %v: a late ack left %d fail-safes (%v) charged", lat, h.FailSafes, h.RevertTime)
		}
	}
}

// TestSweepRevertToDefaultBandAccounting checks the fail-safe path at the
// sweep level: reverting to the default band shows up in RevertTime, and
// the sweep still covers every band.
func TestSweepRevertToDefaultBandAccounting(t *testing.T) {
	res := runSchedule(lossyHoppers(rand.New(rand.NewSource(23)), 1, 0.85), 1)
	if res.FailSafes == 0 {
		t.Fatal("no fail-safes triggered at 85% loss")
	}
	if res.RevertTime < time.Duration(res.FailSafes)*(failSafe+switchTime) {
		t.Errorf("RevertTime = %v for %d fail-safes, want ≥ %d × (fail-safe window + retune)",
			res.RevertTime, res.FailSafes, res.FailSafes)
	}
	if res.RevertTime >= res.Duration {
		t.Errorf("RevertTime %v exceeds sweep duration %v", res.RevertTime, res.Duration)
	}
	if len(res.Slots) != len(wifi.USBands()) {
		t.Errorf("sweep did not recover all bands: %d visits", len(res.Slots))
	}
}

// TestSweepCleanLinkNoReverts pins the inverse: without losses the
// fail-safe machinery stays silent, and the sweep costs exactly its
// dwells plus one announce round trip and retune per hop.
func TestSweepCleanLinkNoReverts(t *testing.T) {
	res := runSchedule(lossyHoppers(rand.New(rand.NewSource(24)), 1, 0), 1)
	if res.FailSafes != 0 || res.RevertTime != 0 {
		t.Errorf("clean sweep reverted: failsafes=%d revert=%v", res.FailSafes, res.RevertTime)
	}
	n := len(wifi.USBands())
	if res.Announces != n-1 {
		t.Errorf("announces = %d, want one per hop (%d)", res.Announces, n-1)
	}
	hops := time.Duration(n - 1)
	min := time.Duration(n)*Dwell + hops*(switchTime+2*latency)
	if max := min + hops*switchJitter; res.Duration < min || res.Duration > max {
		t.Errorf("clean sweep = %v, want within [%v, %v]", res.Duration, min, max)
	}
}

func TestSweepDwellRespected(t *testing.T) {
	res := RunSchedule(rand.New(rand.NewSource(10)), 1, 1)
	for i, v := range res.Slots {
		if stay := v.End - v.Start; stay != Dwell {
			t.Errorf("visit %d stayed %v, want %v", i, stay, Dwell)
		}
	}
}
