package hop

import (
	"math/rand"
	"time"

	"chronos/internal/mac"
	"chronos/internal/wifi"
)

// Slot is one device's stay on one band within the interleaved schedule.
type Slot struct {
	Device     int
	Band       wifi.Band
	Start, End time.Duration
}

// FixEvent marks one device completing a full band sweep: the moment a
// position fix becomes available to the incremental estimator.
type FixEvent struct {
	Device int
	At     time.Duration
	// Latency is the time from the sweep's first dwell to the fix —
	// under contention it includes the slots spent serving other devices.
	Latency time.Duration
}

// Schedule is the outcome of one interleaved multi-device run.
type Schedule struct {
	Duration time.Duration
	Slots    []Slot
	Fixes    []FixEvent // in completion order
	// Utilization is the fraction of the timeline spent exchanging CSI
	// (dwell time); the rest is retunes, control frames, and fail-safes.
	Utilization float64
	// FixesPerSecond is the aggregate fix throughput across all devices.
	FixesPerSecond float64
	Announces      int
	FailSafes      int
	// RevertTime is the total virtual time lost to fail-safe reverts: the
	// silence window plus the retune back to the default band before the
	// announcement restarts there.
	RevertTime time.Duration
}

// MeanFixLatency averages the per-sweep fix latency across all fixes.
func (s *Schedule) MeanFixLatency() time.Duration {
	if len(s.Fixes) == 0 {
		return 0
	}
	var sum time.Duration
	for _, f := range s.Fixes {
		sum += f.Latency
	}
	return sum / time.Duration(len(s.Fixes))
}

// RunSchedule runs sweeps full sweeps over the 35 U.S. bands for each of
// devices concurrent devices on one virtual timeline. The anchor (AP)
// has a single radio, so slots serialize through it: each round-robin
// turn serves one device for one band dwell, then hops that device pair
// to its next band; turning to a different device costs the anchor a
// retune onto that device's current band. One device and one sweep is
// the lone sweep of Fig. 9a. A count below one runs nothing.
//
// All randomness (losses, jitter) is drawn from rng, and execution is
// strictly sequential on the simulator, so a seed reproduces the schedule
// exactly regardless of where it runs.
func RunSchedule(rng *rand.Rand, devices, sweeps int) *Schedule {
	if devices < 1 || sweeps < 1 {
		return &Schedule{}
	}
	sim := mac.NewSim()
	hoppers := make([]*Hopper, devices)
	for i := range hoppers {
		hoppers[i] = NewHopper(sim, rng)
	}
	return runSchedule(hoppers, sweeps)
}

// runSchedule is RunSchedule's driver over prebuilt hoppers, one per
// device, all on one simulator.
func runSchedule(hoppers []*Hopper, sweeps int) *Schedule {
	sim := hoppers[0].Sim
	bands := wifi.USBands()
	devices := len(hoppers)

	res := &Schedule{}
	pos := make([]int, devices)       // next band index in the current sweep
	completed := make([]int, devices) // completed sweeps
	sweepStart := make([]time.Duration, devices)
	var totalDwell time.Duration
	lastDevice := -1

	// next picks the following unfinished device in round-robin order.
	next := func(after int) int {
		for k := 1; k <= devices; k++ {
			d := (after + k) % devices
			if completed[d] < sweeps {
				return d
			}
		}
		return -1
	}

	var beginSlot func(d int)
	advance := func(d int) {
		lastDevice = d
		if n := next(d); n >= 0 {
			beginSlot(n)
		}
	}
	dwell := func(d int) {
		if pos[d] == 0 {
			sweepStart[d] = sim.Now()
		}
		start := sim.Now()
		sim.Schedule(Dwell, func() {
			totalDwell += Dwell
			res.Slots = append(res.Slots, Slot{Device: d, Band: bands[pos[d]], Start: start, End: sim.Now()})
			pos[d]++
			if pos[d] == len(bands) {
				fix := FixEvent{Device: d, At: sim.Now(), Latency: sim.Now() - sweepStart[d]}
				res.Fixes = append(res.Fixes, fix)
				obsSweepNs.Observe(float64(fix.Latency))
				completed[d]++
				pos[d] = 0
			}
			if completed[d] < sweeps {
				// Hop this pair to its next band (or back to the first
				// band for its next sweep) before the anchor turns away.
				hoppers[d].Hop(func() { advance(d) })
			} else {
				advance(d)
			}
		})
	}
	beginSlot = func(d int) {
		if lastDevice != d && lastDevice >= 0 {
			// The anchor retunes onto this device's current band, at the
			// same retune cost the hop protocol charges.
			sim.Schedule(hoppers[d].switchDelay(), func() { dwell(d) })
			return
		}
		dwell(d)
	}

	beginSlot(0)
	sim.RunAll()

	res.Duration = sim.Now()
	for _, h := range hoppers {
		res.Announces += h.Announces
		res.FailSafes += h.FailSafes
		res.RevertTime += h.RevertTime
	}
	if res.Duration > 0 {
		res.Utilization = totalDwell.Seconds() / res.Duration.Seconds()
		res.FixesPerSecond = float64(len(res.Fixes)) / res.Duration.Seconds()
	}
	return res
}
