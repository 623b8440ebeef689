package track

import (
	"math/rand"
	"time"

	"chronos/internal/hop"
	"chronos/internal/mac"
	"chronos/internal/wifi"
)

// SchedulerConfig tunes the multi-client session scheduler.
type SchedulerConfig struct {
	// Hop carries the per-band protocol timing (dwell, switch, timeouts).
	Hop hop.Config
	// Bands is the sweep plan per device (default: all 35 U.S. bands).
	Bands []wifi.Band
	// Devices is the number of concurrent tracked devices (default 1).
	Devices int
	// SweepsPerDevice is how many full sweeps each device completes
	// before the schedule ends (default 1).
	SweepsPerDevice int
}

func (c SchedulerConfig) withDefaults() SchedulerConfig {
	if c.Bands == nil {
		c.Bands = wifi.USBands()
	}
	if c.Devices == 0 {
		c.Devices = 1
	}
	if c.SweepsPerDevice == 0 {
		c.SweepsPerDevice = 1
	}
	return c
}

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
	RevertTime     time.Duration
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

// RunSchedule interleaves band-hopping sweeps across N concurrent devices
// on one virtual timeline. The anchor (AP) has a single radio, so slots
// serialize through it: each round-robin turn serves one device for one
// band dwell, then hops that device pair to its next band; turning to a
// different device costs the anchor a retune onto that device's current
// band. With one device the schedule degenerates to hop.Sweep's timing.
//
// All randomness (losses, jitter) is drawn from rng, and execution is
// strictly sequential on the simulator, so a seed reproduces the schedule
// exactly regardless of where it runs.
func RunSchedule(rng *rand.Rand, cfg SchedulerConfig) *Schedule {
	cfg = cfg.withDefaults()
	sim := mac.NewSim()
	hoppers := make([]*hop.Hopper, cfg.Devices)
	for i := range hoppers {
		hoppers[i] = hop.NewHopper(sim, rng, cfg.Hop)
	}
	hcfg := hoppers[0].Cfg

	res := &Schedule{}
	pos := make([]int, cfg.Devices)    // next band index in the current sweep
	sweeps := make([]int, cfg.Devices) // completed sweeps
	sweepStart := make([]time.Duration, cfg.Devices)
	var totalDwell time.Duration
	lastDevice := -1

	// next picks the following unfinished device in round-robin order.
	next := func(after int) int {
		for k := 1; k <= cfg.Devices; k++ {
			d := (after + k) % cfg.Devices
			if sweeps[d] < cfg.SweepsPerDevice {
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
		sim.Schedule(hcfg.Dwell, func() {
			totalDwell += hcfg.Dwell
			res.Slots = append(res.Slots, Slot{Device: d, Band: cfg.Bands[pos[d]], Start: start, End: sim.Now()})
			pos[d]++
			if pos[d] == len(cfg.Bands) {
				res.Fixes = append(res.Fixes, FixEvent{Device: d, At: sim.Now(), Latency: sim.Now() - sweepStart[d]})
				sweeps[d]++
				pos[d] = 0
			}
			if sweeps[d] < cfg.SweepsPerDevice {
				// Hop this pair to its next band (or back to the first
				// band for its next sweep) before the anchor turns away.
				hoppers[d].Hop(func(retries, failsafes int) { advance(d) })
			} else {
				advance(d)
			}
		})
	}
	beginSlot = func(d int) {
		if lastDevice != d && lastDevice >= 0 {
			// The anchor retunes onto this device's current band, at the
			// same retune cost the hop protocol charges.
			sim.Schedule(hoppers[d].SwitchDelay(), func() { dwell(d) })
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
