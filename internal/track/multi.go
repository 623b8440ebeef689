package track

import (
	"math"
	"math/rand"

	"chronos/internal/drone"
	"chronos/internal/geo"
)

// MultiConfig tunes a multi-device tracking run: the scheduler interleaves
// sweeps across N device pairs, and each device's fixes are drawn from the
// empirical Chronos range-error model (drone.StatSensor) at the virtual
// instants the schedule makes them available, then Kalman-smoothed with
// the default filter. This is the capacity-scale counterpart of
// RunSession: protocol timing is exact, ranging error is statistical.
type MultiConfig struct {
	Scheduler SchedulerConfig
	// Speed is each target's walking speed in m/s (0 = static targets).
	Speed float64
}

// multiRoomW and multiRoomH bound each RunMulti target's walk, in meters.
const multiRoomW, multiRoomH = 12.0, 10.0

// DeviceTrack is one device's smoothed trajectory over the schedule.
type DeviceTrack struct {
	Device                int
	Fixes                 []Fix
	RawRMSE, SmoothedRMSE float64
	Rejected              int
}

// MultiResult combines the schedule's capacity metrics with the
// per-device tracking error they imply.
type MultiResult struct {
	Schedule *Schedule
	Devices  []DeviceTrack
}

// RunMulti runs the interleaved schedule and replays its fix events
// through per-device walks, sensors, and Kalman trackers. Each device
// walks independently; fix staleness under contention (fewer fixes per
// second as N grows) directly inflates its tracking error. Full-pipeline
// devices that range concurrently run through svc.Daemon instead.
func RunMulti(rng *rand.Rand, cfg MultiConfig) *MultiResult {
	sched := RunSchedule(rng, cfg.Scheduler)
	n := cfg.Scheduler.withDefaults().Devices

	anchor := geo.Point{}
	walks := make([]*drone.Walk, n)
	trackers := make([]*RangeTracker, n)
	walkedTo := make([]float64, n)
	for d := 0; d < n; d++ {
		walks[d] = drone.NewWalk(rng, multiRoomW, multiRoomH)
		walks[d].Speed = cfg.Speed
		trackers[d] = NewRangeTracker()
	}

	out := &MultiResult{Schedule: sched, Devices: make([]DeviceTrack, n)}
	for d := range out.Devices {
		out.Devices[d].Device = d
	}
	rawSq := make([]float64, n)
	smoothSq := make([]float64, n)

	// Fix events are already in completion order; walks advance lazily to
	// each device's fix instants.
	for _, fe := range sched.Fixes {
		d := fe.Device
		if t := fe.At.Seconds(); t > walkedTo[d] {
			walks[d].Advance(t - walkedTo[d])
			walkedTo[d] = t
		}
		pos := walks[d].Pos()
		truth := anchor.Dist(pos)
		meas := drone.StatSensor{}.Range(rng, anchor, pos)
		smoothed, accepted := trackers[d].Observe(fe.At, meas)
		recordFix(int64(fe.Latency), accepted, true)
		out.Devices[d].Fixes = append(out.Devices[d].Fixes, Fix{
			Device: d, At: fe.At, Latency: fe.Latency,
			Range: meas, Smoothed: smoothed, TrueRange: truth, Accepted: accepted,
		})
		rawSq[d] += float64((meas - truth) * (meas - truth))
		smoothSq[d] += float64((smoothed - truth) * (smoothed - truth))
	}

	for d := range out.Devices {
		dt := &out.Devices[d]
		dt.Rejected = trackers[d].Rejected
		if k := float64(len(dt.Fixes)); k > 0 {
			dt.RawRMSE = math.Sqrt(rawSq[d] / k)
			dt.SmoothedRMSE = math.Sqrt(smoothSq[d] / k)
		} else {
			dt.RawRMSE, dt.SmoothedRMSE = math.NaN(), math.NaN()
		}
	}
	return out
}
