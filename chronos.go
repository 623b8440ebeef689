// Package chronos is a Go reproduction of "Sub-Nanosecond Time of Flight
// on Commercial Wi-Fi Cards" (Vasisht, Kumar, Katabi): a complete
// implementation of the Chronos time-of-flight and device-to-device
// localization system, together with the simulated Wi-Fi substrate (CSI
// measurement, multipath propagation, channel hopping, network and drone
// models) its evaluation requires.
//
// The package re-exports the library's primary types so applications can
// depend on a single import:
//
//	est := chronos.NewToFEstimator(chronos.ToFConfig{})
//	cal, err := est.Calibrate(bands, calSweep, knownDistance) // once per pair
//	result, err := est.Estimate(bands, sweep)
//	meters := cal.Range(result)
//
// The package's examples walk through ranging (MeasureDistance), §8
// localization (Localizer.LocateArray), streaming tracking
// (RunTrackSession), the single-anchor capacity schedule and a sweep's
// effect on AP traffic (HopSweep), the localization service
// (NewService) and the §9 drone (DroneTrack), each with its output
// pinned. cmd/chronos-bench regenerates every figure of the evaluation,
// and cmd/chronos-svc runs the service as a daemon.
package chronos

import (
	"math/rand"

	"chronos/internal/csi"
	"chronos/internal/drone"
	"chronos/internal/geo"
	"chronos/internal/hop"
	"chronos/internal/loc"
	"chronos/internal/ndft"
	"chronos/internal/obs"
	"chronos/internal/rf"
	"chronos/internal/sim"
	"chronos/internal/svc"
	"chronos/internal/tof"
	"chronos/internal/track"
	"chronos/internal/wifi"
)

// SpeedOfLight converts time of flight to distance (m/s).
const SpeedOfLight = wifi.SpeedOfLight

// Band identifies one Wi-Fi frequency band (channel number + center).
type Band = wifi.Band

// USBands returns the 35 U.S. Wi-Fi bands the paper sweeps.
func USBands() []Band { return wifi.USBands() }

// Bands5GHz returns the 5 GHz subset (quirk-free CSI).
func Bands5GHz() []Band { return wifi.Bands5GHz() }

// Bands24GHz returns the 2.4 GHz subset.
func Bands24GHz() []Band { return wifi.Bands24GHz() }

// ToFConfig configures the time-of-flight estimator. The zero value gives
// the paper's pipeline over a 35-band sweep: the fix is read off the 24
// 5 GHz bands folded in h̃², with spline zero-subcarrier interpolation and
// CFO cancellation. The 2.4 GHz bands, whose phase the Intel 5300's quirk
// corrupts (NewRadio's default), are not folded; Bands24Only with Quirk24
// folds them in h̃⁸, the paper's workaround for that quirk.
type ToFConfig = tof.Config

// Band-mode selectors for ToFConfig.Mode.
const (
	BandsFused       = tof.BandsFused
	Bands5GHzOnly    = tof.Bands5GHzOnly
	Bands24Only      = tof.Bands24Only
	BandsAllCoherent = tof.BandsAllCoherent
)

// SolverPlan is a precomputed NDFT solver plan for one band geometry:
// the planar dictionary, step constants, and pooled scratch behind
// every profile inversion. Estimators resolve plans from the shared
// registry automatically; construct one directly only to drive the
// solver itself (service daemons, benchmarks).
type SolverPlan = ndft.Plan

// SolveRequest is one inversion request against a SolverPlan: the
// measurement vector, an optional recycled result, and the solver
// options. Every solve starts from a zero profile.
type SolveRequest = ndft.SolveRequest

// SolveResult is one inversion's output (profile, residual, telemetry).
type SolveResult = ndft.Result

// SolveOptions tunes one profile inversion (Algorithm 1 of §6).
type SolveOptions = ndft.InvertOptions

// NewSolverPlan precomputes a solver plan for the given measurement
// frequencies and delay grid (see SolverTauGrid).
func NewSolverPlan(freqs, taus []float64) (*SolverPlan, error) { return ndft.NewPlan(freqs, taus) }

// SolverTauGrid builds the uniform delay grid [0, maxTau] at the given
// step — the profile domain a plan inverts onto.
func SolverTauGrid(maxTau, step float64) []float64 { return ndft.TauGrid(maxTau, step) }

// VectorKernel reports the kernel tier the solver detected for this
// machine and build: "avx2" or "scalar". The AVX2 tier is
// byte-identical to scalar solving — the tiers differ only in
// throughput.
func VectorKernel() string { return ndft.VectorKernel() }

// PlanRegistryStats is a snapshot of the shared NDFT plan registry's
// occupancy (resident plans, LRU bound, builds, evictions, bytes).
type PlanRegistryStats = tof.RegistryStats

// SharedPlanRegistryStats reports the process-wide plan registry every
// estimator resolves solver plans from — the observability surface for
// long-running services sweeping many estimator configurations.
func SharedPlanRegistryStats() PlanRegistryStats { return tof.SharedRegistryStats() }

// ObsSnapshot is one point-in-time rendering of the process-wide
// observability layer: pipeline counters (solve requests, fixes, hop
// events), derived gauges (fix rate, cap rate, registry occupancy), and
// stage-latency histograms with p50/p95/p99.
type ObsSnapshot = obs.Snapshot

// SetObsEnabled turns metric recording on or off. Off (the default)
// every instrumentation point costs a single atomic load, and the
// instrumented hot paths stay 0 allocs/op either way.
func SetObsEnabled(on bool) { obs.SetEnabled(on) }

// CaptureObs renders every registered metric into a snapshot.
func CaptureObs() *ObsSnapshot { return obs.Capture() }

// ToFEstimator turns CSI band sweeps into sub-nanosecond time-of-flight
// estimates (§4–§7 of the paper).
type ToFEstimator = tof.Estimator

// ToFEstimate is one estimation result (ToF, multipath profile).
type ToFEstimate = tof.Estimate

// NewToFEstimator builds an estimator.
func NewToFEstimator(cfg ToFConfig) *ToFEstimator { return tof.NewEstimator(cfg) }

// ToFCalibration is a device pair's constant hardware offset (§7),
// measured once at a known distance by ToFEstimator.Calibrate. Its Range
// turns an estimate into the pair's calibrated range, clamped at zero.
type ToFCalibration = tof.Calibration

// Radio is a simulated Intel 5300-class Wi-Fi front end.
type Radio = csi.Radio

// NewRadio draws a radio with paper-calibrated impairments (detection
// delay, residual CFO, the 2.4 GHz phase quirk, 8-bit CSI quantization).
func NewRadio(rng *rand.Rand) *Radio { return csi.NewRadio(rng) }

// Link couples two radios over a reciprocal multipath channel and
// produces the forward/reverse CSI pairs of the §4 hopping protocol.
type Link = csi.Link

// CSIPair is a forward/reverse CSI measurement pair (§7).
type CSIPair = csi.Pair

// MeasureOptions controls one simulated CSI capture.
type MeasureOptions = csi.MeasureOptions

// ArrayLink couples a single-antenna transmitter with a multi-chain
// receiver card for §8 localization (shared-packet CSI across chains).
type ArrayLink = csi.ArrayLink

// Channel is a sparse multipath channel h(f) = Σ aₖ·e^{−j2πfτₖ}.
type Channel = rf.Channel

// Path is one propagation path (delay, amplitude).
type Path = rf.Path

// NewChannel builds a channel from paths, sorted by delay.
func NewChannel(paths []Path) *Channel { return rf.NewChannel(paths) }

// Point is a 2D position in meters.
type Point = geo.Point

// Array is a rigid antenna array.
type Array = geo.Array

// LinearArray builds n antennas spaced sep meters apart (§12.2 uses
// 3 antennas at 30 cm for clients and 100 cm for AP-style receivers).
func LinearArray(n int, sep float64) Array { return geo.LinearArray(n, sep) }

// TriangleArray builds three non-collinear antennas with the given side
// length — the geometry §8 needs for an unambiguous three-circle fix.
func TriangleArray(side float64) Array { return geo.TriangleArray(side) }

// Localizer performs §8 device-to-device localization from per-antenna
// time-of-flight.
type Localizer = loc.Localizer

// Fix is one localization result.
type Fix = loc.Fix

// NewLocalizer builds a localizer over an antenna array.
func NewLocalizer(array Array, cfg ToFConfig) *Localizer { return loc.NewLocalizer(array, cfg) }

// Office is the simulated 20 m × 20 m evaluation floor of §12.
type Office = sim.Office

// Placement is one TX/RX placement on the floor.
type Placement = sim.Placement

// AntennaPlacement places a single-antenna transmitter and a receive
// array on the floor; Office.AntennaChannels renders one channel per
// receive antenna from it.
type AntennaPlacement = sim.AntennaPlacement

// NewOffice generates a floor plan deterministically from rng.
func NewOffice(rng *rand.Rand) *Office { return sim.NewOffice(rng, sim.OfficeConfig{}) }

// HopSchedule is one run of the §4 hop protocol: its band slots, fixes,
// airtime and fix-capacity metrics.
type HopSchedule = hop.Schedule

// HopSweep runs the §4 hop protocol's band sweeps in virtual time:
// sweeps full sweeps for each of devices concurrent devices, served by
// the anchor's single radio. One device and one sweep is the lone sweep
// whose duration Fig. 9a measures.
func HopSweep(rng *rand.Rand, devices, sweeps int) *HopSchedule {
	return hop.RunSchedule(rng, devices, sweeps)
}

// DroneTrack runs the §9 personal-drone distance-keeping simulation for
// duration seconds: the drone holds 1.4 m to a user walking the 6 m ×
// 5 m room, at the 12 Hz sweep rate.
func DroneTrack(rng *rand.Rand, sensor drone.RangeSensor, duration float64) *drone.TrackResult {
	return drone.Track(rng, sensor, duration)
}

// DroneSensor ranges the drone to the user with the full Chronos
// pipeline: a 5 GHz band sweep over the room's multipath channel and the
// time-of-flight estimator, per control tick.
type DroneSensor = drone.PipelineSensor

// NewDroneSensor builds a calibrated DroneSensor from rng in the room
// DroneTrack flies in.
func NewDroneSensor(rng *rand.Rand) (*DroneSensor, error) {
	return drone.NewPipelineSensor(rng)
}

// ToFSweep is the incremental estimation core: CSI folds in band by band
// as a sweep streams in, and a (possibly early, degraded) fix can be
// requested at any point. Obtain one from ToFEstimator.NewSweep.
type ToFSweep = tof.Sweep

// RangeTracker smooths a stream of scalar range fixes with outlier gating.
type RangeTracker = track.RangeTracker

// NewRangeTracker builds a range tracker.
func NewRangeTracker() *RangeTracker { return track.NewRangeTracker() }

// TrackSessionConfig tunes one full-pipeline streaming tracking session.
type TrackSessionConfig = track.SessionConfig

// TrackFix is one streamed tracking output (raw + smoothed range).
type TrackFix = track.Fix

// TrackSessionResult is a streaming session's output.
type TrackSessionResult = track.SessionResult

// RunTrackSession streams band sweeps over a moving target in the office
// through the incremental estimator and a Kalman range tracker.
func RunTrackSession(rng *rand.Rand, office *Office, est *ToFEstimator, cfg TrackSessionConfig) (*TrackSessionResult, error) {
	return track.RunSession(rng, office, est, cfg)
}

// Service is the always-on localization daemon: N worker shards, each
// exclusively owning the sessions of the devices that hash to it and
// pacing their sweeps on its own mac.Sim event queue, and the obs layer
// as its management surface. Attach/Detach manage the fleet; Drain
// stops it gracefully.
type Service = svc.Daemon

// ServiceConfig tunes a service daemon (shard count, virtual vs wall
// time, and the size of the solve pool that runs every sweep's solve
// with latency/bulk classes).
type ServiceConfig = svc.Config

// ServiceDeviceConfig describes one device attached to the service: a
// full CSI→solve→Kalman pipeline session in the service's office.
type ServiceDeviceConfig = svc.DeviceConfig

// ServiceDeviceResult is one retired device's outcome (at completion,
// detach, or drain).
type ServiceDeviceResult = svc.DeviceResult

// NewService builds and starts a localization daemon; stop it with
// Drain.
func NewService(cfg ServiceConfig) *Service { return svc.NewDaemon(cfg) }

// SetSharedPlanCap rebounds the shared solver-plan registry's LRU limit
// (0 restores the default) and returns the previous bound — an
// operational memory lever for long-running services.
func SetSharedPlanCap(maxPlans int) int { return tof.SetSharedPlanCap(maxPlans) }

// MeasureDistance is the quickstart helper: it sweeps the bands over the
// link, rendering those the estimator folds, runs the faithful
// estimator, and returns the fix's cal.Range in meters (the zero
// calibration keeps the hardware delays in).
func MeasureDistance(rng *rand.Rand, link *Link, est *ToFEstimator, bands []Band, cal ToFCalibration) (float64, error) {
	sweep := link.SweepRendering(rng, bands, 3, est.Config().Folds)
	r, err := est.Estimate(bands, sweep)
	if err != nil {
		return 0, err
	}
	return cal.Range(r), nil
}
