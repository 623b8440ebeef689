package drone

import (
	"math/rand"

	"chronos/internal/csi"
	"chronos/internal/geo"
	"chronos/internal/rf"
	"chronos/internal/tof"
	"chronos/internal/wifi"
)

// PipelineSensor is a RangeSensor backed by the complete Chronos
// time-of-flight pipeline: every Range call rebuilds the multipath
// channel for the current drone/user geometry, sweeps the Wi-Fi bands
// through the simulated radios, and runs the full estimator. It is what
// the real drone runs (§9); StatSensor is its fast statistical stand-in
// for large campaigns.
type PipelineSensor struct {
	Env    *rf.Environment
	Link   *csi.Link
	Est    *tof.Estimator
	Bands  []wifi.Band
	Offset float64 // calibration offset in seconds (hardware delays)
}

// pairsPerBand is the CSI pairs a Range sweep collects per band.
const pairsPerBand = 2

// NewPipelineSensor wires fresh radios and a 5 GHz estimator over the
// given environment (the §12.4 room) and calibrates them at a known
// 2 m reference geometry.
func NewPipelineSensor(rng *rand.Rand, env *rf.Environment) (*PipelineSensor, error) {
	tx, rx := csi.NewRadio(rng), csi.NewRadio(rng)
	tx.Quirk24, rx.Quirk24 = false, false
	s := &PipelineSensor{
		Env:   env,
		Link:  &csi.Link{TX: tx, RX: rx, SNRdB: 28},
		Est:   tof.NewEstimator(tof.Config{Mode: tof.Bands5GHzOnly, MaxIter: 800}),
		Bands: wifi.Bands5GHz(),
	}
	// Calibration at a marked 2 m spot in the room.
	a, b := geo.Point{X: 1, Y: 1}, geo.Point{X: 3, Y: 1}
	s.setChannel(a, b)
	sweep := s.Link.Sweep(rng, s.Bands, 3, 2.4e-3)
	off, err := tof.Calibrate(s.Est, s.Bands, sweep, a.Dist(b))
	if err != nil {
		return nil, err
	}
	s.Offset = off
	return s, nil
}

func (s *PipelineSensor) setChannel(pos, target geo.Point) {
	s.Link.Channel = rf.GenerateChannel(s.Env,
		rf.Point2{X: pos.X, Y: pos.Y},
		rf.Point2{X: target.X, Y: target.Y},
		rf.PropagationOptions{Freq: 5.5e9, MinGain: 0.15, MaxPaths: 6})
}

// Range implements RangeSensor via a full band sweep and inversion.
func (s *PipelineSensor) Range(rng *rand.Rand, pos, target geo.Point) float64 {
	s.setChannel(pos, target)
	sweep := s.Link.Sweep(rng, s.Bands, pairsPerBand, 2.4e-3)
	r, err := s.Est.Estimate(s.Bands, sweep)
	if err != nil {
		// A failed sweep (e.g. all bands faded) reports the last-known
		// geometry as a crude fallback; the controller's median filter
		// absorbs it.
		return pos.Dist(target)
	}
	d := (r.ToF - s.Offset) * wifi.SpeedOfLight
	if d < 0 {
		d = 0
	}
	return d
}

// Room builds the §12.4 motion-capture room as an rf.Environment: a
// 6 m × 5 m space with reflective walls.
func Room(w, h float64) *rf.Environment {
	return &rf.Environment{Walls: rf.Rectangle(0, 0, w, h, 0.55)}
}
