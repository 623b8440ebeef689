package drone

import (
	"math/rand"

	"chronos/internal/csi"
	"chronos/internal/geo"
	"chronos/internal/rf"
	"chronos/internal/tof"
	"chronos/internal/wifi"
)

// PipelineSensor is the drone's RangeSensor, backed by the complete
// Chronos time-of-flight pipeline: every Range call rebuilds the
// multipath channel for the current drone/user geometry, sweeps the
// 5 GHz bands through the simulated radios, and runs the full estimator
// (§9). It is not safe for concurrent use: each flight builds its own.
type PipelineSensor struct {
	Link  *csi.Link
	Est   *tof.Estimator
	Bands []wifi.Band

	env  *rf.Environment // the §12.4 room
	cal  tof.Calibration // the pair's hardware offset
	last float64         // the last measured range, reported when a sweep fails
}

// pairsPerBand is the CSI pairs a Range sweep collects per band.
const pairsPerBand = 2

// NewPipelineSensor wires fresh radios and a 5 GHz estimator in the
// §12.4 room and calibrates them at a known 2 m reference geometry, which
// also seeds the last measured range.
func NewPipelineSensor(rng *rand.Rand) (*PipelineSensor, error) {
	tx, rx := csi.NewRadio(rng), csi.NewRadio(rng)
	tx.Quirk24, rx.Quirk24 = false, false
	s := &PipelineSensor{
		Link:  &csi.Link{TX: tx, RX: rx, SNRdB: 28},
		Est:   tof.NewEstimator(tof.Config{Mode: tof.Bands5GHzOnly, MaxIter: 800}),
		Bands: wifi.Bands5GHz(),
		env:   room(),
	}
	// Calibration at a marked 2 m spot in the room.
	a, b := geo.Point{X: 1, Y: 1}, geo.Point{X: 3, Y: 1}
	s.setChannel(a, b)
	sweep := s.Link.Sweep(rng, s.Bands, 3)
	cal, err := s.Est.Calibrate(s.Bands, sweep, a.Dist(b))
	if err != nil {
		return nil, err
	}
	s.cal, s.last = cal, a.Dist(b)
	return s, nil
}

func (s *PipelineSensor) setChannel(pos, target geo.Point) {
	s.Link.Channel = rf.GenerateChannel(s.env, pos, target, false)
}

// Range implements RangeSensor via a full band sweep and inversion.
func (s *PipelineSensor) Range(rng *rand.Rand, pos, target geo.Point) float64 {
	s.setChannel(pos, target)
	sweep := s.Link.Sweep(rng, s.Bands, pairsPerBand)
	r, err := s.Est.Estimate(s.Bands, sweep)
	if err != nil {
		// A failed sweep (e.g. all bands faded) repeats the last
		// measured range; the controller's median filter absorbs it.
		return s.last
	}
	s.last = s.cal.Range(r)
	return s.last
}

// room builds the §12.4 motion-capture room as an rf.Environment: a
// RoomW × RoomH space with reflective walls.
func room() *rf.Environment {
	return &rf.Environment{Walls: rf.Rectangle(0, 0, RoomW, RoomH, 0.55)}
}
