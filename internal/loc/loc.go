// Package loc is the §8 device-to-device localization engine: it runs the
// time-of-flight estimator once per receive antenna, turns each
// antenna's ToF into a distance through that chain's calibration,
// rejects geometrically inconsistent estimates, and solves
// for the transmitter position relative to the receiver's antenna array
// by least squares.
package loc

import (
	"errors"
	"fmt"
	"math/rand"

	"chronos/internal/csi"
	"chronos/internal/geo"
	"chronos/internal/tof"
	"chronos/internal/wifi"
)

// Localizer estimates a transmitter's position relative to a rigid
// receive antenna array.
type Localizer struct {
	Array geo.Array
	// Est is the ToF estimator every antenna's sweep runs through.
	Est *tof.Estimator
	// Cals holds each antenna chain's calibration (its hardware chain
	// delays, §7 observation 2), index-aligned with Array.Antennas;
	// CalibrateArray measures them.
	Cals []tof.Calibration
}

// outlierSlack is the extra tolerance (meters) in the geometric
// consistency check: 0.45 m ≈ 1.5 ns of ToF error.
const outlierSlack = 0.45

// NewLocalizer builds an uncalibrated localizer for the given array,
// with one estimator from cfg.
func NewLocalizer(array geo.Array, cfg tof.Config) *Localizer {
	return &Localizer{Array: array, Est: tof.NewEstimator(cfg), Cals: make([]tof.Calibration, len(array.Antennas))}
}

// ErrAntennaCount reports a sweep count that does not match the array.
var ErrAntennaCount = errors.New("loc: sweep count does not match antenna count")

// Fix is one localization result.
type Fix struct {
	Position geo.Point // least-squares position in the array's frame
	// Candidates holds both solutions when only two usable distances
	// remained (mirror ambiguity, §8); otherwise nil.
	Candidates []geo.Point
	// Distances are the per-antenna distance estimates that survived
	// outlier rejection, index-aligned with KeptAntennas.
	Distances    []float64
	KeptAntennas []int
	DroppedCount int
}

// LocateArray runs §8 localization over a shared-packet array sweep
// (csi.ArrayLink): sweeps[i] holds antenna i's CSI pairs, each the
// product of antenna i's forward measurement (one packet shared by all
// chains) with the round-robin reverse measurement over antenna i's own
// channel. Each antenna therefore yields a clean per-antenna distance.
// Because all chains share each forward packet's detection delay and
// CFO, antenna-differential errors stay well below the absolute ones —
// the property that makes 30 cm baselines usable at room scale.
func (l *Localizer) LocateArray(bands []wifi.Band, sweeps [][][]csi.Pair) (*Fix, error) {
	if len(sweeps) != len(l.Array.Antennas) {
		return nil, fmt.Errorf("%w: %d sweeps, %d antennas", ErrAntennaCount, len(sweeps), len(l.Array.Antennas))
	}
	circles := make([]geo.Circle, 0, len(sweeps))
	idx := make([]int, 0, len(sweeps))
	for i, sweep := range sweeps {
		est, err := l.Est.Estimate(bands, sweep)
		if err != nil {
			continue
		}
		circles = append(circles, geo.Circle{Center: l.Array.Antennas[i], Radius: l.Cals[i].Range(est)})
		idx = append(idx, i)
	}
	if len(circles) < 2 {
		return nil, errors.New("loc: fewer than two usable antenna distances")
	}
	return l.solve(circles, idx)
}

// solve applies outlier rejection and least squares to distance circles.
func (l *Localizer) solve(circles []geo.Circle, idx []int) (*Fix, error) {
	kept := geo.RejectOutliers(circles, outlierSlack)
	keptCircles := make([]geo.Circle, len(kept))
	keptIdx := make([]int, len(kept))
	for i, k := range kept {
		keptCircles[i] = circles[k]
		keptIdx[i] = idx[k]
	}
	pos, amb, err := geo.Trilaterate(keptCircles)
	if err != nil {
		return nil, err
	}
	if len(amb) == 2 && len(circles) > len(keptCircles) {
		// Two-circle mirror ambiguity after dropping an outlier: the
		// dropped circle is noisy but still carries enough signal to
		// pick a side. Choose the candidate with the smaller total
		// residual over every original circle.
		score := func(p geo.Point) float64 {
			var s float64
			for _, c := range circles {
				r := p.Dist(c.Center) - c.Radius
				s += r * r
			}
			return s
		}
		if score(amb[1]) < score(amb[0]) {
			pos = amb[1]
		} else {
			pos = amb[0]
		}
	}
	fix := &Fix{
		Position:     pos,
		Candidates:   amb,
		KeptAntennas: keptIdx,
		DroppedCount: len(circles) - len(keptCircles),
	}
	for _, c := range keptCircles {
		fix.Distances = append(fix.Distances, c.Radius)
	}
	return fix, nil
}

// CalibrateArray measures the per-chain calibrations of a shared-packet
// array link at a known geometry from one 3-pair sweep: trueDist[i] is
// the laser-measured distance from the transmitter to antenna i.
func (l *Localizer) CalibrateArray(rng *rand.Rand, bands []wifi.Band, link *csi.ArrayLink, trueDist []float64) error {
	if len(trueDist) != len(l.Cals) || len(link.Channels) != len(l.Cals) {
		return errors.New("loc: calibration inputs do not match antenna count")
	}
	sweeps := link.Sweep(rng, bands, 3)
	for i := range l.Cals {
		cal, err := l.Est.Calibrate(bands, sweeps[i], trueDist[i])
		if err != nil {
			return fmt.Errorf("loc: calibrating antenna %d: %w", i, err)
		}
		l.Cals[i] = cal
	}
	return nil
}
