// Package sim builds the evaluation scenarios of §12: a 20 m × 20 m
// office floor with walls, metal cabinets and furniture scatterers, 30
// candidate device locations, and line-of-sight / non-line-of-sight
// placement pairs. It glues the rf propagation model to the csi
// measurement layer so experiments can draw complete device-pair links
// with one call.
package sim

import (
	"math"
	"math/rand"

	"chronos/internal/csi"
	"chronos/internal/geo"
	"chronos/internal/rf"
	"chronos/internal/wifi"
)

// Office is one instantiated floor plan with candidate device locations.
type Office struct {
	Env       *rf.Environment
	Locations []geo.Point // candidate device positions (blue dots of Fig. 6)
	Width     float64
	Height    float64
}

// OfficeConfig is NewOffice's floor-plan argument. It has no fields:
// every office is the §12 testbed's floor, whose dimensions and
// propagation constants follow.
type OfficeConfig struct{}

// The testbed floor: a 20 m × 20 m office with 30 candidate device
// spots at least 1.5 m apart, 3 interior walls and 10 furniture/cabinet
// scatterers. Its propagation constants are rf's.
const (
	officeWidth, officeHeight = 20.0, 20.0
	officeLocations           = 30
	officeScatterers          = 10
	officeInternalWalls       = 3
	minPlacementGap           = 1.5
	wallLoss                  = 0.55 // reflection amplitude loss of the outer walls
	// baseSNRdB is the link budget's per-subcarrier CSI SNR at 1 m in
	// line of sight (see LinkSNR).
	baseSNRdB float64 = 28
)

// NewOffice generates a floor plan. All randomness comes from rng, so a
// fixed seed reproduces the testbed exactly.
func NewOffice(rng *rand.Rand, _ OfficeConfig) *Office {
	walls := rf.Rectangle(0, 0, officeWidth, officeHeight, wallLoss)

	// Interior walls: horizontal or vertical segments (office partitions,
	// metal cabinets) with slightly higher reflectivity.
	for i := 0; i < officeInternalWalls; i++ {
		x := 2 + rng.Float64()*(officeWidth-4)
		y := 2 + rng.Float64()*(officeHeight-4)
		length := 2 + rng.Float64()*4
		if i%2 == 0 {
			walls = append(walls, rf.Wall{
				A: geo.Point{X: x, Y: y}, B: geo.Point{X: math.Min(x+length, officeWidth-1), Y: y},
				Loss: 0.7,
			})
		} else {
			walls = append(walls, rf.Wall{
				A: geo.Point{X: x, Y: y}, B: geo.Point{X: x, Y: math.Min(y+length, officeHeight-1)},
				Loss: 0.7,
			})
		}
	}

	env := &rf.Environment{
		Walls:      walls,
		Scatterers: rf.RandomScatterers(rng, officeScatterers, 1, 1, officeWidth-1, officeHeight-1),
	}

	// Candidate locations with a minimum pairwise gap.
	var locs []geo.Point
	for len(locs) < officeLocations {
		p := geo.Point{
			X: 1 + rng.Float64()*(officeWidth-2),
			Y: 1 + rng.Float64()*(officeHeight-2),
		}
		tooClose := false
		for _, q := range locs {
			if p.Dist(q) < minPlacementGap {
				tooClose = true
				break
			}
		}
		if !tooClose {
			locs = append(locs, p)
		}
	}
	return &Office{Env: env, Locations: locs, Width: officeWidth, Height: officeHeight}
}

// Placement is one experiment instance: a transmitter and receiver
// location pair and whether the link is treated as non-line-of-sight.
type Placement struct {
	TX, RX geo.Point
	NLOS   bool
}

// TrueDistance returns the ground-truth TX–RX distance (the laser-range
// measurement of §12.1).
func (p Placement) TrueDistance() float64 { return p.TX.Dist(p.RX) }

// TrueToF returns the ground-truth direct-path time of flight.
func (p Placement) TrueToF() float64 { return p.TrueDistance() / wifi.SpeedOfLight }

// RandomPlacement draws a location pair with distance at most maxDist
// (the paper uses up to 15 m) and the requested visibility class.
func (o *Office) RandomPlacement(rng *rand.Rand, maxDist float64, nlos bool) Placement {
	for {
		i := rng.Intn(len(o.Locations))
		j := rng.Intn(len(o.Locations))
		if i == j {
			continue
		}
		p := Placement{TX: o.Locations[i], RX: o.Locations[j], NLOS: nlos}
		if d := p.TrueDistance(); d > 0.5 && d <= maxDist {
			return p
		}
	}
}

// Channel builds the multipath channel for a placement (rf.GenerateChannel).
// The path census is pruned to the dominant few: §12.1 reports a mean of
// ≈5 dominant peaks in measured indoor profiles, and the sparse
// inversion has only ~24 five-GHz measurements to explain the squared
// channel's pairwise cross-terms, so weak straggler paths are dropped at
// generation just as they fall below the noise floor on real hardware.
func (o *Office) Channel(p Placement) *rf.Channel {
	return rf.GenerateChannel(o.Env, p.TX, p.RX, p.NLOS)
}

// FillChannel is Channel into dst, reusing its path storage
// (rf.FillChannel): a streaming session fills its one channel on every
// dwell.
func (o *Office) FillChannel(dst *rf.Channel, p Placement) {
	rf.FillChannel(dst, o.Env, p.TX, p.RX, p.NLOS)
}

// LinkConfig tunes device-pair link creation.
type LinkConfig struct {
	Quirk bool // radios exhibit the 2.4 GHz quirk (default matches radios)
}

// LinkSNR is the office link budget: the base per-subcarrier SNR of
// 28 dB degrades gently with distance (the §12.1 observation that error
// grows at longer ranges) and drops further through obstructions.
// Shared by NewLink and the streaming tracking sessions so both evaluate
// on the same budget.
func LinkSNR(dist float64, nlos bool) float64 {
	snr := baseSNRdB - 10*math.Log10(math.Max(dist, 1))
	if nlos {
		snr -= 4
	}
	return snr
}

// NewLink instantiates two fresh radios over the placement's channel,
// with the LinkSNR budget applied at the placement's distance.
func (o *Office) NewLink(rng *rand.Rand, p Placement, cfg LinkConfig) *csi.Link {
	tx, rx := csi.NewRadio(rng), csi.NewRadio(rng)
	tx.Quirk24, rx.Quirk24 = cfg.Quirk, cfg.Quirk
	return &csi.Link{
		TX: tx, RX: rx,
		Channel: o.Channel(p),
		SNRdB:   LinkSNR(p.TrueDistance(), p.NLOS),
	}
}

// AntennaPlacement describes a multi-antenna receiver placement: the
// array sits (untranslated) at RXCenter and the single-antenna
// transmitter at TX.
type AntennaPlacement struct {
	TX       geo.Point
	RXCenter geo.Point
	Array    geo.Array
	NLOS     bool
}

// AntennaChannels builds one channel per receive antenna. Each antenna
// sees its own geometry (its own direct delay), which is what localization
// triangulates on.
func (o *Office) AntennaChannels(ap AntennaPlacement) []*rf.Channel {
	out := make([]*rf.Channel, len(ap.Array.Antennas))
	for i, ant := range ap.Array.At(ap.RXCenter) {
		out[i] = rf.GenerateChannel(o.Env, ap.TX, ant, ap.NLOS)
	}
	return out
}
