package loc

import (
	"math/rand"
	"testing"

	"chronos/internal/csi"
	"chronos/internal/geo"
	"chronos/internal/sim"
	"chronos/internal/tof"
	"chronos/internal/wifi"
)

// arrayRig is the shared-packet analogue of rig: one transmitter, one
// multi-chain receiver card.
type arrayRig struct {
	office *sim.Office
	array  geo.Array
	link   *csi.ArrayLink
}

func newArrayRig(rng *rand.Rand, side float64) *arrayRig {
	office := sim.NewOffice(rng, sim.OfficeConfig{})
	tx := csi.NewRadio(rng)
	tx.Quirk24 = false
	rx := csi.NewRadio(rng)
	rx.Quirk24 = false
	return &arrayRig{
		office: office,
		array:  geo.TriangleArray(side),
		link:   &csi.ArrayLink{TX: tx, RX: rx, SNRdB: 26},
	}
}

func (r *arrayRig) place(txPos, rxCenter geo.Point, nlos bool) {
	ap := sim.AntennaPlacement{TX: txPos, RXCenter: rxCenter, Array: r.array, NLOS: nlos}
	r.link.Channels = r.office.AntennaChannels(ap)
}

func TestLocateArrayAccuracy(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign-scale localization test")
	}
	rng := rand.New(rand.NewSource(1))
	r := newArrayRig(rng, 0.3)
	bands := wifi.Bands5GHz()
	localizer := NewLocalizer(r.array, tof.Config{Mode: tof.Bands5GHzOnly, MaxIter: 1000})

	rxCenter := geo.Point{X: 10, Y: 10}
	calTx := geo.Point{X: 6, Y: 7}
	r.place(calTx, rxCenter, false)
	trueDist := make([]float64, 3)
	for i, ant := range r.array.At(rxCenter) {
		trueDist[i] = calTx.Dist(ant)
	}
	if err := localizer.CalibrateArray(rng, bands, r.link, trueDist); err != nil {
		t.Fatal(err)
	}

	targets := []geo.Point{{X: 13, Y: 12}, {X: 15, Y: 6}, {X: 7, Y: 14}}
	good := 0
	for _, target := range targets {
		r.place(target, rxCenter, false)
		fix, err := localizer.LocateArray(bands, r.link.Sweep(rng, bands, 3))
		if err != nil {
			t.Fatalf("target %v: %v", target, err)
		}
		if fix.Position.Dist(target.Sub(rxCenter)) < 1.0 {
			good++
		}
	}
	// At least 2 of 3 LOS fixes within a meter (paper median 58 cm).
	if good < 2 {
		t.Errorf("only %d/3 fixes within 1 m", good)
	}
}

func TestLocateArrayDistancesTrackTruth(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign-scale localization test")
	}
	rng := rand.New(rand.NewSource(2))
	r := newArrayRig(rng, 0.3)
	bands := wifi.Bands5GHz()
	localizer := NewLocalizer(r.array, tof.Config{Mode: tof.Bands5GHzOnly, MaxIter: 1000})

	rxCenter := geo.Point{X: 9, Y: 9}
	calTx := geo.Point{X: 5, Y: 6}
	r.place(calTx, rxCenter, false)
	trueDist := make([]float64, 3)
	for i, ant := range r.array.At(rxCenter) {
		trueDist[i] = calTx.Dist(ant)
	}
	if err := localizer.CalibrateArray(rng, bands, r.link, trueDist); err != nil {
		t.Fatal(err)
	}

	target := geo.Point{X: 13, Y: 11}
	r.place(target, rxCenter, false)
	fix, err := localizer.LocateArray(bands, r.link.Sweep(rng, bands, 3))
	if err != nil {
		t.Fatal(err)
	}
	ants := r.array.At(rxCenter)
	for i, ai := range fix.KeptAntennas {
		want := target.Dist(ants[ai])
		got := fix.Distances[i]
		if d := got - want; d > 0.5 || d < -0.5 {
			t.Errorf("antenna %d distance %v, want %v", ai, got, want)
		}
	}
}

// TestLocateArraySubtractsChainOffsets pins the per-chain calibration:
// every chain's sweep runs through the one estimator, and its distance
// is its own calibration's range: its ToF less its own offset, clamped
// at zero, times c.
func TestLocateArraySubtractsChainOffsets(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	r := newArrayRig(rng, 0.3)
	bands := wifi.Bands5GHz()
	localizer := NewLocalizer(r.array, tof.Config{Mode: tof.Bands5GHzOnly, MaxIter: 400})
	r.place(geo.Point{X: 6, Y: 7}, geo.Point{X: 10, Y: 10}, false)
	sweeps := r.link.Sweep(rng, bands, 2)
	raw := make([]float64, len(sweeps))
	for i, sw := range sweeps {
		est, err := localizer.Est.Estimate(bands, sw)
		if err != nil {
			t.Fatal(err)
		}
		raw[i] = est.ToF
	}
	for _, tc := range []struct {
		name    string
		offsets []float64
	}{
		{"offsets", []float64{0.2e-9, 0.5e-9, 0.8e-9}},
		{"clamped", []float64{raw[0] + 1e-9, raw[1] + 1e-9, raw[2] + 1e-9}},
	} {
		for i, off := range tc.offsets {
			localizer.Cals[i] = tof.Calibration{Offset: off}
		}
		fix, err := localizer.LocateArray(bands, sweeps)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if len(fix.KeptAntennas) != len(sweeps) {
			t.Fatalf("%s: kept %v, want every chain", tc.name, fix.KeptAntennas)
		}
		for j, k := range fix.KeptAntennas {
			want := max(raw[k]-tc.offsets[k], 0) * wifi.SpeedOfLight
			if fix.Distances[j] != want {
				t.Errorf("%s: chain %d distance %v, want %v", tc.name, k, fix.Distances[j], want)
			}
		}
	}
}

func TestLocateArrayCountMismatch(t *testing.T) {
	l := NewLocalizer(geo.TriangleArray(0.3), tof.Config{})
	if _, err := l.LocateArray(wifi.Bands5GHz(), make([][][]csi.Pair, 2)); err == nil {
		t.Error("mismatched sweep count accepted")
	}
}

func TestCalibrateArrayInputMismatch(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	l := NewLocalizer(geo.TriangleArray(0.3), tof.Config{})
	link := &csi.ArrayLink{TX: csi.NewRadio(rng), RX: csi.NewRadio(rng)}
	if err := l.CalibrateArray(rng, wifi.Bands5GHz(), link, []float64{1}); err == nil {
		t.Error("mismatched calibration inputs accepted")
	}
}
