package loc

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"chronos/internal/csi"
	"chronos/internal/geo"
	"chronos/internal/sim"
	"chronos/internal/tof"
	"chronos/internal/wifi"
)

// rig is a simulated 3-antenna receiver tracking a single-antenna
// transmitter in an office. The same radios persist across placements so
// calibration stays valid, as on real hardware.
type rig struct {
	office *sim.Office
	array  geo.Array
	tx     *csi.Radio
	rx     []*csi.Radio
	links  []*csi.Link
}

func newRig(rng *rand.Rand, nAnt int, sep float64) *rig {
	office := sim.NewOffice(rng, sim.OfficeConfig{})
	r := &rig{
		office: office,
		array:  geo.LinearArray(nAnt, sep),
		tx:     csi.NewRadio(rng),
	}
	r.tx.Quirk24 = false
	for i := 0; i < nAnt; i++ {
		rx := csi.NewRadio(rng)
		rx.Quirk24 = false
		r.rx = append(r.rx, rx)
		r.links = append(r.links, &csi.Link{TX: r.tx, RX: rx, SNRdB: 26})
	}
	return r
}

// place points every antenna link at the given TX/RX-center geometry.
func (r *rig) place(txPos, rxCenter geo.Point, nlos bool) {
	ap := sim.AntennaPlacement{TX: txPos, RXCenter: rxCenter, Array: r.array, NLOS: nlos}
	chans := r.office.AntennaChannels(ap)
	for i := range r.links {
		r.links[i].Channel = chans[i]
	}
}

// sweeps captures one band sweep per antenna.
func (r *rig) sweeps(rng *rand.Rand, bands []wifi.Band, pairs int) [][][]csi.Pair {
	out := make([][][]csi.Pair, len(r.links))
	for i, l := range r.links {
		out[i] = l.Sweep(rng, bands, pairs)
	}
	return out
}

func calibratedLocalizer(t *testing.T, rng *rand.Rand, r *rig, bands []wifi.Band) *Localizer {
	t.Helper()
	loc := NewLocalizer(r.array, tof.Config{Mode: tof.Bands5GHzOnly, MaxIter: 800})
	// Calibrate at a known geometry.
	txPos, rxCenter := geo.Point{X: 5, Y: 5}, geo.Point{X: 10, Y: 10}
	r.place(txPos, rxCenter, false)
	trueDist := make([]float64, len(r.array.Antennas))
	for i, ant := range r.array.At(rxCenter) {
		trueDist[i] = txPos.Dist(ant)
	}
	for i, link := range r.links {
		sweep := link.Sweep(rng, bands, 3)
		cal, err := loc.Est.Calibrate(bands, sweep, trueDist[i])
		if err != nil {
			t.Fatal(err)
		}
		loc.Cals[i] = cal
	}
	return loc
}

func TestLocateThreeAntennaLOS(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign-scale localization test")
	}
	rng := rand.New(rand.NewSource(1))
	r := newRig(rng, 3, 0.5)
	bands := wifi.Bands5GHz()
	loc := calibratedLocalizer(t, rng, r, bands)

	// Target placement: transmitter 4 m away from the array center.
	rxCenter := geo.Point{X: 10, Y: 10}
	txPos := geo.Point{X: 12.5, Y: 13}
	r.place(txPos, rxCenter, false)

	fix, err := loc.LocateArray(bands, r.sweeps(rng, bands, 3))
	if err != nil {
		t.Fatal(err)
	}
	// The fix is in the array frame (array center at origin).
	truthLocal := txPos.Sub(rxCenter)
	if e := fix.Position.Dist(truthLocal); e > 1.2 {
		t.Errorf("localization error %.2f m (fix %v, truth %v)", e, fix.Position, truthLocal)
	}
	if len(fix.Distances) < 2 {
		t.Errorf("kept distances = %d", len(fix.Distances))
	}
}

func TestLocateWiderArrayNoWorse(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign-scale localization test")
	}
	// §10/§12.2: larger antenna separation should not hurt accuracy (it
	// should generally help). Run both on identical scenario seeds.
	bands := wifi.Bands5GHz()
	run := func(sep float64) float64 {
		rng := rand.New(rand.NewSource(42))
		r := newRig(rng, 3, sep)
		loc := calibratedLocalizer(t, rng, r, bands)
		rxCenter := geo.Point{X: 9, Y: 9}
		txPos := geo.Point{X: 13, Y: 12}
		r.place(txPos, rxCenter, false)
		var total float64
		const trials = 3
		for i := 0; i < trials; i++ {
			fix, err := loc.LocateArray(bands, r.sweeps(rng, bands, 3))
			if err != nil {
				t.Fatal(err)
			}
			total += fix.Position.Dist(txPos.Sub(rxCenter))
		}
		return total / trials
	}
	narrow, wide := run(0.15), run(0.5)
	if wide > narrow*2+0.3 {
		t.Errorf("wide-array error %.2f m much worse than narrow %.2f m", wide, narrow)
	}
}

func TestLocateSweepCountMismatch(t *testing.T) {
	loc := NewLocalizer(geo.LinearArray(3, 0.3), tof.Config{})
	if _, err := loc.LocateArray(wifi.Bands5GHz(), make([][][]csi.Pair, 2)); !errors.Is(err, ErrAntennaCount) {
		t.Errorf("err = %v", err)
	}
}

func TestLocateEmptySweepsFail(t *testing.T) {
	loc := NewLocalizer(geo.LinearArray(3, 0.3), tof.Config{})
	sweeps := make([][][]csi.Pair, 3) // all antennas empty
	if _, err := loc.LocateArray(wifi.Bands5GHz(), sweeps); err == nil {
		t.Error("empty sweeps accepted")
	}
}

func TestLocateTwoAntennaAmbiguity(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign-scale localization test")
	}
	rng := rand.New(rand.NewSource(3))
	r := newRig(rng, 2, 0.5)
	bands := wifi.Bands5GHz()
	loc := calibratedLocalizer(t, rng, r, bands)

	rxCenter := geo.Point{X: 10, Y: 10}
	txPos := geo.Point{X: 12, Y: 13}
	r.place(txPos, rxCenter, false)
	fix, err := loc.LocateArray(bands, r.sweeps(rng, bands, 3))
	if err != nil {
		t.Fatal(err)
	}
	if len(fix.Candidates) < 2 {
		t.Fatalf("expected mirror ambiguity with 2 antennas, got %v", fix.Candidates)
	}
	// With only a 0.5 m baseline the bearing is noisy, but the range must
	// be accurate and the two candidates must mirror each other across
	// the array axis (y → −y).
	truthLocal := txPos.Sub(rxCenter)
	bestRangeErr := math.Inf(1)
	for _, c := range fix.Candidates {
		if e := math.Abs(c.Norm() - truthLocal.Norm()); e < bestRangeErr {
			bestRangeErr = e
		}
	}
	if bestRangeErr > 0.8 {
		t.Errorf("range error %.2f m", bestRangeErr)
	}
	a, b := fix.Candidates[0], fix.Candidates[1]
	if math.Abs(a.X-b.X) > 0.2 || math.Abs(a.Y+b.Y) > 0.2 {
		t.Errorf("candidates %v and %v are not mirror images", a, b)
	}
}

// TestSolvePicksMirrorCandidate drives solve's mirror pick: antenna 0's
// distance is 1.5 m off, so outlier rejection drops it, the two circles
// left report both mirror candidates, and the dropped circle's residual
// must still pick the true side. The two cases pick opposite candidate
// slots, so both branches of the pick run.
func TestSolvePicksMirrorCandidate(t *testing.T) {
	l := &Localizer{Array: geo.TriangleArray(0.3)}
	for _, tc := range []struct {
		truth geo.Point
		err   float64 // added to antenna 0's distance
		pick  int     // the candidate slot the truth lands in
	}{
		{geo.Point{X: 2, Y: -3}, 1.5, 1},
		{geo.Point{X: 2, Y: 3}, -1.5, 0},
	} {
		var circles []geo.Circle
		for _, ant := range l.Array.Antennas {
			circles = append(circles, geo.Circle{Center: ant, Radius: tc.truth.Dist(ant)})
		}
		circles[0].Radius += tc.err
		fix, err := l.solve(circles, []int{0, 1, 2})
		if err != nil {
			t.Fatal(err)
		}
		if fix.DroppedCount != 1 || len(fix.Candidates) != 2 {
			t.Fatalf("truth %v: dropped %d, candidates %v; want 1 dropped, 2 candidates", tc.truth, fix.DroppedCount, fix.Candidates)
		}
		if fix.Position.Dist(tc.truth) > 1e-6 || fix.Position != fix.Candidates[tc.pick] {
			t.Errorf("truth %v: position %v, want it within 1e-6 m as candidate %d of %v", tc.truth, fix.Position, tc.pick, fix.Candidates)
		}
	}
}
