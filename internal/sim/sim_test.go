package sim

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"chronos/internal/geo"
	"chronos/internal/rf"
	"chronos/internal/wifi"
)

func TestNewOfficeDefaults(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	o := NewOffice(rng, OfficeConfig{})
	if o.Width != 20 || o.Height != 20 {
		t.Errorf("size = %v×%v", o.Width, o.Height)
	}
	if len(o.Locations) != 30 {
		t.Errorf("locations = %d, want 30", len(o.Locations))
	}
	// 4 boundary walls + 3 interior.
	if len(o.Env.Walls) != 7 {
		t.Errorf("walls = %d, want 7", len(o.Env.Walls))
	}
	if len(o.Env.Scatterers) != 10 {
		t.Errorf("scatterers = %d", len(o.Env.Scatterers))
	}
}

func TestOfficeDeterministic(t *testing.T) {
	a := NewOffice(rand.New(rand.NewSource(7)), OfficeConfig{})
	b := NewOffice(rand.New(rand.NewSource(7)), OfficeConfig{})
	for i := range a.Locations {
		if a.Locations[i] != b.Locations[i] {
			t.Fatal("same seed produced different offices")
		}
	}
}

func TestLocationsInBoundsAndSpaced(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	o := NewOffice(rng, OfficeConfig{})
	for i, p := range o.Locations {
		if p.X < 1 || p.X > 19 || p.Y < 1 || p.Y > 19 {
			t.Errorf("location %d out of bounds: %v", i, p)
		}
		for j := i + 1; j < len(o.Locations); j++ {
			if p.Dist(o.Locations[j]) < 1.5 {
				t.Errorf("locations %d and %d too close", i, j)
			}
		}
	}
}

func TestRandomPlacementRespectsMaxDist(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	o := NewOffice(rng, OfficeConfig{})
	for i := 0; i < 100; i++ {
		p := o.RandomPlacement(rng, 15, i%2 == 0)
		if d := p.TrueDistance(); d <= 0.5 || d > 15 {
			t.Errorf("distance %v out of (0.5, 15]", d)
		}
		if p.NLOS != (i%2 == 0) {
			t.Error("NLOS flag not honored")
		}
	}
}

func TestPlacementGroundTruth(t *testing.T) {
	p := Placement{TX: geo.Point{X: 0, Y: 0}, RX: geo.Point{X: 3, Y: 4}}
	if p.TrueDistance() != 5 {
		t.Errorf("TrueDistance = %v", p.TrueDistance())
	}
	want := 5.0 / wifi.SpeedOfLight
	if math.Abs(p.TrueToF()-want) > 1e-18 {
		t.Errorf("TrueToF = %v", p.TrueToF())
	}
}

func TestChannelDirectDelayMatchesGeometry(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	o := NewOffice(rng, OfficeConfig{})
	p := o.RandomPlacement(rng, 15, false)
	ch := o.Channel(p)
	if math.Abs(ch.DirectDelay()-p.TrueToF()) > 1e-15 {
		t.Errorf("direct delay %v != true ToF %v", ch.DirectDelay(), p.TrueToF())
	}
	if len(ch.Paths) < 2 {
		t.Errorf("office channel has only %d paths — multipath missing", len(ch.Paths))
	}
}

// TestFillChannelMatchesChannel pins the reused channel a streaming
// session renders from: one Channel filled placement after placement
// holds exactly the paths Office.Channel builds for each, and once
// filled, filling it again allocates nothing.
func TestFillChannelMatchesChannel(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	o := NewOffice(rng, OfficeConfig{})
	var ch rf.Channel
	for i := 0; i < 40; i++ {
		p := o.RandomPlacement(rng, 15, i%3 == 0)
		o.FillChannel(&ch, p)
		want := o.Channel(p).Paths
		if !slices.Equal(ch.Paths, want) {
			t.Fatalf("placement %d: filled paths %v, want %v", i, ch.Paths, want)
		}
	}
	p := o.RandomPlacement(rng, 15, false)
	if n := testing.AllocsPerRun(10, func() { o.FillChannel(&ch, p) }); n != 0 {
		t.Errorf("FillChannel allocated %.0f times, want 0", n)
	}
}

func TestNLOSChannelWeakerDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	o := NewOffice(rng, OfficeConfig{})
	p := o.RandomPlacement(rng, 10, false)
	los := o.Channel(p)
	p.NLOS = true
	nlos := o.Channel(p)
	if nlos.Paths[0].Gain >= los.Paths[0].Gain {
		t.Error("NLOS direct path not attenuated")
	}
}

func TestNewLinkSNRDegradesWithDistance(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	o := NewOffice(rng, OfficeConfig{})
	near := Placement{TX: o.Locations[0], RX: geo.Point{X: o.Locations[0].X + 1, Y: o.Locations[0].Y}}
	far := Placement{TX: o.Locations[0], RX: geo.Point{X: o.Locations[0].X + 14, Y: o.Locations[0].Y}}
	ln := o.NewLink(rng, near, LinkConfig{})
	lf := o.NewLink(rng, far, LinkConfig{})
	if lf.SNRdB >= ln.SNRdB {
		t.Errorf("far SNR %v not below near SNR %v", lf.SNRdB, ln.SNRdB)
	}
}

func TestLinkSNRBudget(t *testing.T) {
	// 28 dB at 1 m and closer, 10 dB less per decade of distance, and
	// 4 dB less through an obstruction.
	for _, tc := range []struct {
		dist float64
		nlos bool
		want float64
	}{{0.5, false, 28}, {1, false, 28}, {10, false, 18}, {10, true, 14}, {100, true, 4}} {
		if got := LinkSNR(tc.dist, tc.nlos); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("LinkSNR(%v, %v) = %v, want %v", tc.dist, tc.nlos, got, tc.want)
		}
	}
}

func TestNewLinkQuirkFlag(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	o := NewOffice(rng, OfficeConfig{})
	p := o.RandomPlacement(rng, 10, false)
	l := o.NewLink(rng, p, LinkConfig{Quirk: true})
	if !l.TX.Quirk24 || !l.RX.Quirk24 {
		t.Error("quirk flag not propagated")
	}
}

func TestAntennaChannels(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	o := NewOffice(rng, OfficeConfig{})
	ap := AntennaPlacement{
		TX:       geo.Point{X: 5, Y: 5},
		RXCenter: geo.Point{X: 12, Y: 9},
		Array:    geo.LinearArray(3, 0.3),
	}
	chans := o.AntennaChannels(ap)
	if len(chans) != 3 {
		t.Fatalf("channels = %d", len(chans))
	}
	// Each antenna's direct delay must match its own geometry.
	for i, ant := range ap.Array.At(ap.RXCenter) {
		want := ap.TX.Dist(ant) / wifi.SpeedOfLight
		if math.Abs(chans[i].DirectDelay()-want) > 1e-15 {
			t.Errorf("antenna %d: delay %v, want %v", i, chans[i].DirectDelay(), want)
		}
	}
	// Delays must differ between antennas (that difference is the
	// localization signal).
	if chans[0].DirectDelay() == chans[2].DirectDelay() {
		t.Error("antenna delays identical")
	}
}
