package wifi

import (
	"math"
	"testing"
)

func TestUSBandsCount(t *testing.T) {
	bands := USBands()
	if len(bands) != 35 {
		t.Fatalf("got %d bands, want 35 (paper §5)", len(bands))
	}
}

func TestUSBandsDistinctCenters(t *testing.T) {
	seen := map[float64]int{}
	for _, b := range USBands() {
		if prev, dup := seen[b.Center]; dup {
			t.Errorf("channels %d and %d share center %v", prev, b.Channel, b.Center)
		}
		seen[b.Center] = b.Channel
	}
}

func TestKnownCenterFrequencies(t *testing.T) {
	want := map[int]float64{
		1:   2.412e9,
		6:   2.437e9,
		11:  2.462e9,
		36:  5.18e9,
		64:  5.32e9,
		100: 5.5e9,
		140: 5.7e9,
		149: 5.745e9,
		165: 5.825e9,
	}
	got := map[int]float64{}
	for _, b := range USBands() {
		got[b.Channel] = b.Center
	}
	for ch, f := range want {
		if math.Abs(got[ch]-f) > 1 {
			t.Errorf("channel %d center = %v, want %v", ch, got[ch], f)
		}
	}
}

func TestDFSFlags(t *testing.T) {
	for _, b := range USBands() {
		wantDFS := b.Channel >= 100 && b.Channel <= 140
		if b.DFS != wantDFS {
			t.Errorf("channel %d DFS = %v, want %v", b.Channel, b.DFS, wantDFS)
		}
	}
}

func TestGHz24Split(t *testing.T) {
	b24, b5 := Bands24GHz(), Bands5GHz()
	if len(b24)+len(b5) != 35 {
		t.Errorf("split %d + %d != 35", len(b24), len(b5))
	}
	if len(b24) != 11 {
		t.Errorf("2.4 GHz bands = %d, want 11", len(b24))
	}
	for _, b := range b24 {
		if !b.GHz24() {
			t.Errorf("band %v misclassified", b)
		}
	}
	for _, b := range b5 {
		if b.GHz24() {
			t.Errorf("band %v misclassified", b)
		}
	}
}

func TestCSISubcarriers(t *testing.T) {
	sc := CSISubcarriers()
	if len(sc) != 30 {
		t.Fatalf("got %d subcarriers, want 30 (Intel 5300 HT20)", len(sc))
	}
	for i, k := range sc {
		if k == 0 {
			t.Error("zero subcarrier must not be reported (DC)")
		}
		if k < -28 || k > 28 {
			t.Errorf("subcarrier %d out of HT20 range", k)
		}
		if i > 0 && sc[i] <= sc[i-1] {
			t.Errorf("subcarriers not strictly increasing at %d", i)
		}
	}
}

func TestSubcarrierFreq(t *testing.T) {
	b := Band{Channel: 36, Center: 5.18e9}
	if got := SubcarrierFreq(b, 0); got != 5.18e9 {
		t.Errorf("k=0 freq = %v", got)
	}
	if got := SubcarrierFreq(b, -28); math.Abs(got-(5.18e9-28*312.5e3)) > 1e-6 {
		t.Errorf("k=-28 freq = %v", got)
	}
}

func TestCenters(t *testing.T) {
	bands := USBands()
	cs := Centers(bands)
	if len(cs) != len(bands) {
		t.Fatalf("len = %d", len(cs))
	}
	for i := range cs {
		if cs[i] != bands[i].Center {
			t.Errorf("centers[%d] mismatch", i)
		}
	}
}

func TestBandString(t *testing.T) {
	b := Band{Channel: 36, Center: 5.18e9}
	if got := b.String(); got != "ch36(5.180GHz)" {
		t.Errorf("String = %q", got)
	}
}

func TestSpeedOfLightConsistency(t *testing.T) {
	// Guard against unit drift between packages.
	if math.Abs(SpeedOfLight-299792458) > 1 {
		t.Error("speed of light changed")
	}
}
