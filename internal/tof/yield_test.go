package tof

import (
	"math/rand"
	"reflect"
	"testing"

	"chronos/internal/csi"
	"chronos/internal/rf"
	"chronos/internal/wifi"
)

// TestEstimatorYieldIdentical pins that the yield hook changes no
// estimate. A three-sweep stream on the BandsFused quirked
// configuration (35 bands, alias refits) runs with no hook, with
// an idle hook, and with a hook that runs a whole Estimate of another
// device on the same shared plans, as a scheduler runs a latency solve
// inline. Every estimate agrees bit for bit, and so does every estimate
// the hook ran.
func TestEstimatorYieldIdentical(t *testing.T) {
	bands := wifi.USBands()
	cfg := Config{Mode: BandsFused, Quirk24: true, MaxIter: 1200}
	link := func(rng *rand.Rand, directNs float64) func() [][]csi.Pair {
		l := testLink(rng, directNs, []rf.Path{{Delay: (directNs + 6) * 1e-9, Gain: 0.5}}, true)
		return func() [][]csi.Pair { return l.Sweep(rng, bands, 3) }
	}
	fill := func(s *Sweep, sweep [][]csi.Pair) {
		s.Reset()
		for i, b := range bands {
			if err := s.AddBand(b, sweep[i]); err != nil {
				t.Fatal(err)
			}
		}
	}
	stream := func(hook func()) []*Estimate {
		next := link(rand.New(rand.NewSource(14)), 19)
		est := NewEstimator(cfg)
		est.SetYield(hook)
		s := est.NewSweep()
		var out []*Estimate
		for k := 0; k < 3; k++ {
			fill(s, next())
			r, err := s.Estimate()
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, r)
		}
		return out
	}

	// The other device: one sweep, estimated again on every call.
	other := NewEstimator(cfg).NewSweep()
	fill(other, link(rand.New(rand.NewSource(21)), 33)())
	otherRef, err := other.Estimate()
	if err != nil {
		t.Fatal(err)
	}

	ref := stream(nil)
	if got := stream(func() {}); !reflect.DeepEqual(got, ref) {
		t.Fatal("an idle hook changed the estimates")
	}
	calls := 0
	got := stream(func() {
		calls++
		if calls > 6 {
			return // a few nested estimates suffice; keep the test fast
		}
		r, err := other.Estimate()
		if err != nil {
			t.Error(err)
			return
		}
		if !reflect.DeepEqual(r, otherRef) {
			t.Errorf("call %d: the estimate the hook ran differs from the same estimate alone", calls)
		}
	})
	if calls == 0 {
		t.Fatal("the hook was never called")
	}
	for k := range ref {
		if !reflect.DeepEqual(got[k], ref[k]) {
			t.Errorf("sweep %d: estimate with a nested solve differs:\n  got  %+v\n  want %+v", k, *got[k], *ref[k])
		}
	}
}
