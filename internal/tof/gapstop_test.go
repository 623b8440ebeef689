package tof

import (
	"math"
	"math/rand"
	"testing"

	"chronos/internal/csi"
	"chronos/internal/rf"
	"chronos/internal/sim"
	"chronos/internal/stats"
	"chronos/internal/wifi"
)

// foldSweep folds one captured sweep into a fresh Sweep of est.
func foldSweep(t *testing.T, est *Estimator, bands []wifi.Band, sweep [][]csi.Pair) *Sweep {
	t.Helper()
	s := est.NewSweep()
	for i, b := range bands {
		if err := s.AddBand(b, sweep[i]); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

// preciseEstimate is the comparison arm of the gap stop: Algorithm 1's
// iterate rule alone, ‖p_{t+1} − p_t‖ < ε. It is the floor-0 attempt the
// estimator re-solves a contested placement with, taken here on every
// sweep: main solve and refits at floor 0, the evidence gates still set
// by the sweep's noise estimate, and no re-solve. It returns the ToF and
// Work an Estimate of that attempt would report.
func preciseEstimate(t *testing.T, s *Sweep) (tau float64, work int64) {
	t.Helper()
	e := s.est
	if err := e.group(s); err != nil {
		t.Fatal(err)
	}
	fix, res, err := e.solveGroup(s, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !fix.ok {
		t.Fatal("precise attempt placed no direct path")
	}
	return max(fix.tau, 0), res.Work + fix.aliasWork
}

// TestGapStopCutsWork holds the gap stop's cost on a fixed deep-multipath
// link (direct path at 20 ns, echoes 4.2 and 9.5 ns later at gains 0.6
// and 0.4, quirk-free radios), 12 sweeps per SNR. At 12, 18 and 26 dB an
// estimate's median Work is at least 2× below the precise arm's on the
// same sweeps: deep fades included, so no noise ceiling may switch the
// gap stop off. At 26 dB, the campaign SNR, no estimate runs to its
// iteration cap. The precise arm runs to the cap on nearly every sweep,
// so the ratio compares the gap stop with that cap.
func TestGapStopCutsWork(t *testing.T) {
	bands := wifi.Bands5GHz()
	est := NewEstimator(Config{Mode: Bands5GHzOnly, MaxIter: 1200})
	echoes := []rf.Path{{Delay: 24.2e-9, Gain: 0.6}, {Delay: 29.5e-9, Gain: 0.4}}
	for _, snr := range []float64{12, 18, 26} {
		rng := rand.New(rand.NewSource(int64(snr)))
		link := testLink(rng, 20, echoes, false)
		link.SNRdB = snr
		var gap, precise []float64
		capped := 0
		for range 12 {
			s := foldSweep(t, est, bands, link.Sweep(rng, bands, 3))
			r, err := s.Estimate()
			if err != nil {
				t.Fatal(err)
			}
			gap = append(gap, float64(r.Work))
			if !r.Converged {
				capped++
			}
			_, work := preciseEstimate(t, s)
			precise = append(precise, float64(work))
		}
		cut := stats.Median(precise) / stats.Median(gap)
		t.Logf("%g dB: median Work %.0f gap, %.0f precise (%.1f×); %d of 12 capped", snr, stats.Median(gap), stats.Median(precise), cut, capped)
		if cut < 2 {
			t.Errorf("%g dB: gap stop cuts median Work %.2f×, want ≥ 2×", snr, cut)
		}
		if snr == 26 && capped > 0 {
			t.Errorf("26 dB: %d of 12 gap-stopped estimates capped, want 0", capped)
		}
	}
}

// TestGapStopKeepsOfficeMedian is the gap stop's accuracy guard: on 12
// office LOS placements, each arm calibrated on the same reference sweep
// (an 8 m LOS placement) with its own ToF, the median |ToF error| of the
// estimates and of the precise arm differ by at most 0.05 ns.
func TestGapStopKeepsOfficeMedian(t *testing.T) {
	bands := wifi.Bands5GHz()
	est := NewEstimator(Config{Mode: Bands5GHzOnly, MaxIter: 1200})
	office := sim.NewOffice(rand.New(rand.NewSource(1)), sim.OfficeConfig{})
	rng := rand.New(rand.NewSource(2))
	gapTau := func(s *Sweep) float64 {
		r, err := s.Estimate()
		if err != nil {
			t.Fatal(err)
		}
		return r.ToF
	}
	preciseTau := func(s *Sweep) float64 {
		tau, _ := preciseEstimate(t, s)
		return tau
	}
	var gapErrs, preciseErrs []float64
	for range 12 {
		p := office.RandomPlacement(rng, 15, false)
		link := office.NewLink(rng, p, sim.LinkConfig{})
		ref := office.RandomPlacement(rng, 8, false)
		link.Channel = office.Channel(ref)
		cal := foldSweep(t, est, bands, link.Sweep(rng, bands, 3))
		link.Channel = office.Channel(p)
		meas := foldSweep(t, est, bands, link.Sweep(rng, bands, 3))
		errNs := func(arm func(*Sweep) float64) float64 {
			offset := arm(cal) - ref.TrueToF()
			return math.Abs(arm(meas)-offset-p.TrueToF()) * 1e9
		}
		gapErrs = append(gapErrs, errNs(gapTau))
		preciseErrs = append(preciseErrs, errNs(preciseTau))
	}
	g, pr := stats.Median(gapErrs), stats.Median(preciseErrs)
	t.Logf("median |error| %.3f ns gap, %.3f ns precise", g, pr)
	if d := math.Abs(g - pr); d > 0.05 {
		t.Errorf("office median moved %.3f ns between the gap stop (%.3f) and the precise arm (%.3f), want ≤ 0.05", d, g, pr)
	}
}
