// Top-level micro-benchmarks for the pipeline's hot kernels.
// internal/exp's campaign golden pins the figures, and perfbench/ is the
// end-to-end performance benchmark.
package chronos

import (
	"math/rand"
	"testing"

	"chronos/internal/dsp"
	"chronos/internal/ndft"
	"chronos/internal/sim"
	"chronos/internal/tof"
	"chronos/internal/track"
	"chronos/internal/wifi"
)

// BenchmarkTrackSession streams one full-pipeline tracking session per
// iteration: a static target, eight sweeps, the BandsFused evaluation
// estimator.
func BenchmarkTrackSession(b *testing.B) {
	office := sim.NewOffice(rand.New(rand.NewSource(7)), sim.OfficeConfig{})
	cfg := track.SessionConfig{Speed: 0, Sweeps: 8}
	est := tof.NewEstimator(tof.Config{Mode: tof.BandsFused, Quirk24: true, MaxIter: 1200})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := track.RunSession(rand.New(rand.NewSource(7)), office, est, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(r.Fixes) == 0 {
			b.Fatal("session produced no fixes")
		}
	}
}

// BenchmarkSessionSweep steps one endless session (a target walking at
// 1 m/s, BenchmarkTrackSession's estimator) one full sweep per
// iteration, StepIngest through StepTrack. A steady-state sweep
// allocates nothing. The bytes per op it reports come from the endless
// session's fix record, which keeps one Fix per sweep and grows by
// doubling, and from the solver's pooled workspaces: sync.Pool keeps
// them per P, so a sweep that first runs on another P builds one there.
// Three untimed sweeps leave the fix record room for a fourth, so a
// one-sweep run reads 0 allocs/op too.
func BenchmarkSessionSweep(b *testing.B) {
	office := sim.NewOffice(rand.New(rand.NewSource(7)), sim.OfficeConfig{})
	cfg := track.SessionConfig{Speed: 1, Sweeps: -1}
	est := tof.NewEstimator(tof.Config{Mode: tof.BandsFused, Quirk24: true, MaxIter: 1200})
	s, err := track.NewSession(rand.New(rand.NewSource(7)), office, est, cfg)
	if err != nil {
		b.Fatal(err)
	}
	for range 3 {
		if err := s.StepSweep(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.StepSweep(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkNDFTInvert(b *testing.B) {
	freqs := wifi.Centers(wifi.Bands5GHz())
	taus := ndft.TauGrid(120e-9, 0.2e-9)
	plan, err := ndft.NewPlan(freqs, taus)
	if err != nil {
		b.Fatal(err)
	}
	// Two on-grid taps: unit gain at taus[100], half at taus[180].
	ch := NewChannel([]Path{{Delay: taus[100], Gain: 1}, {Delay: taus[180], Gain: 0.5}})
	h := make(dsp.Vec, len(freqs))
	for i, f := range freqs {
		h[i] = ch.Response(f)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := plan.Solve(ndft.SolveRequest{H: h, InvertOptions: ndft.InvertOptions{MaxIter: 500}}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkZeroSubcarrierInterpolation(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	rx, tx := newBenchRadio(rng), newBenchRadio(rng)
	ch := NewChannel([]Path{{Delay: 10e-9, Gain: 1}, {Delay: 15e-9, Gain: 0.5}})
	m := rx.Measure(rng, ch, wifi.Band{Channel: 36, Center: 5.18e9}, MeasureOptions{SNRdB: 40, TX: tx})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tof.ZeroSubcarrier(m, 1, tof.InterpSpline); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFullToFEstimate(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	rx, tx := newBenchRadio(rng), newBenchRadio(rng)
	link := &Link{TX: tx, RX: rx, Channel: NewChannel([]Path{
		{Delay: 10e-9, Gain: 1}, {Delay: 14e-9, Gain: 0.6}, {Delay: 19e-9, Gain: 0.4},
	}), SNRdB: 28}
	bands := Bands5GHz()
	est := NewToFEstimator(ToFConfig{Mode: Bands5GHzOnly, MaxIter: 1000})
	sweep := link.Sweep(rng, bands, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := est.Estimate(bands, sweep); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCSISweep35Bands renders and measures every band of the
// 35-band hop: the every-band reference for BenchmarkCSISweepBandsFused.
func BenchmarkCSISweep35Bands(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	rx, tx := newBenchRadio(rng), newBenchRadio(rng)
	link := &Link{TX: tx, RX: rx, Channel: NewChannel([]Path{{Delay: 10e-9, Gain: 1}}), SNRdB: 28}
	bands := USBands()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		link.Sweep(rng, bands, 3)
	}
}

// BenchmarkCSISweepBandsFused is the 35-band hop as a BandsFused
// estimator's sweeps capture it: the 24 bands it folds rendered, the
// 11 2.4 GHz dwells drawn only.
func BenchmarkCSISweepBandsFused(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	rx, tx := newBenchRadio(rng), newBenchRadio(rng)
	link := &Link{TX: tx, RX: rx, Channel: NewChannel([]Path{{Delay: 10e-9, Gain: 1}}), SNRdB: 28}
	bands := USBands()
	folds := tof.Config{Mode: tof.BandsFused}.Folds
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		link.SweepRendering(rng, bands, 3, folds)
	}
}

func newBenchRadio(rng *rand.Rand) *Radio {
	r := NewRadio(rng)
	r.Quirk24 = false
	return r
}
