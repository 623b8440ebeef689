// Top-level benchmarks: the campaigns whose assertions are CI criteria
// (the alias ghost rate, the warm alias-refit saving and the convergence
// criteria), each driving the internal/exp campaign chronos-bench runs at
// a reduced trial count, plus micro-benchmarks for the pipeline's hot
// kernels. internal/exp's campaign golden pins the figures themselves,
// and perfbench/ is the end-to-end performance benchmark.
package chronos

import (
	"flag"
	"math/rand"
	"testing"

	"chronos/internal/dsp"
	"chronos/internal/exp"
	"chronos/internal/ndft"
	"chronos/internal/sim"
	"chronos/internal/tof"
	"chronos/internal/track"
	"chronos/internal/wifi"
)

// benchWorkers sizes the campaign worker pool for every exp benchmark
// (0 = all cores). Per-trial seeding keeps results identical across
// worker counts, so this trades only wall-clock, not comparability:
//
//	go test -bench . -workers 1
var benchWorkers = flag.Int("workers", 0, "campaign worker-pool size for exp benchmarks (0 = all cores)")

// quick returns bench-scale options: small campaigns, fixed seed.
func quick(trials int) exp.Options {
	return exp.Options{Seed: 1, Trials: trials, Workers: *benchWorkers}
}

func BenchmarkAliasRankingCampaign(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := exp.AliasRanking(quick(4))
		if r.Metrics["adversarial_ghost_rate_family"] > r.Metrics["adversarial_ghost_rate_vertex"] {
			b.Fatalf("family ranking ghosts more than vertex: %v > %v",
				r.Metrics["adversarial_ghost_rate_family"], r.Metrics["adversarial_ghost_rate_vertex"])
		}
	}
}

func BenchmarkPerfAliasCampaign(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := exp.PerfAlias(quick(8))
		// The warm-start acceptance criterion: warm alias refits must cost
		// at most 75% of the cold ones on the static steady state.
		if ratio := r.Metrics["alias_warm_ratio_static"]; !(ratio > 0) || ratio > 0.75 {
			b.Fatalf("warm alias-refit ratio %v, want (0, 0.75]", ratio)
		}
	}
}

// --- Micro-benchmarks for the pipeline's hot kernels ---

// benchSession streams one full-pipeline tracking session per iteration:
// a static target, eight sweeps, the fused evaluation estimator. The
// warm variant is the steady state the plan/warm-start architecture
// targets — every sweep's inversion seeded from the previous fix.
func benchSession(b *testing.B, warm bool) {
	b.Helper()
	office := sim.NewOffice(rand.New(rand.NewSource(7)), sim.OfficeConfig{})
	cfg := track.SessionConfig{Speed: 0, Sweeps: 8, WarmStart: warm}
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

func BenchmarkTrackSessionSteadyState(b *testing.B) { benchSession(b, true) }

func BenchmarkTrackSessionColdStart(b *testing.B) { benchSession(b, false) }

func BenchmarkPerfConvergeCampaign(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := exp.PerfConverge(quick(6))
		// The PR-5 acceptance criteria, asserted on every bench-smoke run:
		// at every SNR of the sweep the gap rule must at least halve the
		// cold solve work against the fixed-tolerance ablation (deep fades
		// included: no noise ceiling may switch the gap stop off), at
		// campaign SNR with cap-rate ~0, the office median must not move
		// beyond solver tolerance, and the colliding-families fixture must
		// keep its alias refits warm.
		for _, snr := range []string{"12", "18", "26"} {
			if red := r.Metrics["work_reduction_"+snr]; red < 2 {
				b.Fatalf("%s dB cold work reduction %.2f×, want ≥ 2×", snr, red)
			}
		}
		if capRate := r.Metrics["cap_rate_gap_26"]; capRate > 0.05 {
			b.Fatalf("campaign-SNR cap rate %.3f under the gap rule, want ~0", capRate)
		}
		if d := r.Metrics["office_median_delta_ns"]; d > 0.05 {
			b.Fatalf("office median moved %.3f ns between gap and fixed-tolerance stacks, want ≤ 0.05", d)
		}
		if ratio := r.Metrics["collide_alias_warm_ratio"]; !(ratio > 0) || ratio > 0.75 {
			b.Fatalf("colliding-families warm/cold alias work %v, want (0, 0.75]", ratio)
		}
		if d := r.Metrics["collide_warm_cold_dtof_ns"]; d > 0.05 {
			b.Fatalf("colliding-families warm fix diverged %.4f ns from cold, want ≤ 0.05", d)
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
	sweep := link.Sweep(rng, bands, 3, 2.4e-3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := est.Estimate(bands, sweep); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCSISweep35Bands(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	rx, tx := newBenchRadio(rng), newBenchRadio(rng)
	link := &Link{TX: tx, RX: rx, Channel: NewChannel([]Path{{Delay: 10e-9, Gain: 1}}), SNRdB: 28}
	bands := USBands()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		link.Sweep(rng, bands, 3, 2.4e-3)
	}
}

func newBenchRadio(rng *rand.Rand) *Radio {
	r := NewRadio(rng)
	r.Quirk24 = false
	return r
}
