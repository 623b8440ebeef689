package tof

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"chronos/internal/csi"
	"chronos/internal/dsp"
	"chronos/internal/ndft"
	"chronos/internal/obs"
	"chronos/internal/rf"
	"chronos/internal/sim"
	"chronos/internal/wifi"
)

// ghostScenario is one deep-NLOS geometry on which a ±1-period refit
// that auto-scales α separately per hypothesis moves the fix a whole
// alias period early. The profile does not strand the direct path on a
// ghost: on every pinned draw its windowed first peak sits in the true
// alias cell, a few ns late. The trap is the refit, whose auto α grows
// with the window's atom correlations and shrinks the well-matched
// window harder, so the window one period early leaves the smaller
// residual. Seeds are pinned to draws where that holds (Go's rand is
// stable, so these reproduce bit-for-bit), and the fixture checks that
// it still does, so a solver change that disarmed the trap fails here
// instead of passing vacuously. The scenarios run at 12 dB, where the
// solves stop at the duality gap like every other.
type ghostScenario struct {
	name    string
	direct  float64 // ns
	extra   []rf.Path
	snr     float64
	maxIter int
	seed    int64
}

func ghostScenarios() []ghostScenario {
	deep := []rf.Path{{Delay: 49e-9, Gain: 1.2}}
	return []ghostScenario{
		weakDirect(6), weakDirect(8), weakDirect(42), weakDirect(114),
		{"deep/114", 44, deep, 12, 500, 114},
	}
}

// weakDirect is the weak-direct geometry drawn at seed: a direct path at
// 30 ns under reflections at 37 ns (×1.8) and 42 ns (×1.0).
func weakDirect(seed int64) ghostScenario {
	weak := []rf.Path{{Delay: 37e-9, Gain: 1.8}, {Delay: 42e-9, Gain: 1.0}}
	return ghostScenario{fmt.Sprintf("weak-direct/%d", seed), 30, weak, 12, 400, seed}
}

// ghostMeasure produces the scenario's sweep and the true direct delay
// including the pair's hardware-chain bias (the fixture asserts raw
// estimates, so the hardware delay is part of the truth).
func (sc ghostScenario) measure() (bands []wifi.Band, sweep [][]csi.Pair, trueNs float64) {
	rng := rand.New(rand.NewSource(sc.seed))
	link := testLink(rng, sc.direct, sc.extra, false)
	link.SNRdB = sc.snr
	bands = wifi.Bands5GHz()
	sweep = link.Sweep(rng, bands, 3)
	return bands, sweep, sc.direct + link.TX.Osc.HWDelayNs + link.RX.Osc.HWDelayNs
}

// TestAliasFamilyRecoversGhostVertices is the alias-family acceptance
// fixture: on each pinned deep-NLOS draw the estimator's fix lands in
// the true alias cell, although a refit of the windowed first peak with
// a per-hypothesis auto α fits the member one period early better.
func TestAliasFamilyRecoversGhostVertices(t *testing.T) {
	for _, sc := range ghostScenarios() {
		t.Run(sc.name, func(t *testing.T) {
			bands, sweep, trueNs := sc.measure()
			est := NewEstimator(Config{Mode: Bands5GHzOnly, MaxIter: sc.maxIter})
			s := est.NewSweep()
			for i, b := range bands {
				if err := s.AddBand(b, sweep[i]); err != nil {
					t.Fatal(err)
				}
			}
			r, err := s.Estimate()
			if err != nil {
				t.Fatal(err)
			}
			if fErr := math.Abs(r.ToF*1e9 - trueNs); fErr >= 12.5 {
				t.Errorf("family ranking error %.2f ns — ghost not recovered", fErr)
			} else if fErr >= 6 {
				t.Errorf("family ranking error %.2f ns, want < 6 ns (right alias cell, modest NLOS blur)", fErr)
			}

			// The trap: refit the windowed first peak and its member one
			// period early, each with the solver's own α.
			cand, ok := firstPeakWindowed(r.Profile, new(candScratch))
			if !ok {
				t.Fatal("profile has no peak")
			}
			if d := math.Abs(cand*1e9 - trueNs); d >= 12.5 {
				t.Errorf("windowed first peak %.2f ns off, want it in the true alias cell", d)
			}
			if err := est.group(s); err != nil {
				t.Fatal(err)
			}
			plan, _, err := est.windowPlan(s.freqs, s.power)
			if err != nil {
				t.Fatal(err)
			}
			autoRefit := func(c float64) float64 {
				rot := make(dsp.Vec, len(s.h))
				rotateWindow(s.freqs, s.h, c, float64(s.power), rot)
				res, err := plan.Solve(ndft.SolveRequest{
					H:             rot,
					InvertOptions: ndft.InvertOptions{MaxIter: 600, NoiseFloor: s.noise},
				})
				if err != nil {
					t.Fatal(err)
				}
				return res.Residual
			}
			if at, early := autoRefit(cand), autoRefit(cand-aliasPeriod); early >= at {
				t.Errorf("auto-α refit residual one period early %.4g, not below %.4g at the first peak %.2f ns — fixture no longer exhibits the ghost (solver changed?); re-pin seeds",
					early, at, cand*1e9)
			}
		})
	}
}

// TestWeakDirectDrawsKeepTheTrueCell is the adversarial ghost count
// over consecutive seeds rather than pinned ones: on every draw of the
// weak-direct geometry the fix stays less than half an alias period
// (12.5 ns) from the truth, so no draw lands a whole period off.
func TestWeakDirectDrawsKeepTheTrueCell(t *testing.T) {
	const draws = 200
	est := NewEstimator(Config{Mode: Bands5GHzOnly, MaxIter: weakDirect(0).maxIter})
	for seed := int64(1); seed <= draws; seed++ {
		bands, sweep, trueNs := weakDirect(seed).measure()
		r, err := est.Estimate(bands, sweep)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if fErr := math.Abs(r.ToF*1e9 - trueNs); fErr >= aliasPeriod*1e9/2 {
			t.Errorf("seed %d: fix %.2f ns off, a ghost one alias period away", seed, fErr)
		}
	}
}

// TestAliasFamilyMatchesVertexOnCleanLinks pins the conservative-
// extension contract: on clean LOS links the family chain must return
// the profile's windowed first peak — its extra machinery may only
// engage on decisive evidence.
func TestAliasFamilyMatchesVertexOnCleanLinks(t *testing.T) {
	bands := wifi.Bands5GHz()
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		link := testLink(rng, 10+float64(seed)*3, []rf.Path{{Delay: 30e-9, Gain: 0.5}}, false)
		sweep := link.Sweep(rng, bands, 3)
		r, err := NewEstimator(Config{Mode: Bands5GHzOnly, MaxIter: 1000}).Estimate(bands, sweep)
		if err != nil {
			t.Fatal(err)
		}
		first, ok := firstPeakWindowed(r.Profile, new(candScratch))
		if !ok {
			t.Fatalf("seed %d: profile has no peak", seed)
		}
		if d := math.Abs(r.ToF-first) * 1e9; d > 0.05 {
			t.Errorf("seed %d: family ToF differs from the windowed first peak by %.3f ns on a clean link", seed, d)
		}
	}
}

// TestAliasWeights checks the discrimination weighting: on-raster bands
// get zero weight, off-raster bands positive, and a pure-raster geometry
// (every 2.4 GHz channel shares one fractional rotation) reports nil —
// no discrimination.
func TestAliasWeights(t *testing.T) {
	// 5 GHz: channels divisible by 4 sit on the 20 MHz raster (f·2·25ns
	// integer); U-NII-3 odd channels sit off it.
	w := aliasWeights([]float64{5.18e9, 5.2e9, 5.745e9, 5.825e9}, 2, 25e-9)
	if w == nil {
		t.Fatal("discriminating geometry reported nil weights")
	}
	if w[0] > 1e-9 || w[1] > 1e-9 {
		t.Errorf("on-raster bands weighted: %v", w[:2])
	}
	if w[2] < 0.4 || w[3] < 0.4 {
		t.Errorf("off-raster bands under-weighted: %v", w[2:])
	}
	// 2.4 GHz h̃⁸: every channel center is 2407+5k MHz, so f·8·25ns has
	// the same fractional part for all — a period shift is a global
	// phase the profile absorbs, and no band discriminates relative to
	// any other... but the shared fraction is nonzero, so the weights
	// are uniformly positive. The true no-discrimination case is a set
	// where every f·p·P is an integer.
	w = aliasWeights([]float64{5.18e9, 5.2e9, 5.5e9}, 2, 25e-9)
	if w != nil {
		t.Errorf("pure-raster geometry got weights %v, want nil", w)
	}
}

// TestFoldMassConservation pins the fold invariant the ranking rests on.
func TestFoldMassConservation(t *testing.T) {
	mag := make([]float64, 601)
	rng := rand.New(rand.NewSource(1))
	var want float64
	for i := range mag {
		mag[i] = rng.Float64()
		want += mag[i]
	}
	fold := ndft.FoldMass(nil, mag, 250)
	if len(fold) != 250 {
		t.Fatalf("fold length %d, want 250", len(fold))
	}
	var got float64
	for _, v := range fold {
		got += v
	}
	if math.Abs(got-want) > 1e-9*want {
		t.Errorf("folded mass %v != total mass %v", got, want)
	}
}

// TestContestedPlacementResolves pins the alias certificate. The sweep
// replays trial 1 of the seed-2 detection-delay ablation (5 GHz only,
// spline interpolation, relative noise ≈ 0.088): its gap-stopped profile
// makes the direct path's member one period early the taller peak, and
// the placement refit prefers the true member without clearing the
// refit margin. That contested placement must trigger exactly one
// precise re-solve, which lands the fix on the true member.
func TestContestedPlacementResolves(t *testing.T) {
	bands := wifi.Bands5GHz()
	office := sim.NewOffice(rand.New(rand.NewSource(2)), sim.OfficeConfig{})
	rng := rand.New(rand.NewSource(-3848795280787532793))
	p := office.RandomPlacement(rng, 15, false)
	link := office.NewLink(rng, p, sim.LinkConfig{})
	// The trial calibrates at a second placement first; draw that sweep
	// too, so the measured sweep below is the trial's own.
	link.Channel = office.Channel(office.RandomPlacement(rng, 8, false))
	link.Sweep(rng, bands, 3)
	link.Channel = office.Channel(p)
	sweep := link.Sweep(rng, bands, 3)
	trueNs := p.TrueToF()*1e9 + link.TX.Osc.HWDelayNs + link.RX.Osc.HWDelayNs

	obs.SetEnabled(true)
	defer obs.SetEnabled(false)
	before := obsAliasResolves.Value()
	r, err := NewEstimator(Config{Mode: Bands5GHzOnly, MaxIter: 1200}).Estimate(bands, sweep)
	if err != nil {
		t.Fatal(err)
	}
	if d := r.ToF*1e9 - trueNs; math.Abs(d) > 0.5 {
		t.Errorf("fix %.2f ns off the true direct path, want within 0.5 ns", d)
	}
	if n := obsAliasResolves.Value() - before; n != 1 {
		t.Errorf("tof.alias.resolves moved by %d, want 1", n)
	}
}

// TestResolveAtMostOncePerEstimate streams full quirked sweeps through
// one Sweep. Each Estimate re-solves at most once, so tof.alias.resolves
// moves at most once per Estimate; the seed is pinned to a stream where
// it moves at least once.
func TestResolveAtMostOncePerEstimate(t *testing.T) {
	bands := wifi.USBands()
	rng := rand.New(rand.NewSource(23))
	office := sim.NewOffice(rng, sim.OfficeConfig{})
	link := office.NewLink(rng, office.RandomPlacement(rng, 15, false), sim.LinkConfig{Quirk: true})
	s := NewEstimator(Config{Mode: BandsFused, Quirk24: true, MaxIter: 1200}).NewSweep()

	obs.SetEnabled(true)
	defer obs.SetEnabled(false)
	start := obsAliasResolves.Value()
	for i := 0; i < 8; i++ {
		sweep := link.Sweep(rng, bands, 3)
		s.Reset()
		for j, b := range bands {
			if err := s.AddBand(b, sweep[j]); err != nil {
				t.Fatal(err)
			}
		}
		before := obsAliasResolves.Value()
		if _, err := s.Estimate(); err != nil {
			t.Fatal(err)
		}
		if n := obsAliasResolves.Value() - before; n > 1 {
			t.Errorf("sweep %d: tof.alias.resolves moved by %d, want at most 1", i, n)
		}
	}
	if obsAliasResolves.Value() == start {
		t.Error("no sweep re-solved: the stream no longer exercises the certificate; re-pin the seed")
	}
}

// memoScore is one pre-filled refit score: the candidate delay in ns and
// its plain and weighted residuals.
type memoScore struct {
	ns              float64
	plain, weighted float64
}

// memoScorer returns a scorer with no plan whose refit memo holds
// scores. Its gates are fixedGates on ‖h‖ = 1: a refit is trusted at
// plain ≤ 0.35, and a challenger beats an incumbent with a weighted
// residual below 0.85× the incumbent's and a plain one below it.
func memoScorer(scores []memoScore) *aliasScorer {
	s := &Sweep{}
	for _, m := range scores {
		s.refitMemo = append(s.refitMemo, refitMemo{
			cell:  int(math.Round(m.ns * 1e-9 / gridStep)),
			score: refitScore{plain: m.plain, weighted: m.weighted},
		})
	}
	return &aliasScorer{s: s, hNorm: 1, gates: fixedGates}
}

// solverFree runs f, failing the test if f scored a candidate the memo
// does not hold: the scorer has no plan, so a refit panics.
func solverFree(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("scored a candidate outside the memo: %v", r)
		}
	}()
	f()
}

// TestPlaceDecision drives the ±1-period placement of a 30 ns candidate
// (neighbours 5 and 55 ns) from a pre-filled memo, with no solve.
func TestPlaceDecision(t *testing.T) {
	for _, tc := range []struct {
		name      string
		scores    []memoScore
		wantNs    float64
		contested bool
	}{
		{"untrusted incumbent kept",
			[]memoScore{{30, 0.5, 0.5}}, 30, false},
		{"decisive flip on a cold sweep",
			[]memoScore{{30, 0.2, 0.2}, {5, 0.1, 0.1}, {55, 0.3, 0.3}}, 5, false},
		{"neighbour inside the margin contested",
			[]memoScore{{30, 0.2, 0.2}, {5, 0.18, 0.18}, {55, 0.3, 0.3}}, 30, true},
		{"weighted-only win not contested",
			[]memoScore{{30, 0.2, 0.2}, {5, 0.25, 0.1}, {55, 0.3, 0.3}}, 30, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sc := memoScorer(tc.scores)
			solverFree(t, func() {
				got, contested := sc.place(30e-9)
				if math.Abs(got*1e9-tc.wantNs) > 1e-6 || contested != tc.contested {
					t.Errorf("place = %.2f ns, contested %v; want %.2f ns, contested %v",
						got*1e9, contested, tc.wantNs, tc.contested)
				}
			})
		})
	}
}

// TestAdmitVirtual drives virtual admission over a 30 ns first peak from
// a pre-filled memo, with no solve.
func TestAdmitVirtual(t *testing.T) {
	for _, tc := range []struct {
		name     string
		virtuals []float64 // ns
		scores   []memoScore
		wantNs   float64
	}{
		{"wins on both columns, admitted", []float64{24},
			[]memoScore{{30, 0.2, 0.2}, {24, 0.1, 0.1}}, 24},
		{"untrusted first peak admits nothing", []float64{24},
			[]memoScore{{30, 0.5, 0.5}}, 30},
		{"untrusted virtual skipped", []float64{22, 24},
			[]memoScore{{30, 0.2, 0.2}, {22, 0.4, 0.05}, {24, 0.1, 0.1}}, 24},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sc := memoScorer(tc.scores)
			virtuals := make([]float64, len(tc.virtuals))
			for i, v := range tc.virtuals {
				virtuals[i] = v * 1e-9
			}
			solverFree(t, func() {
				if got := sc.admitVirtual(30e-9, virtuals); math.Abs(got*1e9-tc.wantNs) > 1e-6 {
					t.Errorf("admitVirtual = %.2f ns, want %.2f ns", got*1e9, tc.wantNs)
				}
			})
		})
	}
}

// spikeProfile is a profile on the estimator's τ grid that is zero but
// for one-cell spikes, each a {delay ns, height} pair.
func spikeProfile(spikes ...[2]float64) *Profile {
	n := int(math.Round(maxTau/gridStep)) + 1
	p := &Profile{Taus: make([]float64, n), Magnitude: make([]float64, n), Power: 2}
	for i := range p.Taus {
		p.Taus[i] = float64(i) * gridStep
	}
	for _, s := range spikes {
		p.Magnitude[int(math.Round(s[0]*1e-9/gridStep))] = s[1]
	}
	return p
}

// TestFamilyCandidates checks the solver-free candidate rules on
// synthetic profiles under fixedGates (anchor margin 1.3), on one
// scratch. 10 and 35 ns share one alias family; 8 and 40 ns do not.
// Every return counts the profile's dominant peaks exactly as a
// FindPeaks scan at peakThreshold does.
func TestFamilyCandidates(t *testing.T) {
	// One scratch serves every profile, as a Sweep's does.
	var cs candScratch
	dominant := func(prof *Profile) int {
		return len(dsp.FindPeaks(prof.Taus, prof.Magnitude, peakThreshold))
	}
	for _, tc := range []struct {
		name      string
		prof      *Profile
		firstNs   float64
		virtualNs []float64
		peaks     int
	}{
		// The 10/35 ns family's mass 1.4 beats the tallest vertex's 1.0
		// by more than the margin: the anchor moves to its tallest
		// member, 10 ns, with nothing dominant before it.
		{"anchor moves to a heavier family", spikeProfile([2]float64{10, 0.7}, [2]float64{35, 0.7}, [2]float64{40, 1}), 10, nil, 3},
		// At 1.2 the lead is inside the margin: the anchor stays at
		// 40 ns, and 35 ns is the earliest dominant peak of its window.
		{"anchor stays within the margin", spikeProfile([2]float64{10, 0.6}, [2]float64{35, 0.6}, [2]float64{40, 1}), 35, nil, 3},
		// The 8 ns family's member in the 40 ns anchor's window, 33 ns,
		// holds no real peak: one virtual candidate. The 20 ns spike is
		// above half the peak threshold but below the threshold itself:
		// scanned, yet neither dominant nor a candidate.
		{"uncovered family yields one virtual", spikeProfile([2]float64{8, 0.5}, [2]float64{20, 0.1}, [2]float64{40, 1}), 40, []float64{33}, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			first, virtuals, peaks, ok := familyCandidates(tc.prof, fixedGates, &cs)
			if !ok {
				t.Fatal("no candidates")
			}
			if math.Abs(first*1e9-tc.firstNs) > 1e-6 {
				t.Errorf("first = %.3f ns, want %.3f ns", first*1e9, tc.firstNs)
			}
			if len(virtuals) != len(tc.virtualNs) {
				t.Fatalf("virtuals = %v, want %v ns", virtuals, tc.virtualNs)
			}
			for i, v := range virtuals {
				if math.Abs(v*1e9-tc.virtualNs[i]) > 1e-6 {
					t.Errorf("virtual %d = %.3f ns, want %.3f ns", i, v*1e9, tc.virtualNs[i])
				}
			}
			if want := dominant(tc.prof); peaks != tc.peaks || peaks != want {
				t.Errorf("dominant peaks = %d, want %d (FindPeaks at the threshold: %d)", peaks, tc.peaks, want)
			}
		})
	}
	if _, _, peaks, ok := familyCandidates(spikeProfile(), fixedGates, &cs); ok || peaks != 0 {
		t.Errorf("an all-zero profile returned candidates (ok %v) or %d dominant peaks", ok, peaks)
	}

	// A background of 1 over two whole alias periods folds to mass 2 in
	// every residue; 0.75 at 5 ns, 1.125 at 30 ns and 0.125 at 55 ns
	// share a residue and fold to 2 too. No family rises above the
	// baseline, but the count still comes back: peaks at 0, 5.1 and
	// 30 ns dominate, and 55 ns sits between half the threshold and the
	// threshold.
	flat := spikeProfile([2]float64{5, 0.75}, [2]float64{30, 1.125}, [2]float64{55, 0.125})
	cells := int(math.Round(aliasPeriod / gridStep))
	for i := 0; i < 2*cells; i++ {
		if flat.Magnitude[i] == 0 {
			flat.Magnitude[i] = 1
		}
	}
	if _, _, peaks, ok := familyCandidates(flat, fixedGates, &cs); ok || peaks != 3 || peaks != dominant(flat) {
		t.Errorf("baseline-only profile: ok %v, %d dominant peaks, want false and 3 (FindPeaks at the threshold: %d)", ok, peaks, dominant(flat))
	}
}
