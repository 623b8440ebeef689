package tof

import (
	"math"
	"math/rand"
	"testing"

	"chronos/internal/csi"
	"chronos/internal/ndft"
	"chronos/internal/obs"
	"chronos/internal/rf"
	"chronos/internal/sim"
	"chronos/internal/wifi"
)

// ghostScenario is one deep-NLOS geometry whose LASSO optimum strands
// direct-path mass on a ±25 ns grating-lobe ghost vertex of the
// degenerate face: the PR-3 ablate-delay regression, distilled into a
// deterministic fixture. Seeds are pinned to draws where the solver's
// trajectory demonstrably lands on the ghost (Go's rand is stable, so
// these reproduce bit-for-bit). These scenarios run at 12 dB, where the
// solves stop at the duality gap like every other; the fixture checks
// that vertex ranking still lands on the ghost, so a stop rule that
// moved the trajectory off it fails here instead of passing vacuously.
type ghostScenario struct {
	name    string
	direct  float64 // ns
	extra   []rf.Path
	snr     float64
	maxIter int
	seed    int64
}

func ghostScenarios() []ghostScenario {
	weak := []rf.Path{{Delay: 37e-9, Gain: 1.8}, {Delay: 42e-9, Gain: 1.0}}
	deep := []rf.Path{{Delay: 49e-9, Gain: 1.2}}
	return []ghostScenario{
		{"weak-direct/6", 30, weak, 12, 400, 6},
		{"weak-direct/8", 30, weak, 12, 400, 8},
		{"weak-direct/42", 30, weak, 12, 400, 42},
		{"weak-direct/114", 30, weak, 12, 400, 114},
		{"deep/114", 44, deep, 12, 500, 114},
	}
}

// ghostMeasure produces the scenario's sweep and the true direct delay
// including the pair's hardware-chain bias (the fixture asserts raw
// estimates, so the hardware delay is part of the truth).
func (sc ghostScenario) measure() (bands []wifi.Band, sweep [][]csi.Pair, trueNs float64) {
	rng := rand.New(rand.NewSource(sc.seed))
	link := testLink(rng, sc.direct, sc.extra, false)
	link.SNRdB = sc.snr
	bands = wifi.Bands5GHz()
	sweep = link.Sweep(rng, bands, 3, 2.4e-3)
	return bands, sweep, sc.direct + link.TX.Osc.HWDelayNs + link.RX.Osc.HWDelayNs
}

// TestAliasFamilyRecoversGhostVertices is the alias-family acceptance
// fixture: on each pinned deep-NLOS draw, vertex ranking returns a
// ghost (an error beyond half the 25 ns alias period) while family
// ranking recovers the true alias cell.
func TestAliasFamilyRecoversGhostVertices(t *testing.T) {
	for _, sc := range ghostScenarios() {
		t.Run(sc.name, func(t *testing.T) {
			bands, sweep, trueNs := sc.measure()
			estFor := func(rk PeakRanking) float64 {
				est := NewEstimator(Config{Mode: Bands5GHzOnly, MaxIter: sc.maxIter, Ranking: rk})
				r, err := est.Estimate(bands, sweep)
				if err != nil {
					t.Fatal(err)
				}
				return math.Abs(r.ToF*1e9 - trueNs)
			}
			vErr := estFor(RankVertex)
			fErr := estFor(RankFamilies)
			if vErr <= 12.5 {
				t.Errorf("vertex ranking error %.2f ns — fixture no longer exhibits the ghost (solver changed?); re-pin seeds", vErr)
			}
			if fErr >= 12.5 {
				t.Errorf("family ranking error %.2f ns — ghost not recovered (vertex: %.2f ns)", fErr, vErr)
			}
			if fErr >= 6 {
				t.Errorf("family ranking error %.2f ns, want < 6 ns (right alias cell, modest NLOS blur)", fErr)
			}
		})
	}
}

// TestAliasFamilyMatchesVertexOnCleanLinks pins the conservative-
// extension contract: on clean LOS links the family chain must return
// exactly what the vertex chain returns — its extra machinery may only
// engage on decisive evidence.
func TestAliasFamilyMatchesVertexOnCleanLinks(t *testing.T) {
	bands := wifi.Bands5GHz()
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		link := testLink(rng, 10+float64(seed)*3, []rf.Path{{Delay: 30e-9, Gain: 0.5}}, false)
		sweep := link.Sweep(rng, bands, 3, 2.4e-3)
		var tofs [2]float64
		for i, rk := range []PeakRanking{RankVertex, RankFamilies} {
			est := NewEstimator(Config{Mode: Bands5GHzOnly, MaxIter: 1000, Ranking: rk})
			r, err := est.Estimate(bands, sweep)
			if err != nil {
				t.Fatal(err)
			}
			tofs[i] = r.ToF
		}
		if d := math.Abs(tofs[0]-tofs[1]) * 1e9; d > 0.05 {
			t.Errorf("seed %d: family ToF differs from vertex by %.3f ns on a clean link", seed, d)
		}
	}
}

// TestAliasWarmRefitCost pins the warm-start acceptance criterion: over
// a steady sweep stream, warm-seeded alias-window refits must cost at
// most 75% of the cold refits (they measure ~50% in practice), while
// producing the same fixes.
func TestAliasWarmRefitCost(t *testing.T) {
	bands := wifi.Bands5GHz()
	rng := rand.New(rand.NewSource(21))
	link := testLink(rng, 23, []rf.Path{{Delay: 27.2e-9, Gain: 0.6}, {Delay: 32.5e-9, Gain: 0.4}}, false)
	link.SNRdB = 26

	est := NewEstimator(Config{Mode: Bands5GHzOnly, MaxIter: 1200})
	cold := est.NewSweep()
	warm := est.NewSweep()
	warm.SetWarmStart(true)

	var coldAlias, warmAlias []int64
	for s := 0; s < 6; s++ {
		sweep := link.Sweep(rng, bands, 3, 2.4e-3)
		for i, b := range bands {
			if err := cold.AddBand(b, sweep[i]); err != nil {
				t.Fatal(err)
			}
			if err := warm.AddBand(b, sweep[i]); err != nil {
				t.Fatal(err)
			}
		}
		rc, err := cold.Estimate()
		if err != nil {
			t.Fatal(err)
		}
		rw, err := warm.Estimate()
		if err != nil {
			t.Fatal(err)
		}
		if d := math.Abs(rc.ToF-rw.ToF) * 1e9; d > 0.05 {
			t.Errorf("sweep %d: warm ToF differs from cold by %.3f ns", s, d)
		}
		if s > 0 { // the first warm sweep has nothing to warm from
			coldAlias = append(coldAlias, rc.AliasWork)
			warmAlias = append(warmAlias, rw.AliasWork)
		}
		cold.Reset()
		warm.Reset()
	}
	var cSum, wSum int64
	for i := range coldAlias {
		cSum += coldAlias[i]
		wSum += warmAlias[i]
	}
	if cSum == 0 {
		t.Fatal("no alias work recorded")
	}
	if ratio := float64(wSum) / float64(cSum); ratio > 0.75 {
		t.Errorf("warm alias work ratio %.3f, want ≤ 0.75 (cold %d, warm %d)", ratio, cSum, wSum)
	}
}

// TestTranslateWarmKeepsSeedsProfitable exercises the velocity
// feed-forward on a target drifting a full 1 ns (10 grid cells, beyond
// the solver's working-set dilation) per sweep: untranslated warm seeds
// miss the moved optimum, while translated seeds keep most sweeps on
// the restricted fast path — at identical fixes.
func TestTranslateWarmKeepsSeedsProfitable(t *testing.T) {
	bands := wifi.Bands5GHz()
	const driftNs = 1.0
	run := func(translate bool) (total int64, tofs []float64) {
		rng := rand.New(rand.NewSource(9))
		link := testLink(rng, 18, nil, false)
		link.SNRdB = 28
		est := NewEstimator(Config{Mode: Bands5GHzOnly, MaxIter: 1200})
		acc := est.NewSweep()
		acc.SetWarmStart(true)
		tau := 18.0
		for s := 0; s < 8; s++ {
			link.Channel = rf.NewChannel([]rf.Path{
				{Delay: tau * 1e-9, Gain: 1},
				{Delay: (tau + 4.2) * 1e-9, Gain: 0.6},
			})
			sweep := link.Sweep(rng, bands, 3, 2.4e-3)
			for i, b := range bands {
				if err := acc.AddBand(b, sweep[i]); err != nil {
					t.Fatal(err)
				}
			}
			r, err := acc.Estimate()
			if err != nil {
				t.Fatal(err)
			}
			total += r.Work
			tofs = append(tofs, r.ToF*1e9)
			acc.Reset()
			if translate {
				acc.TranslateWarm(driftNs * 1e-9)
			}
			tau += driftNs
		}
		return total, tofs
	}
	staticWork, staticToFs := run(false)
	transWork, transToFs := run(true)
	for i := range staticToFs {
		if d := math.Abs(staticToFs[i] - transToFs[i]); d > 0.1 {
			t.Errorf("sweep %d: translated ToF %.3f differs from untranslated %.3f", i, transToFs[i], staticToFs[i])
		}
	}
	if transWork >= staticWork*3/4 {
		t.Errorf("translated warm work %d not clearly below untranslated %d", transWork, staticWork)
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

// TestPickAliasShift pins RankVertex's ±1-period decision: a neighbour
// shifts the fix only below aliasMargin times the incumbent's residual,
// the lower neighbour wins, an exact tie goes to k = −1, a hypothesis
// skipped at either grid edge (NaN) neither wins nor contests, and
// contested marks a kept incumbent that a neighbour undercuts.
func TestPickAliasShift(t *testing.T) {
	nan := math.NaN()
	cases := []struct {
		name      string
		resids    [3]float64
		k         int
		contested bool
	}{
		{"incumbent best", [3]float64{2, 1, 3}, 0, false},
		{"-1 decisive", [3]float64{0.5, 1, 3}, -1, false},
		{"+1 decisive", [3]float64{3, 1, 0.5}, 1, false},
		{"both decisive, -1 lower", [3]float64{0.4, 1, 0.5}, -1, false},
		{"both decisive, +1 lower", [3]float64{0.5, 1, 0.4}, 1, false},
		{"tie goes to -1", [3]float64{0.5, 1, 0.5}, -1, false},
		{"at the margin stays", [3]float64{aliasMargin, 1, 2}, 0, true},
		{"near -1 contests", [3]float64{0.9, 1, 2}, 0, true},
		{"near +1 contests", [3]float64{2, 1, 0.9}, 0, true},
		{"low edge skipped", [3]float64{nan, 1, 0.9}, 0, true},
		{"low edge skipped, +1 decisive", [3]float64{nan, 1, 0.5}, 1, false},
		{"high edge skipped", [3]float64{0.5, 1, nan}, -1, false},
		{"high edge skipped, kept", [3]float64{1.5, 1, nan}, 0, false},
		{"incumbent not fitted", [3]float64{0.1, nan, 0.1}, 0, false},
	}
	for _, c := range cases {
		if k, contested := pickAliasShift(c.resids); k != c.k || contested != c.contested {
			t.Errorf("%s %v: k=%d contested=%v, want k=%d contested=%v",
				c.name, c.resids, k, contested, c.k, c.contested)
		}
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

// TestWindowWarmStateFamilyStable is the unit regression for the PR-4
// warm-key collision: seeds are labeled by the candidate delay they
// track, so two hypotheses whose candidates share a period cell — the
// deep-NLOS two-dominant-families case, which the old period-index
// labels mapped to one clobbered slot — keep distinct warm states,
// while one hypothesis drifting between sweeps keeps matching its own
// seed.
func TestWindowWarmStateFamilyStable(t *testing.T) {
	est := NewEstimator(Config{Mode: Bands5GHzOnly})
	s := est.NewSweep()
	s.SetWarmStart(true)
	key := planKey{power: 2, window: true}

	// Two families in period cell 1 (old labels: both round(c/25ns)=1).
	a := s.windowWarmState(key, 30e-9)
	b := s.windowWarmState(key, 37e-9)
	if a == b {
		t.Fatal("candidates 30 ns and 37 ns share one warm state (period-index collision)")
	}
	// A drifted revisit matches the original seed, not a fresh one.
	if got := s.windowWarmState(key, 30.4e-9); got != a {
		t.Error("0.4 ns drift did not match the tracked seed")
	}
	// The matched seed re-anchors: a further drift from the new position
	// still matches.
	if got := s.windowWarmState(key, 30.9e-9); got != a {
		t.Error("re-anchored seed lost its hypothesis after cumulative drift")
	}
	// The other family's seed is untouched by the drift updates.
	if got := s.windowWarmState(key, 37e-9); got != b {
		t.Error("neighbor family's seed was disturbed")
	}
	// Same residue one period apart is a different hypothesis.
	if got := s.windowWarmState(key, 55e-9); got == a || got == b {
		t.Error("candidate one period away reused another hypothesis's seed")
	}
	// Warm starting off: no state.
	s.SetWarmStart(false)
	if s.windowWarmState(key, 30e-9) != nil {
		t.Error("warm state handed out while warm starting is off")
	}
}

// TestWindowWarmStateEviction pins the per-geometry seed bound: the
// least-recently-matched seed is recycled once windowSeedMax distinct
// hypotheses accumulate.
func TestWindowWarmStateEviction(t *testing.T) {
	est := NewEstimator(Config{Mode: Bands5GHzOnly})
	s := est.NewSweep()
	s.SetWarmStart(true)
	key := planKey{power: 2, window: true}
	first := s.windowWarmState(key, 5e-9)
	s.estSeq++
	for i := 1; i < windowSeedMax; i++ {
		s.windowWarmState(key, float64(i)*60e-9)
	}
	if len(s.warmWindows[key]) != windowSeedMax {
		t.Fatalf("seed count %d, want %d", len(s.warmWindows[key]), windowSeedMax)
	}
	// The next unmatched candidate recycles the stalest seed (the first,
	// stamped at an older estSeq).
	got := s.windowWarmState(key, 2000e-9)
	if got != first {
		t.Error("eviction did not recycle the least-recently-matched seed")
	}
	if len(s.warmWindows[key]) != windowSeedMax {
		t.Errorf("eviction grew the list to %d", len(s.warmWindows[key]))
	}
}

// TestCollidingFamiliesKeepWarm is the PR-5 acceptance fixture for
// family-stable warm keys: a deep-NLOS multipath geometry (weak direct
// under two strong late reflections) whose refit candidates land two
// alias hypotheses in one period cell. Under the PR-4 period-index
// labels those hypotheses clobbered each other's seeds every sweep and
// the efficacy policy reverted exactly these refits to cold; with
// candidate-keyed seeds the stream must hold warm alias work at or
// below 75% of cold while producing identical fixes.
func TestCollidingFamiliesKeepWarm(t *testing.T) {
	bands := wifi.Bands5GHz()
	rng := rand.New(rand.NewSource(9))
	link := testLink(rng, 30, []rf.Path{{Delay: 37e-9, Gain: 1.8}, {Delay: 42e-9, Gain: 1.0}}, false)
	link.SNRdB = 26

	est := NewEstimator(Config{Mode: Bands5GHzOnly, MaxIter: 1200})
	cold := est.NewSweep()
	warm := est.NewSweep()
	warm.SetWarmStart(true)

	var coldWork, warmWork int64
	for s := 0; s < 6; s++ {
		sweep := link.Sweep(rng, bands, 3, 2.4e-3)
		for i, b := range bands {
			if err := cold.AddBand(b, sweep[i]); err != nil {
				t.Fatal(err)
			}
			if err := warm.AddBand(b, sweep[i]); err != nil {
				t.Fatal(err)
			}
		}
		rc, err := cold.Estimate()
		if err != nil {
			t.Fatal(err)
		}
		rw, err := warm.Estimate()
		if err != nil {
			t.Fatal(err)
		}
		if d := math.Abs(rc.ToF-rw.ToF) * 1e9; d > 0.05 {
			t.Errorf("sweep %d: warm ToF differs from cold by %.4f ns", s, d)
		}
		if s > 0 {
			coldWork += rc.AliasWork
			warmWork += rw.AliasWork
		}
		cold.Reset()
		warm.Reset()
	}
	if coldWork == 0 {
		t.Fatal("fixture scored no alias refits")
	}
	if ratio := float64(warmWork) / float64(coldWork); ratio > 0.75 {
		t.Errorf("colliding-families warm/cold alias work %.3f, want ≤ 0.75", ratio)
	}
	// The pinned property that makes this the collision fixture: at
	// least one window geometry retains two hypothesis seeds in one
	// period cell — the configuration the period-index labels collapsed.
	colliding := 0
	for _, list := range warm.warmWindows {
		byPeriod := map[int]int{}
		for _, ws := range list {
			byPeriod[int(math.Round(ws.cand/aliasPeriod))]++
		}
		for _, c := range byPeriod {
			if c > 1 {
				colliding++
			}
		}
	}
	if colliding == 0 {
		t.Error("fixture no longer places two hypotheses in one period cell; re-pin the geometry")
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
	link.Channel = office.Channel(office.RandomPlacement(rng, 8, false), 5.5e9)
	link.Sweep(rng, bands, 3, 2.4e-3)
	link.Channel = office.Channel(p, 5.5e9)
	sweep := link.Sweep(rng, bands, 3, 2.4e-3)
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

// TestResolveAtMostOncePerEstimate streams fused sweeps (the quirked
// 2.4 GHz group beside the 5 GHz one) through a warm sweep. The seed is
// pinned to a stream where both groups come out contested on some
// sweeps; only the primary group may re-solve, so tof.alias.resolves
// moves at most once per Estimate, and at least once over the stream.
func TestResolveAtMostOncePerEstimate(t *testing.T) {
	bands := wifi.USBands()
	rng := rand.New(rand.NewSource(23))
	office := sim.NewOffice(rng, sim.OfficeConfig{})
	link := office.NewLink(rng, office.RandomPlacement(rng, 15, false), sim.LinkConfig{Quirk: true})
	s := NewEstimator(Config{Mode: BandsFused, Quirk24: true, MaxIter: 1200}).NewSweep()
	s.SetWarmStart(true)

	obs.SetEnabled(true)
	defer obs.SetEnabled(false)
	start := obsAliasResolves.Value()
	for i := 0; i < 8; i++ {
		sweep := link.Sweep(rng, bands, 3, 2.4e-3)
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
