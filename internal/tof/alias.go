package tof

import (
	"math"
	"sort"

	"chronos/internal/detmath"
	"chronos/internal/dsp"
	"chronos/internal/ndft"
)

// aliasWindow is the width of the disambiguation refit window in τ:
// [cand−2 ns, cand+22 ns]. 24 ns < the 25 ns alias period, so the window
// holds at most one hypothesis.
const aliasWindow = 24e-9

// windowPlan resolves the canonical alias-refit window plan for one band
// group: the [0, aliasWindow] grid in the group's h̃ᵖ delay domain, built
// once per geometry in the shared registry and reused by every hypothesis
// of every sweep (a window shift is a per-frequency phase rotation).
func (e *Estimator) windowPlan(freqs []float64, power int) (*ndft.Plan, planKey, error) {
	pf := float64(power)
	key := newPlanKey(freqs, power)
	key.window = true
	plan, err := e.plans.planFor(key, func() (*ndft.Plan, error) {
		return ndft.NewPlan(freqs, ndft.TauGrid(pf*aliasWindow, pf*gridStep))
	})
	return plan, key, err
}

// windowRefit bundles the per-group refit context — the canonical window
// plan and the scratch every hypothesis solve of one estimate call
// shares — so the solve call sites thread one receiver instead of a long
// positional argument list.
type windowRefit struct {
	e     *Estimator
	s     *Sweep
	plan  *ndft.Plan
	key   planKey
	freqs []float64
	h     dsp.Vec
	power int
	noise float64 // per-sweep ‖w‖₂ estimate; rotation preserves it
	rot   dsp.Vec
	dst   *ndft.Result
}

func (e *Estimator) newWindowRefit(freqs []float64, h dsp.Vec, power int, s *Sweep, noise float64) (*windowRefit, error) {
	plan, key, err := e.windowPlan(freqs, power)
	if err != nil {
		return nil, err
	}
	return &windowRefit{
		e: e, s: s, plan: plan, key: key, freqs: freqs, h: h, power: power, noise: noise,
		rot: make(dsp.Vec, len(h)), dst: &ndft.Result{},
	}, nil
}

// solve fits the group measurement against the canonical window plan
// with the delay origin shifted to cand−2 ns (clamped at 0): fitting on
// [lo, lo+W] equals fitting the phase-rotated measurement h·e^{+j2πf·lo}
// on [0, W], since a delay shift is a per-frequency rotation that
// preserves the residual norm. The candidate delay labels the alias
// hypothesis for the sweep's per-hypothesis warm state (family-stable
// nearest-candidate matching, see windowWarmState): the window tracks
// the candidate, so in window coordinates the profile barely moves
// between sweeps and the previous converged window profile is an
// excellent seed (forceCold bypasses the seed; the result still
// refreshes the warm state). Warm seeding follows the same
// measured-efficacy policy as the main solve — after warmStrikes
// consecutive warm refits that cost more than the cold baseline, that
// hypothesis permanently reverts to cold starts.
//
// alpha, when nonzero, overrides the solver's per-measurement α
// auto-scaling: residuals of competing hypotheses are only comparable
// under one shared sparsity penalty, since the auto α grows with the
// window's atom correlations and would shrink the well-matched window
// harder than a displaced one. eps, when nonzero, loosens the iterate
// convergence tolerance: a refit feeds a 15%-margin residual comparison,
// not a peak readout, so ranking callers stop at 1e−3·‖h‖ instead of
// ringing toward the solver's default 1e−6 — which both cuts the cold
// refit cost and lets refits actually converge, the precondition for
// retaining their profiles as next-sweep warm seeds. w, when non-nil,
// additionally scores the refit by the w-weighted residual (see
// aliasWeights); otherwise the weighted score equals the plain one.
func (wr *windowRefit) solve(cand, alpha, eps float64, w []float64, forceCold bool) (refitScore, int64, error) {
	obsAliasRefits.Inc()
	rotateWindow(wr.freqs, wr.h, cand, float64(wr.power), wr.rot)
	g := wr.s.windowWarmState(wr.key, cand)
	// Without a noise estimate (none usable, or the precise re-solve of
	// a contested placement) the refit scores feed decisions whose
	// margins sit near the score noise, and a warm-seeded score that
	// lands on the other side of a margin than the cold score would make
	// a warm stream decide differently than a cold one. Scoring those
	// refits cold keeps warm-stream decisions exactly equal to
	// cold-stream decisions where the evidence is thin; the warm savings
	// concentrate in the regime where the margins have real slack.
	if wr.noise <= 0 {
		forceCold = true
	}
	var warm dsp.Vec
	if g != nil && !forceCold && !g.off && len(g.profile) == len(wr.plan.Taus) {
		warm = g.profile
	}
	res, err := wr.plan.Solve(ndft.SolveRequest{
		H: wr.rot, Warm: warm, Dst: wr.dst,
		InvertOptions: ndft.InvertOptions{
			Alpha: alpha, Epsilon: eps, MaxIter: 600,
			NoiseFloor: wr.e.solveFloor(wr.noise),
		},
	})
	if err != nil {
		return refitScore{}, 0, err
	}
	if g != nil {
		g.observe(warm != nil, res)
	}
	score := refitScore{plain: res.Residual, weighted: res.Residual}
	if w != nil {
		score.weighted = wr.plan.WeightedResidual(res.Profile, wr.rot, w)
	}
	return score, res.Work, nil
}

// rotateWindow writes h·e^{+j2πf·lo} into rot for the refit window
// anchored at candidate cand: lo = (cand − 2 ns)·pf, clamped at 0 — the
// delay-shift rotation that maps the candidate's window onto the
// canonical [0, W] plan. Every consumer of a window measurement (the
// refits and the shared-α reference) goes through this one function so
// the anchoring can never diverge between them.
func rotateWindow(freqs []float64, h dsp.Vec, cand, pf float64, rot dsp.Vec) {
	lo := (cand - 2e-9) * pf
	if lo < 0 {
		lo = 0
	}
	for i, f := range freqs {
		ph := math.Mod(2*math.Pi*f*lo, 2*math.Pi)
		rot[i] = dsp.Mul(h[i], detmath.Rect(1, ph))
	}
}

// aliasWeights scores each band's power to discriminate alias
// hypotheses. Two hypotheses one period apart differ by the rotation
// e^{−j2πf·p·P} per band: a band whose f·p·P is an integer (the
// on-lattice raster) fits every hypothesis identically and contributes
// only noise to a residual comparison, so placement weights each band by
// sin²(π·f·p·P) — zero on the lattice, maximal half a cycle off it.
// Returns nil when no band discriminates (a pure-raster geometry), in
// which case callers fall back to the unweighted residual.
func aliasWeights(freqs []float64, power int, period float64) []float64 {
	w := make([]float64, len(freqs))
	any := false
	for i, f := range freqs {
		frac := math.Mod(f*float64(power)*period, 1)
		s := detmath.Sin(math.Pi * frac)
		w[i] = s * s
		if w[i] > 1e-6 {
			any = true
		}
	}
	if !any {
		return nil
	}
	return w
}

// aliasMargin is the historical fixed refit margin: a refit hypothesis
// displaces the incumbent only when its residual beats the incumbent's
// by this factor — residual comparisons are noisy when the off-lattice
// channels are faded, so near-ties must never flip decisions.
const aliasMargin = 0.85

// anchorMargin is the historical fixed margin for how decisively another
// family's folded mass must beat the tallest vertex's family before it
// takes over as the window anchor. Folding sums mass across
// ~maxTau/aliasPeriod periods, so two unrelated noise bumps that happen
// to share a residue can edge past a real path's family; a genuine split
// or stranded path carries its full conserved mass and clears the
// margin, chance alignments rarely do.
const anchorMargin = 1.3

// refitFitGate is the historical fixed bound on how much of the
// measurement a window refit may leave unexplained before its residual
// comparisons stop being evidence: when the best fit still strands over
// this fraction of ‖h‖ (deep NLOS, low SNR, model mismatch), hypothesis
// residuals differ only by noise and no refit outcome may overturn the
// profile's own placement.
const refitFitGate = 0.35

// evidenceGates bundles the alias-evidence thresholds one estimate uses:
// the refit displacement margin, the anchor takeover margin, and the
// refit fit-quality gate.
type evidenceGates struct {
	refitMargin  float64
	anchorMargin float64
	fitGate      float64
}

// fixedGates are the historical constants, tuned on the simulated
// testbed at its standard campaign SNR (relative noise ≈ 0.05 per band
// group). They remain the fallback when no per-sweep noise estimate
// exists.
var fixedGates = evidenceGates{refitMargin: aliasMargin, anchorMargin: anchorMargin, fitGate: refitFitGate}

// Slopes of the noise-adaptive evidence thresholds in the relative noise
// estimate, anchored so that at the historical tuning point
// (noiseRel ≈ 0.05) each gate reproduces its fixed constant:
//
//	refit margin  1 − 3·noiseRel   (0.85 at 0.05): cleaner sweeps make
//	  residual comparisons sharper, so near-ties flip on thinner margins;
//	  noisier sweeps must be more conservative.
//	anchor margin 1 + 6·noiseRel   (1.3 at 0.05): folded-mass contrasts
//	  blur as noise mass spreads across residues.
//	fit gate      7·noiseRel       (0.35 at 0.05): the residual a refit
//	  may leave unexplained and still count as evidence scales directly
//	  with the noise the best possible fit must leave behind.
//
// Clamps keep degenerate estimates (near-noiseless fixtures, very deep
// fades) inside the regime the chain was validated in.
const (
	refitMarginSlope = 3.0
	anchorSlope      = 6.0
	fitGateSlope     = 7.0
)

// gatesFor derives the estimate's evidence thresholds from the
// per-sweep relative noise estimate, making the family chain
// self-calibrating across SNR regimes; the historical constants remain
// as the no-estimate fallback.
func gatesFor(noiseRel float64) evidenceGates {
	if noiseRel <= 0 {
		return fixedGates
	}
	return evidenceGates{
		refitMargin:  clampF(1-float64(refitMarginSlope*noiseRel), 0.6, 0.97),
		anchorMargin: clampF(1+float64(anchorSlope*noiseRel), 1.1, 1.9),
		fitGate:      clampF(fitGateSlope*noiseRel, 0.15, 0.6),
	}
}

func clampF(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// refitScore is one candidate's anchored refit outcome: the plain data
// residual and the discrimination-weighted one (equal when the geometry
// has no discriminating bands).
type refitScore struct {
	plain    float64
	weighted float64
}

// aliasScorer memoizes anchored window refits for one band group within
// one estimate call: the first-peak scan and the final placement often
// score the same candidate, and a candidate's score is deterministic
// within a call, so each distinct grid cell is solved once.
type aliasScorer struct {
	wr       *windowRefit
	hNorm    float64
	gates    evidenceGates // noise-adaptive evidence thresholds
	alpha    float64       // shared sparsity penalty; set from the first candidate
	weights  []float64
	memo     map[int]refitScore
	memoCold map[int]refitScore // forced-cold confirmation scores
	work     int64
}

// newAliasScorer builds the scorer for one group's placement. floor is
// the group's ‖w‖₂ estimate, or 0 on the precise re-solve of a contested
// placement, which stops every refit on the iterate rule and scores it
// cold. Under StopIterate the refits stop on the iterate rule whatever
// floor is (solveFloor), and a positive floor only lets them start warm.
// The evidence gates adapt to the group's noise either way: they are
// decision thresholds, not solve tolerances.
func (e *Estimator) newAliasScorer(g *bandGroup, s *Sweep, floor float64) (*aliasScorer, error) {
	wr, err := e.newWindowRefit(g.freqs, g.h, g.power, s, floor)
	if err != nil {
		return nil, err
	}
	return &aliasScorer{
		wr:      wr,
		hNorm:   dsp.Norm2(g.h),
		gates:   gatesFor(g.noiseRel),
		weights: aliasWeights(g.freqs, g.power, aliasPeriod),
		memo:    make(map[int]refitScore, 4),
	}, nil
}

// score runs (or recalls) the anchored refit for one direct-path
// candidate. Warm state is labeled by the candidate's period index, which
// is stable while the tracked path stays within one alias cell. The
// first candidate scored fixes the shared sparsity penalty α for every
// later hypothesis — callers score their incumbent first, so α is scaled
// to the window the solver's own evidence points at.
//
// forceCold bypasses warm seeding (the result still refreshes the warm
// state): decisive actions — placement flips, virtual admissions — are
// confirmed on cold refits, so a warm-seeded stream takes exactly the
// decisions a cold stream would, and a marginal warm solve can never
// manufacture a ±1-period flip the data does not support. On sweeps
// without warm starting both modes are identical and share one memo.
func (sc *aliasScorer) score(cand float64, forceCold bool) refitScore {
	cell := int(math.Round(cand / gridStep))
	memo := sc.memo
	if forceCold && sc.wr.s.warm {
		if sc.memoCold == nil {
			sc.memoCold = make(map[int]refitScore, 4)
		}
		memo = sc.memoCold
	}
	if v, ok := memo[cell]; ok {
		return v
	}
	if sc.alpha == 0 {
		sc.alpha = sc.referenceAlpha(cand)
	}
	v, w, err := sc.wr.solve(cand, sc.alpha, 1e-3*sc.hNorm, sc.weights, forceCold && sc.wr.s.warm)
	sc.work += w
	out := refitScore{plain: math.Inf(1), weighted: math.Inf(1)}
	if err == nil {
		out = v
	}
	memo[cell] = out
	if !sc.wr.s.warm {
		// Cold sessions: both modes are the same solve.
		sc.memoCold = sc.memo
	}
	return out
}

// referenceAlpha resolves the shared refit α: the solver's standard
// scaling (10% of the largest atom correlation, times the ablation
// factor) evaluated on the reference candidate's rotated window.
func (sc *aliasScorer) referenceAlpha(cand float64) float64 {
	rotateWindow(sc.wr.freqs, sc.wr.h, cand, float64(sc.wr.power), sc.wr.rot)
	scale := sc.wr.e.cfg.AlphaFactor
	if scale == 0 {
		scale = 1
	}
	return 0.1 * scale * sc.wr.plan.MaxCorrelation(sc.wr.rot)
}

// trusted reports whether a refit outcome explains enough of the
// measurement for its residual comparisons to carry evidence. The gate
// scales with the per-sweep noise estimate: at low SNR the best
// possible fit strands more of ‖h‖, so a fixed gate would reject
// genuine evidence there and accept noise-floor comparisons at high
// SNR.
func (sc *aliasScorer) trusted(r refitScore) bool {
	return !math.IsInf(r.plain, 1) && r.plain <= sc.gates.fitGate*sc.hNorm
}

// beats reports whether challenger fits decisively better than the
// incumbent: the noise-adaptive margin on the discrimination-weighted
// residual, plus a plain-residual sanity check so a weighted fluke on
// faded bands cannot flip a decision the full measurement contradicts.
func (sc *aliasScorer) beats(challenger, incumbent refitScore) bool {
	return challenger.weighted < sc.gates.refitMargin*incumbent.weighted &&
		challenger.plain < incumbent.plain
}

// familyRank extracts the direct-path delay with alias-family ranking.
// It follows the §6 windowed first-peak structure of firstPeakWindowed,
// with three ghost-insensitivity repairs:
//
//  1. dominance and the window anchor are ranked by baseline-subtracted
//     folded family mass, so a path whose vertex the solver split across
//     grating-lobe members keeps its full rank;
//  2. a dominant family with no real peak inside the search window
//     contributes a virtual candidate at its in-window member position —
//     admitted as the first peak only when its anchored refit beats the
//     best real candidate decisively (energy stranded wholly on an
//     out-of-window ghost is recoverable, but never on a noisy tie);
//  3. the final ±1-period placement refit compares
//     discrimination-weighted residuals (aliasWeights), sharpening the
//     §4 test on geometries with off-lattice bands while leaving
//     pure-raster geometries to the solver's own placement.
//
// ok is false when the profile has no peak or family to anchor on or
// the refits failed; callers then place firstPeakWindowed's peak with
// placeCandidate. The evidence thresholds (anchor margin, refit margin,
// fit gate) derive from the group's per-sweep relative noise estimate;
// refitFloor is the refit solver's noise floor (see newAliasScorer).
// contested is placeCandidate's verdict on the final placement.
func (e *Estimator) familyRank(g *bandGroup, prof *Profile, s *Sweep, refitFloor float64) (tau float64, ok, contested bool, work int64) {
	gates := gatesFor(g.noiseRel)
	cells := int(math.Round(aliasPeriod / gridStep))
	period := float64(cells) * gridStep

	// Half the first-peak floor admits direct paths whose tallest member
	// was halved by a family split; what this lets through is filtered
	// by family dominance below.
	peaks := dsp.FindPeaks(prof.Taus, prof.Magnitude, 0.5*peakThreshold)
	if len(peaks) == 0 {
		return 0, false, false, 0
	}

	// Folding sums the nonnegative noise floor of every period into each
	// residue, so family mass is measured above the folded baseline (the
	// median residue mass) — otherwise noise families at campaign SNR
	// pass any threshold set relative to the strongest family.
	fold := ndft.FoldMass(nil, prof.Magnitude, cells)
	sorted := append([]float64(nil), fold...)
	sort.Float64s(sorted)
	baseline := sorted[len(sorted)/2]
	famMass := func(idx int) float64 {
		r := ((idx % cells) + cells) % cells
		m := fold[r] - baseline
		// A refined peak can straddle a cell boundary; take the best of
		// the neighboring residues.
		if v := fold[(r+cells-1)%cells] - baseline; v > m {
			m = v
		}
		if v := fold[(r+1)%cells] - baseline; v > m {
			m = v
		}
		return m
	}

	// Anchor: the tallest vertex's family, displaced only by a family
	// whose folded mass is decisively larger (anchorMargin). Raw height
	// breaks within-family ties, so the anchor sits on the member the
	// solver believes in.
	tallest := peaks[0]
	for _, p := range peaks[1:] {
		if p.Power > tallest.Power {
			tallest = p
		}
	}
	anchor, anchorMass := tallest, famMass(tallest.Index)
	byMass, byMassVal := anchor, anchorMass
	for _, p := range peaks {
		m := famMass(p.Index)
		if m > byMassVal || (m == byMassVal && p.Power > byMass.Power) {
			byMass, byMassVal = p, m
		}
	}
	if byMassVal > gates.anchorMargin*anchorMass || anchorMass <= 0 {
		anchor, anchorMass = byMass, byMassVal
	}
	if anchorMass <= 0 {
		return 0, false, false, 0
	}
	floor := peakThreshold * anchorMass
	lo := anchor.X - searchWindow

	// Earliest dominant real peak inside the window (the anchor itself
	// when nothing dominant precedes it).
	first := anchor
	for _, p := range peaks {
		if p.X >= lo && p.X < first.X && famMass(p.Index) >= floor {
			first = p
		}
	}

	scorer, err := e.newAliasScorer(g, s, refitFloor)
	if err != nil {
		return 0, false, false, 0
	}

	// Virtual candidates: dominant families whose in-window member
	// position holds no real peak — their mass is stranded on an
	// out-of-window ghost member. Each is admitted over the current
	// first peak only on a decisively better anchored refit, and only
	// when the refits explain the data well enough to be evidence.
	virtuals := virtualCandidates(peaks, famMass, floor, lo, first.X, anchor.X, period)
	if len(virtuals) > 0 {
		firstScore := scorer.score(first.X, false)
		if scorer.trusted(firstScore) {
			for _, v := range virtuals {
				if vs := scorer.score(v, false); scorer.trusted(vs) && scorer.beats(vs, firstScore) {
					// Admitting a virtual candidate is a decisive action:
					// confirm it on cold refits before acting.
					fsC, vsC := scorer.score(first.X, true), scorer.score(v, true)
					if scorer.trusted(fsC) && scorer.trusted(vsC) && scorer.beats(vsC, fsC) {
						tau, contested = e.placeCandidate(scorer, v)
						return tau, true, contested, scorer.work
					}
				}
			}
		}
	}
	tau, contested = e.placeCandidate(scorer, first.X)
	return tau, true, contested, scorer.work
}

// virtualCandidates returns, in ascending delay order, the in-window
// member positions of dominant families that have no real candidate peak
// nearby and that would precede the current first peak.
func virtualCandidates(peaks []dsp.Peak, famMass func(int) float64, floor, lo, firstX, anchorX, period float64) []float64 {
	var out []float64
	for _, p := range peaks {
		if famMass(p.Index) < floor {
			continue
		}
		// The family's unique member position at or before the anchor.
		v := anchorX - math.Mod(anchorX-p.X+float64(64*period), period)
		if v < lo-gridStep || v >= firstX-2*gridStep || v < -1e-9 {
			continue
		}
		covered := false
		for _, q := range peaks {
			if math.Abs(q.X-v) <= 2*gridStep {
				covered = true
				break
			}
		}
		if covered {
			continue
		}
		dup := false
		for _, u := range out {
			if math.Abs(u-v) <= 2*gridStep {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, v)
		}
	}
	sort.Float64s(out)
	return out
}

// placeCandidate resolves which grating-lobe member the chosen first
// peak belongs to: the §4 refit over cand + k·aliasPeriod, k ∈ {−1,0,1},
// with the candidate as the incumbent. All hypotheses share one α and
// compare discrimination-weighted residuals, refits are warm-started,
// and the decision is gated on fit quality so an uninformative refit can
// never displace the solver's placement.
//
// contested reports a kept, trusted candidate that a ±1-period
// neighbour out-fits on both the weighted and the plain residual, though
// not by the refit margin. It is judged on the scores the decision
// finally stood on: the cold ones when a warm flip went to its cold
// confirmation, the first-pass ones otherwise.
func (e *Estimator) placeCandidate(scorer *aliasScorer, cand float64) (best float64, contested bool) {
	decide := func(forceCold bool) (float64, bool) {
		base := scorer.score(cand, forceCold)
		if !scorer.trusted(base) {
			return cand, false
		}
		best, bestScore, near := cand, base, false
		for k := -1; k <= 1; k += 2 {
			c := cand + float64(float64(k)*aliasPeriod)
			if c < -1e-9 || c > maxTau {
				continue
			}
			sc := scorer.score(c, forceCold)
			if scorer.beats(sc, base) && sc.weighted < bestScore.weighted {
				best, bestScore = c, sc
			} else if sc.weighted < base.weighted && sc.plain < base.plain {
				near = true
			}
		}
		return best, near && best == cand
	}
	best, contested = decide(false)
	if best != cand {
		// A ±1-period flip is rare and decisive: confirm it with cold
		// refits so warm-seeded streams place exactly as cold ones.
		best, contested = decide(true)
	}
	if best != cand {
		obsAliasFlips.Inc()
	}
	return best, contested
}
