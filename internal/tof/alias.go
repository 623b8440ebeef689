package tof

import (
	"math"
	"slices"
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
// of every sweep (a window shift is a per-frequency phase rotation), and
// the group's aliasWeights, built with it. The weights are shared: read
// them, never write them.
func (e *Estimator) windowPlan(freqs []float64, power int) (*ndft.Plan, []float64, error) {
	pf := float64(power)
	key := newPlanKey(freqs, power)
	key.window = true
	ent := e.plans.entryFor(key, func(ent *planEntry) {
		ent.plan, ent.err = ndft.NewPlan(freqs, ndft.TauGrid(pf*aliasWindow, pf*gridStep))
		ent.weights = aliasWeights(freqs, power, aliasPeriod)
	})
	return ent.plan, ent.weights, ent.err
}

// rotateWindow writes h·e^{+j2πf·lo} into rot for the refit window
// anchored at candidate cand: lo = (cand − 2 ns)·pf, clamped at 0 — the
// delay-shift rotation that maps the candidate's window onto the
// canonical [0, W] plan. Every refit, and the shared α read off the
// first refit's window, goes through this one function, so the
// anchoring can never diverge between them.
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

// refitMemo is one memoized refit score, keyed by the candidate's τ grid
// cell.
type refitMemo struct {
	cell  int
	score refitScore
}

// aliasScorer places the direct path of one band group within one
// estimate call. Every hypothesis goes through one refit (see refit),
// and each score lands in the sweep's refit memo: virtual admission and
// the ±1-period placement often score the same candidate, and a score
// is deterministic within a call, so each grid cell is solved once. The
// memo, the rotated measurement and the refit result are
// Sweep-owned scratch, reset for each new scorer.
type aliasScorer struct {
	e       *Estimator
	s       *Sweep
	plan    *ndft.Plan // the group's canonical window plan
	floor   float64    // the refits' noise floor; see placeDirectPath
	hNorm   float64
	gates   evidenceGates // noise-adaptive evidence thresholds
	alpha   float64       // shared sparsity penalty; set from the first candidate
	weights []float64
	work    int64
}

// placeDirectPath places the direct-path delay on one solve attempt's
// profile. It follows the §6 windowed first-peak structure of
// firstPeakWindowed, with three ghost-insensitivity repairs:
//
//  1. dominance and the window anchor are ranked by baseline-subtracted
//     folded family mass (familyCandidates), so a path whose vertex the
//     solver split across grating-lobe members keeps its full rank;
//  2. a dominant family with no real peak inside the search window
//     contributes a virtual candidate at its in-window member position,
//     admitted as the first peak only when its anchored refit beats the
//     best real candidate decisively (admitVirtual): energy stranded
//     wholly on an out-of-window ghost is recoverable, but never on a
//     noisy tie;
//  3. the final ±1-period placement refit compares
//     discrimination-weighted residuals (place, aliasWeights), sharpening
//     the §4 test on geometries with off-lattice bands while leaving
//     pure-raster geometries to the solver's own placement.
//
// A profile on which no family rises above the folded baseline places
// firstPeakWindowed's peak through the same scorer; a profile with no
// peak leaves fix unplaced. The error is the window plan's build
// failure. The evidence gates derive from the sweep's relative noise
// estimate whatever floor is: they are decision thresholds, not solve
// tolerances. floor is the refits' noise floor: the sweep's ‖w‖₂
// estimate, or 0 on the precise re-solve of a contested placement, which
// stops every refit on the iterate rule.
func (e *Estimator) placeDirectPath(fix *groupFix, s *Sweep, floor float64) error {
	gates := gatesFor(s.noiseRel)
	first, virtuals, peaks, ok := familyCandidates(fix.prof, gates)
	fix.peaks = peaks
	if !ok {
		if first, ok = firstPeakWindowed(fix.prof); !ok {
			return nil
		}
	}
	plan, weights, err := e.windowPlan(s.freqs, s.power)
	if err != nil {
		return err
	}
	s.refitMemo = s.refitMemo[:0]
	s.refitRot = slices.Grow(s.refitRot[:0], len(s.h))[:len(s.h)]
	sc := aliasScorer{
		e: e, s: s, plan: plan, floor: floor,
		hNorm: dsp.Norm2(s.h), gates: gates,
		weights: weights,
	}
	fix.tau, fix.contested = sc.place(sc.admitVirtual(first, virtuals))
	fix.ok, fix.aliasWork = true, sc.work
	return nil
}

// familyCandidates proposes the direct-path candidates on one profile
// without solving anything. first is the earliest dominant real peak
// within searchWindow before the anchor (the anchor itself when nothing
// dominant precedes it). virtuals, in ascending delay order, are the
// in-window member positions of dominant families that hold no real
// peak there and would precede first. dominant is the profile's §12.1
// dominant-peak count, set on every return. ok is false when the
// profile has no peak or no family rises above the folded baseline.
func familyCandidates(prof *Profile, gates evidenceGates) (first float64, virtuals []float64, dominant int, ok bool) {
	cells := int(math.Round(aliasPeriod / gridStep))
	period := float64(cells) * gridStep

	// Half the first-peak floor admits direct paths whose tallest member
	// was halved by a family split; what this lets through is filtered
	// by family dominance below.
	peaks := dsp.FindPeaks(prof.Taus, prof.Magnitude, 0.5*peakThreshold)
	if len(peaks) == 0 {
		return 0, nil, 0, false
	}
	dominant = dominantPeaks(peaks, prof.Magnitude)

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
		return 0, nil, dominant, false
	}
	floor := peakThreshold * anchorMass
	lo := anchor.X - searchWindow

	// Earliest dominant real peak inside the window (the anchor itself
	// when nothing dominant precedes it).
	first = anchor.X
	for _, p := range peaks {
		if p.X >= lo && p.X < first && famMass(p.Index) >= floor {
			first = p.X
		}
	}

	// Virtual candidates: dominant families whose in-window member
	// position holds no real peak — their mass is stranded on an
	// out-of-window ghost member.
	for _, p := range peaks {
		if famMass(p.Index) < floor {
			continue
		}
		// The family's unique member position at or before the anchor.
		v := anchor.X - math.Mod(anchor.X-p.X+float64(64*period), period)
		if v < lo-gridStep || v >= first-2*gridStep || v < -1e-9 ||
			slices.ContainsFunc(peaks, func(q dsp.Peak) bool { return math.Abs(q.X-v) <= 2*gridStep }) ||
			slices.ContainsFunc(virtuals, func(u float64) bool { return math.Abs(u-v) <= 2*gridStep }) {
			continue
		}
		virtuals = append(virtuals, v)
	}
	sort.Float64s(virtuals)
	return first, virtuals, dominant, true
}

// dominantPeaks returns the number of peaks dsp.FindPeaks reports on mag
// at peakThreshold, taken from peaks, a FindPeaks scan of mag at a lower
// threshold. It keeps the peaks whose sample is not below
// peakThreshold·max(mag), the comparison FindPeaks makes; the scan holds
// the maximum sample, since FindPeaks reports the global maximum at any
// threshold up to 1.
func dominantPeaks(peaks []dsp.Peak, mag []float64) int {
	maxV := 0.0
	for _, p := range peaks {
		if v := mag[p.Index]; v > maxV {
			maxV = v
		}
	}
	floor := peakThreshold * maxV
	n := 0
	for _, p := range peaks {
		if !(mag[p.Index] < floor) {
			n++
		}
	}
	return n
}

// admitVirtual returns the candidate the ±1-period placement starts
// from: the first virtual candidate whose refit beats the first peak's,
// or else first. Nothing is admitted over an untrusted first peak: the
// refits must explain the data well enough to be evidence (a challenger
// that beats a trusted incumbent is trusted too, its plain residual
// being lower). The first peak is scored even when there are no
// virtuals, so the shared α always comes from its window.
func (sc *aliasScorer) admitVirtual(first float64, virtuals []float64) float64 {
	fs := sc.score(first)
	if !sc.trusted(fs) {
		return first
	}
	for _, v := range virtuals {
		if sc.beats(sc.score(v), fs) {
			return v
		}
	}
	return first
}

// place resolves which grating-lobe member cand belongs to: the §4 refit
// over cand + k·aliasPeriod, k ∈ {−1,0,1}, with cand as the incumbent,
// gated on fit quality so an uninformative refit can never displace the
// solver's placement.
//
// contested reports a kept, trusted candidate that a ±1-period
// neighbour out-fits on both the weighted and the plain residual, though
// not by the refit margin.
func (sc *aliasScorer) place(cand float64) (best float64, contested bool) {
	base := sc.score(cand)
	if !sc.trusted(base) {
		return cand, false
	}
	best, bestScore, near := cand, base, false
	for k := -1; k <= 1; k += 2 {
		c := cand + float64(float64(k)*aliasPeriod)
		if c < -1e-9 || c > maxTau {
			continue
		}
		s := sc.score(c)
		if sc.beats(s, base) && s.weighted < bestScore.weighted {
			best, bestScore = c, s
		} else if s.weighted < base.weighted && s.plain < base.plain {
			near = true
		}
	}
	if best != cand {
		obsAliasFlips.Inc()
	}
	return best, near && best == cand
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

// score recalls a candidate's refit score from the memo, or runs the
// refit and memoizes it.
func (sc *aliasScorer) score(cand float64) refitScore {
	cell := int(math.Round(cand / gridStep))
	for _, m := range sc.s.refitMemo {
		if m.cell == cell {
			return m.score
		}
	}
	v := sc.refit(cand)
	sc.s.refitMemo = append(sc.s.refitMemo, refitMemo{cell: cell, score: v})
	return v
}

// refit fits the group measurement against the canonical window plan
// with the delay origin shifted to cand−2 ns (clamped at 0): fitting on
// [lo, lo+W] equals fitting the phase-rotated measurement h·e^{+j2πf·lo}
// on [0, W], since a delay shift is a per-frequency rotation that
// preserves the residual norm. It is the scorer's one refit:
//
//   - every hypothesis shares one α: the first candidate scored takes
//     the solver's auto α (times AlphaFactor, as the main solve does),
//     and every later refit reuses that solve's Result.Alpha. Residuals
//     of competing hypotheses are only comparable under one sparsity
//     penalty;
//   - it stops at 1e−3·‖h‖ instead of the solver's default 1e−6·‖h‖: a
//     refit feeds a margin comparison, not a peak readout, so the looser
//     tolerance cuts the refit cost and lets refits converge;
//   - the score carries the discrimination-weighted residual (see
//     aliasWeights) beside the plain one.
func (sc *aliasScorer) refit(cand float64) refitScore {
	rot := sc.s.refitRot
	rotateWindow(sc.s.freqs, sc.s.h, cand, float64(sc.s.power), rot)
	obsAliasRefits.Inc()
	res, err := sc.plan.Solve(ndft.SolveRequest{
		H: rot, Dst: &sc.s.refitDst,
		InvertOptions: ndft.InvertOptions{
			Alpha: sc.alpha, AlphaScale: sc.e.cfg.AlphaFactor,
			Epsilon: 1e-3 * sc.hNorm, MaxIter: 600, NoiseFloor: sc.floor,
		},
	})
	if err != nil {
		return refitScore{plain: math.Inf(1), weighted: math.Inf(1)}
	}
	sc.alpha = res.Alpha
	sc.work += res.Work
	score := refitScore{plain: res.Residual, weighted: res.Residual}
	if sc.weights != nil {
		score.weighted = sc.plan.WeightedResidual(res.Profile, rot, sc.weights)
	}
	return score
}
