package tof

import (
	"errors"
	"fmt"
	"math"

	"chronos/internal/csi"
	"chronos/internal/dsp"
	"chronos/internal/ndft"
	"chronos/internal/obs"
	"chronos/internal/wifi"
)

// BandMode selects which frequency bands feed the profile inversion.
type BandMode int

const (
	// BandsFused (default) inverts the 5 GHz bands in the h̃² domain and,
	// when 2.4 GHz measurements are present, fuses the coarse 2.4 GHz
	// estimate with the fine 5 GHz one by precision weighting. This is
	// the faithful mode for quirked hardware: the two groups live in
	// different channel-power domains (h̃² vs h̃⁸) and cannot share one
	// NDFT (their delay supports differ).
	BandsFused BandMode = iota
	// Bands5GHzOnly uses only the 5 GHz bands (h̃², 645 MHz span).
	Bands5GHzOnly
	// Bands24Only uses only the 2.4 GHz bands (h̃⁸ when quirked).
	Bands24Only
	// BandsAllCoherent inverts every band in one NDFT in the h̃² domain,
	// spanning the full 2.4–5.8 GHz ≈ 3.4 GHz. Valid only when the
	// radio's 2.4 GHz quirk is disabled (clean-firmware what-if); it is
	// the upper bound on stitching resolution.
	BandsAllCoherent
)

// The estimator's fixed delay grid and §6 peak rules.
const (
	// maxTau is the largest resolvable time of flight (60 ns ≈ 18 m),
	// and gridStep the τ-domain grid step.
	maxTau   = 60e-9
	gridStep = 0.1e-9
	// peakThreshold is the dominant-peak cutoff as a fraction of the
	// profile maximum.
	peakThreshold = 0.15
	// searchWindow bounds how far before the strongest profile peak the
	// first-peak search may reach, in seconds of true τ. With indoor
	// delay spreads bounded by ~25 ns, the squared-channel content spans
	// at most 12.5 ns (τ) before its strongest component, while the
	// grating-lobe ghosts of the mostly-20 MHz-spaced band lattice appear
	// 25 ns (τ) below their parents — i.e. always more than 12.5 ns below
	// the strongest peak. A 12 ns window therefore admits every genuine
	// direct path and rejects every lattice ghost.
	searchWindow = 12e-9
	// aliasPeriod is the τ-domain grating-lobe period of the band
	// lattice: the 20 MHz channel raster gives 50 ns in the h̃² delay
	// domain, and the 2.4 GHz 5 MHz raster gives 200 ns in the h̃⁸
	// domain — both 25 ns in τ. The estimator disambiguates the first
	// peak across ±1 alias period by refitting each hypothesis on a
	// window shorter than the period and keeping the best data fit; only
	// the off-lattice channels can tell the hypotheses apart, which is
	// exactly the §4 observation that unequally spaced bands raise the
	// unambiguous range.
	aliasPeriod = 25e-9
)

// Config tunes the estimator. The delay grid and the peak rules are the
// package's fixed procedure; the fields select the bands, the hardware
// model, and the ablation paths the campaigns reproduce.
type Config struct {
	Mode    BandMode
	Interp  InterpMode
	Quirk24 bool // whether the radios exhibit the 2.4 GHz phase quirk
	// AlphaFactor multiplies the auto-scaled sparsity parameter α
	// (default 1). The sparsity ablation sweeps this.
	AlphaFactor float64
	MaxIter     int // ISTA iteration cap (default 1500)
	// Ranking selects how the direct-path peak is extracted from the
	// profile: RankFamilies (default) ranks alias families by folded
	// mass and lets the window refit place the winner; RankVertex is the
	// historical chain that trusts the raw solver vertex (kept for the
	// alias ablation).
	Ranking PeakRanking
	// Stop selects the solver's termination rule (default ndft.StopGap:
	// stop once a duality-gap bound certifies the objective within the
	// per-sweep noise energy, estimated from the spread of repeated CSI
	// pairs per band). ndft.StopIterate restores the fixed
	// 1e−6·‖h‖ iterate tolerance — the convergence ablation path, which
	// routinely runs to the iteration cap at campaign SNR.
	Stop ndft.StopRule
	// FixedThresholds pins the alias-evidence thresholds (refit margin,
	// fit gate, anchor margin) to their historical constants instead of
	// deriving them from the per-sweep noise estimate — the threshold
	// ablation path.
	FixedThresholds bool
	// ForwardOnly disables the §7 CFO cancellation (ablation).
	ForwardOnly bool
	// CalibrationOffset is subtracted from every τ estimate; it absorbs
	// the constant hardware chain delays (§7 observation 2). Obtain it
	// once via Calibrate.
	CalibrationOffset float64
}

func (c Config) withDefaults() Config {
	if c.MaxIter == 0 {
		c.MaxIter = 1500
	}
	return c
}

// Estimator turns band sweeps of CSI pairs into time-of-flight estimates.
// The expensive solver state (NDFT dictionaries, step constants, scratch
// buffers) lives in a process-wide plan registry keyed by the band-group
// signature, so estimators are cheap to construct and every worker,
// sweep accumulator, and track scheduler that inverts the same geometry
// shares one precomputed plan.
//
// Concurrency contract: Estimate and the plan registry are safe for
// concurrent use — an Estimator holds no per-call mutable state, and
// plan solves synchronize internally. Two exceptions remain
// single-goroutine: Calibrate temporarily rewrites
// Config.CalibrationOffset, and a Sweep accumulator (which carries
// folded measurements and warm-start state) must stay confined to one
// goroutine at a time.
type Estimator struct {
	cfg   Config
	plans *planRegistry
	yield func() // see SetYield
}

// NewEstimator builds an estimator with the given configuration. All
// estimators share the process-wide plan registry.
func NewEstimator(cfg Config) *Estimator {
	return &Estimator{cfg: cfg.withDefaults(), plans: sharedPlans}
}

// Config returns the estimator's effective (defaulted) configuration.
func (e *Estimator) Config() Config { return e.cfg }

// SetCalibrationOffset installs a measured hardware-chain offset (the
// value Calibrate returns) without rebuilding the estimator.
func (e *Estimator) SetCalibrationOffset(off float64) { e.cfg.CalibrationOffset = off }

// SetYield installs (nil clears) a hook that the main profile
// inversions call at their duality-gap check cadence
// (ndft.InvertOptions.Yield); alias refits never call it. The hook
// cannot change the estimate: each solve continues from exactly where
// it was. A scheduler uses it to run waiting latency-class work on the
// goroutine of a bulk solve. Like Calibrate it mutates the estimator, so
// it must not race with Estimate calls; a scheduler that owns the
// estimator installs the hook before a solve and clears it after.
func (e *Estimator) SetYield(f func()) { e.yield = f }

// Profile is a multipath profile expressed in true time-of-flight units
// (the channel-power scaling has been divided out).
type Profile struct {
	Taus      []float64 // delays in seconds (τ domain)
	Magnitude []float64
	Power     int // channel power the profile was computed in (2 or 8)
}

// Estimate is the result of one sweep.
type Estimate struct {
	ToF      float64 // direct-path time of flight in seconds
	Distance float64 // ToF × c, meters
	Profile  *Profile
	// Peaks is the number of dominant peaks in the profile (§12.1).
	Peaks int
	// Fused reports whether a 2.4 GHz estimate was blended in.
	Fused bool
	// Work counts solver grid cells processed for this estimate across
	// every group inversion and alias refit — the deterministic cost
	// measure the perf campaigns snapshot (wall clock varies by host,
	// Work does not). A group re-solved after a contested placement
	// counts both attempts.
	Work int64
	// AliasWork is the portion of Work spent in alias-window refits
	// (family placement or vertex disambiguation).
	AliasWork int64
	// Iterations totals the main profile inversions' solver iterations
	// across band groups and attempts (alias refits are counted in
	// AliasWork, not here). Deterministic, like Work.
	Iterations int
	// Converged reports whether every group's final main inversion met
	// its stopping rule. False means at least one solve ran to its
	// iteration cap and returned its best iterate — the condition
	// campaign summaries surface as cap-rate, previously
	// indistinguishable from genuine convergence.
	Converged bool
	// GapAtStop is the largest certified LASSO duality gap at stop
	// across the group inversions (0 when no gap check ran).
	GapAtStop float64
	// NoiseFloor is the largest per-group relative noise estimate
	// ‖w‖₂/‖h‖₂ measured from the spread of repeated CSI pairs (0 when
	// no band carried repeated pairs).
	NoiseFloor float64
}

// ErrNoBands reports that no usable band measurements were supplied.
var ErrNoBands = errors.New("tof: no usable band measurements")

type bandMeas struct {
	freq  float64
	value complex128
	power int
	// noiseVar is the variance of the folded value's mean across the
	// band's CSI pairs (total over real+imaginary components); noiseOK
	// marks bands with at least two pairs, the minimum for a spread.
	noiseVar float64
	noiseOK  bool
}

// Sweep accumulates one band sweep incrementally: CSI pairs are folded
// in band by band as the hopping protocol delivers them, and an estimate
// can be requested at any point — a degraded early fix from a partial
// band set, or the full-resolution fix the moment the last band lands.
// The batch Estimator.Estimate is a thin wrapper over this type.
//
// A Sweep carries mutable per-stream state (folded measurements and,
// when warm starts are enabled, the last converged profile per power
// group) and must stay confined to one goroutine at a time. Each
// distinct partial band set inverted by an early Estimate call resolves
// (and registers) its own plans, so callers should take early fixes at a
// few fixed checkpoints rather than after every band.
type Sweep struct {
	est  *Estimator
	meas []bandMeas
	// warm enables warm-started inversions: each inversion geometry's
	// converged profile seeds the next Estimate of that geometry,
	// surviving Reset so consecutive band cycles of a tracking stream
	// start from the previous fix. State is keyed by the full plan key —
	// not just the power group — so the partial band sets of early fixes
	// and the full sweep each keep their own seed and cold baseline.
	warm       bool
	warmGroups map[planKey]*warmGroup
	// warmWindows carries the alias-refit warm state, keyed by window
	// geometry with per-hypothesis seeds labeled by the candidate delay
	// each refit window tracks: the window origin follows its candidate,
	// so in window coordinates each hypothesis's profile is nearly
	// stationary between sweeps and seeds its own next solve. Labeling
	// by candidate (matched within a fraction of the alias period, see
	// windowWarmState) is family-stable: two dominant families whose
	// candidates share a period cell — the deep-NLOS refit case — keep
	// distinct seeds, where the period-index labels this replaced made
	// them collide, clobber each other's profiles, and trip the efficacy
	// policy into reverting exactly those hypotheses to cold. Window
	// profiles are never velocity-translated — the window origin already
	// follows the moving candidate.
	warmWindows map[planKey][]*windowSeed
	// estSeq counts Estimate calls on this sweep stream; window seeds
	// stamp it to drive least-recently-matched eviction.
	estSeq int64
	// foldScratch holds per-pair folded values while AddBand measures a
	// band's mean and spread, and interp the zero-subcarrier
	// interpolation's working memory.
	foldScratch dsp.Vec
	interp      interpScratch
}

// windowSeed is one alias hypothesis's warm state, labeled by the
// (slowly drifting) candidate delay its refit window tracks.
type windowSeed struct {
	cand float64 // τ-domain candidate the seed's window last anchored on
	used int64   // Sweep.estSeq at the last match
	g    warmGroup
}

// windowSeedTolFrac is the candidate-matching radius for window warm
// seeds, as a fraction of the alias period: a seed is reused when the
// new candidate lies within this distance of the delay the seed last
// tracked. Inter-sweep drift is a small fraction of a nanosecond at
// walking speeds, far inside the radius, while distinct families in one
// period cell sit several nanoseconds apart and stay distinct.
const windowSeedTolFrac = 0.1

// windowSeedMax bounds the retained hypothesis seeds per window
// geometry; beyond it the least-recently-matched seed is recycled.
const windowSeedMax = 16

// warmStrikes is how many consecutive unprofitable warm solves a group
// tolerates before permanently reverting to cold starts. A single miss
// is usually the target outrunning the predicted working set for one
// sweep (the solver's KKT audit already grew the set, or fell back to a
// cold solve, and returned a certified answer); a run of misses means
// warm starting structurally does not pay here.
const warmStrikes = 3

// warmGroup is one power group's warm-start state and its measured
// efficacy. Warm starting helps when the optimum barely moves between
// solves (coarse grids, static targets, velocity-translated seeds) and
// can cost extra iterations when per-sweep noise shifts the fine-grid
// support; rather than guess, the sweep compares each warm solve's
// actual solver work against the group's cold baseline and reverts the
// group to cold starts after warmStrikes consecutive misses.
type warmGroup struct {
	profile  dsp.Vec
	coldWork int64 // solver work of the group's last cold solve
	strikes  int   // consecutive unprofitable warm solves
	off      bool  // warm starting measured unprofitable for this group
}

// observe folds one solve's outcome into the group's policy. Profiles
// are retained as seeds whether or not the solve met its convergence
// tolerance: an iteration-capped iterate still sits near the optimum
// (noisy measurements routinely cap the main solve), and seeding from it
// lets optimization effectively continue across sweeps. Correctness is
// guarded by the solver's full-grid KKT audit, and cost by this policy —
// warmStrikes consecutive warm solves that fail to beat the group's cold
// baseline permanently revert the group to cold starts.
func (g *warmGroup) observe(warmed bool, res *ndft.Result) {
	if g.off {
		return // reverted to cold starts; nothing to maintain
	}
	if !warmed {
		g.coldWork = res.Work
		g.store(res.Profile)
		return
	}
	if res.Work < g.coldWork {
		g.strikes = 0
		g.store(res.Profile)
		return
	}
	// Unprofitable — but the solve still produced the best current
	// iterate (an over-budget restricted pass, a grown working set's
	// certified answer, or a KKT fallback's dense one), so keep it as
	// the seed while the strike budget lasts. The cold baseline is
	// deliberately NOT re-based on this solve's work: measuring strikes
	// against an inflated pseudo-cold baseline would let a group that
	// persistently costs a little more than cold look alternately
	// profitable and never revert.
	g.strikes++
	if g.strikes >= warmStrikes {
		g.off = true
		g.profile = nil
		return
	}
	g.store(res.Profile)
}

// store retains a converged profile, reusing the backing array.
func (g *warmGroup) store(profile dsp.Vec) {
	if cap(g.profile) < len(profile) {
		g.profile = make(dsp.Vec, len(profile))
	}
	g.profile = g.profile[:len(profile)]
	copy(g.profile, profile)
}

// NewSweep starts an empty sweep accumulator on this estimator.
func (e *Estimator) NewSweep() *Sweep { return &Sweep{est: e} }

// SetWarmStart toggles warm-started inversions on this sweep stream:
// when enabled, each Estimate seeds Algorithm 1 from the previous
// converged profile of the same band group, cutting steady-state
// iterations dramatically on slowly-moving targets. The solver's fixed
// points do not depend on the start, so warm and cold fixes agree within
// the convergence tolerance; results remain deterministic for a given
// measurement stream. Disabling also drops any retained profiles.
func (s *Sweep) SetWarmStart(on bool) {
	s.warm = on
	if !on {
		s.warmGroups = nil
		s.warmWindows = nil
	}
}

// TranslateWarm circularly shifts every retained main-grid warm profile
// by dTau seconds of predicted delay drift — the velocity feed-forward
// for tracking streams. A target moving radially at v for Δt seconds
// shifts every path delay by v·Δt/c; shifting the seed by the same
// amount keeps the warm working set centered on the predicted optimum
// instead of trailing it by one sweep, which is what keeps warm starts
// profitable at walking speeds. The shift is the same cell count for
// every power group: the h̃ᵖ grids scale both the drift (p·dTau) and the
// step (p·gridStep) by p. Alias-window warm profiles are left alone
// (their window origin tracks the candidate). No-op when warm starting
// is off or the drift rounds to zero cells.
func (s *Sweep) TranslateWarm(dTau float64) {
	if !s.warm || len(s.warmGroups) == 0 {
		return
	}
	cells := int(math.Round(dTau / gridStep))
	if cells == 0 {
		return
	}
	for _, g := range s.warmGroups {
		if g.off || len(g.profile) == 0 {
			continue
		}
		ndft.ShiftProfile(g.profile, cells)
	}
}

// warmState returns (creating on demand) the warm policy state for one
// inversion geometry, or nil when warm starting is disabled on this
// sweep.
func (s *Sweep) warmState(key planKey) *warmGroup {
	if !s.warm {
		return nil
	}
	if s.warmGroups == nil {
		s.warmGroups = make(map[planKey]*warmGroup, 2)
	}
	g := s.warmGroups[key]
	if g == nil {
		g = &warmGroup{}
		s.warmGroups[key] = g
	}
	return g
}

// windowWarmState returns (creating on demand) the warm policy state for
// the alias hypothesis tracking candidate delay cand on one window
// geometry, or nil when warm starting is disabled on this sweep. Seeds
// are matched to the nearest retained candidate within
// windowSeedTolFrac of the alias period — the family-stable labeling —
// and the matched seed re-anchors on the new candidate so it follows
// the hypothesis as it drifts. Matching scans the geometry's seed list
// in insertion order, so resolution is deterministic for a given
// scoring sequence.
func (s *Sweep) windowWarmState(key planKey, cand float64) *warmGroup {
	if !s.warm {
		return nil
	}
	if s.warmWindows == nil {
		s.warmWindows = make(map[planKey][]*windowSeed, 2)
	}
	list := s.warmWindows[key]
	var best *windowSeed
	bestD := windowSeedTolFrac * aliasPeriod
	for _, ws := range list {
		if d := math.Abs(ws.cand - cand); d < bestD {
			best, bestD = ws, d
		}
	}
	if best != nil {
		best.cand = cand
		best.used = s.estSeq
		return &best.g
	}
	if len(list) >= windowSeedMax {
		// Recycle the least-recently-matched seed rather than growing
		// without bound on long multi-family streams.
		victim := list[0]
		for _, ws := range list[1:] {
			if ws.used < victim.used {
				victim = ws
			}
		}
		*victim = windowSeed{cand: cand, used: s.estSeq}
		return &victim.g
	}
	ws := &windowSeed{cand: cand, used: s.estSeq}
	s.warmWindows[key] = append(list, ws)
	return &ws.g
}

// AddBand folds the CSI pairs captured on one band into the sweep. Bands
// with no pairs, bands excluded by the estimator's Mode, and bands whose
// folded mean or pair spread is not finite are ignored; the last are
// counted under tof.bands_dropped.
func (s *Sweep) AddBand(b wifi.Band, pairs []csi.Pair) error {
	e := s.est
	if len(pairs) == 0 {
		return nil
	}
	quirked := IsQuirked(b, e.cfg.Quirk24)
	if e.cfg.Mode == BandsAllCoherent && quirked {
		return errors.New("tof: BandsAllCoherent requires quirk-free radios")
	}
	switch e.cfg.Mode {
	case Bands5GHzOnly:
		if b.GHz24() {
			return nil
		}
	case Bands24Only:
		if !b.GHz24() {
			return nil
		}
	}
	// Fold the pairs inline (BandValue's internals) so the per-pair
	// spread — the per-sweep noise estimate's raw material — is measured
	// on the same values that produce the band mean.
	power, total := bandPowers(quirked, e.cfg.ForwardOnly)
	vals, err := foldValues(s.foldScratch, pairs, power, e.cfg.Interp, e.cfg.ForwardOnly, &s.interp)
	if err != nil {
		return err
	}
	s.foldScratch = vals
	v, noiseVar, noiseOK := pairSpread(vals)
	if !finite(real(v)) || !finite(imag(v)) || !finite(noiseVar) {
		// A NaN, an infinity, or CSI large enough for the fold to
		// overflow would corrupt the whole group's inversion without an
		// error; the group loses this band instead.
		obsBandsDropped.Inc()
		return nil
	}
	s.meas = append(s.meas, bandMeas{
		freq: b.Center, value: v, power: total,
		noiseVar: noiseVar, noiseOK: noiseOK,
	})
	return nil
}

// Bands returns the number of usable band measurements folded in so far.
func (s *Sweep) Bands() int { return len(s.meas) }

// Reset discards the accumulated measurements so the Sweep can accumulate
// the next band cycle without reallocating. Warm-start profiles survive a
// Reset — carrying the previous cycle's fix forward is their purpose.
func (s *Sweep) Reset() { s.meas = s.meas[:0] }

// Estimate inverts the bands folded in so far. It may be called more than
// once per sweep: a call before the sweep completes yields an early fix
// whose resolution is limited by the partial frequency span.
func (s *Sweep) Estimate() (*Estimate, error) { return s.est.estimate(s) }

// Estimate processes one full sweep: sweep[i] holds the CSI pairs
// captured on bands[i]. It is the batch entry point over the incremental
// Sweep core.
func (e *Estimator) Estimate(bands []wifi.Band, sweep [][]csi.Pair) (*Estimate, error) {
	if len(bands) != len(sweep) {
		return nil, fmt.Errorf("tof: %d bands but %d sweep entries", len(bands), len(sweep))
	}
	s := e.NewSweep()
	for i, b := range bands {
		if err := s.AddBand(b, sweep[i]); err != nil {
			return nil, err
		}
	}
	return s.Estimate()
}

// bandGroup is one channel-power group of a sweep, resolved for
// inversion: its measurement vector, its plan, and the per-sweep noise
// estimate that sets the solver's gap tolerance and the alias-evidence
// gates. Every solve attempt at the group shares it.
type bandGroup struct {
	power    int
	freqs    []float64
	h        dsp.Vec
	span     float64 // frequency span; fusion weights groups by span²
	key      planKey
	plan     *ndft.Plan
	noise    float64 // ‖w‖₂ estimate (0 when none could be measured)
	noiseRel float64 // noise / ‖h‖₂
}

// newBandGroup resolves one power group's plan and noise estimate.
func (e *Estimator) newBandGroup(power int, meas []bandMeas) (*bandGroup, error) {
	g := &bandGroup{power: power, freqs: make([]float64, len(meas)), h: make(dsp.Vec, len(meas))}
	for i, m := range meas {
		g.freqs[i], g.h[i] = m.freq, m.value
	}
	g.span = spanOf(g.freqs)
	// Resolve the group's plan before the noise estimate: the
	// single-pair fallback below needs the dictionary.
	var err error
	if g.key, g.plan, err = e.planForGroup(g.freqs, power); err != nil {
		return nil, err
	}
	// The per-sweep noise estimate drives both the solver's gap
	// tolerance and the alias-evidence gates; noiseRel normalizes it
	// for the gates (residual comparisons scale with ‖h‖).
	g.noise = groupNoiseFloor(meas)
	if g.noise == 0 {
		// Single-pair dwells: no repeated-pair spread to measure, so
		// fall back to the cross-band robust estimate — the MAD of the
		// adjoint-correlation magnitudes over the delay grid
		// (ndft.Plan.NoiseFloor), which reads the same ‖w‖₂ off the
		// measurement itself. One dense adjoint pass, paid only when the
		// spread estimator has nothing to say.
		g.noise = g.plan.NoiseFloor(g.h)
		obsNoiseFallbacks.Inc()
	}
	if hNorm := dsp.Norm2(g.h); hNorm > 0 {
		g.noiseRel = g.noise / hNorm
	}
	obsNoiseRel.Observe(g.noiseRel)
	return g, nil
}

// estimate runs the grouped inversion over a sweep's accumulated band
// measurements.
func (e *Estimator) estimate(s *Sweep) (*Estimate, error) {
	meas := s.meas
	if len(meas) == 0 {
		return nil, ErrNoBands
	}
	s.estSeq++
	obsEstimates.Inc()

	// Group by channel power: each group gets its own inversion because
	// the delay supports differ (h̃ᵖ has delays that are sums of p path
	// delays).
	byPower := map[int][]bandMeas{}
	for _, m := range meas {
		byPower[m.power] = append(byPower[m.power], m)
	}
	// The primary group, the widest span among the invertible ones, is
	// the one fusion trusts, so it is the only group whose contested
	// placement earns a re-solve. It is picked before any solve, so map
	// order cannot matter; a secondary group that lands a period off is
	// dropped by fusion's outlier guard instead.
	var groups []*bandGroup
	var primaryGroup *bandGroup
	var noiseRelMax float64
	for power, gm := range byPower {
		if len(gm) < 3 {
			continue // too few bands to invert meaningfully
		}
		g, err := e.newBandGroup(power, gm)
		if err != nil {
			return nil, err
		}
		if p := primaryGroup; p == nil || g.span > p.span || (g.span == p.span && g.power < p.power) {
			primaryGroup = g
		}
		noiseRelMax = math.Max(noiseRelMax, g.noiseRel)
		groups = append(groups, g)
	}

	type groupEst struct {
		tau     float64
		profile *Profile
		peaks   int
		weight  float64
	}
	var ests []groupEst
	var totalWork, aliasWork int64
	var totalIters int
	allConverged := true
	var gapMax float64
	for _, g := range groups {
		// The seed is the group's warm profile while warm starting is on
		// and still profitable, else nil (a cold start). A re-solve below
		// starts from the same seed; the policy observes the final solve.
		warm := s.warmState(g.key)
		var seed dsp.Vec
		if warm != nil && !warm.off && len(warm.profile) == len(g.plan.Taus) {
			seed = warm.profile
		}
		fix, res, err := e.solveGroup(s, g, seed, g.noise)
		if err != nil {
			return nil, err
		}
		totalWork += res.Work + fix.aliasWork
		aliasWork += fix.aliasWork
		totalIters += res.Iterations
		// The gap certifies the objective, not the alias decision built
		// on it: two iterates equally close to the optimum can rank a
		// path's grating-lobe members differently. When the fix-setting
		// placement comes out contested after a gap-stopped solve (a
		// noise floor under StopGap; otherwise it was already precise),
		// solve the group once more on the precise path, from the same
		// seed, and keep that answer.
		if g == primaryGroup && fix.contested && g.noise > 0 && e.cfg.Stop == ndft.StopGap {
			obsAliasResolves.Inc()
			if fix, res, err = e.solveGroup(s, g, seed, 0); err != nil {
				return nil, err
			}
			totalWork += res.Work + fix.aliasWork
			aliasWork += fix.aliasWork
			totalIters += res.Iterations
		}
		if warm != nil {
			warm.observe(seed != nil, res)
		}
		allConverged = allConverged && res.Converged
		gapMax = math.Max(gapMax, res.GapAtStop)
		if !fix.ok {
			continue
		}
		ests = append(ests, groupEst{
			tau:     fix.tau,
			profile: fix.prof,
			peaks:   dsp.DominantPeakCount(fix.prof.Taus, fix.prof.Magnitude, peakThreshold),
			// Precision ∝ (effective span)², where the channel power
			// multiplies the phase sensitivity but also the noise; span
			// dominates in practice.
			weight: g.span * g.span,
		})
	}
	if len(ests) == 0 {
		return nil, ErrNoBands
	}

	// Pick the highest-weight group as primary; fuse others that agree
	// within 3 ns (outlier guard).
	primary := ests[0]
	for _, g := range ests[1:] {
		if g.weight > primary.weight {
			primary = g
		}
	}
	tauSum, wSum := primary.tau*primary.weight, primary.weight
	fused := false
	for _, g := range ests {
		if g.profile == primary.profile {
			continue
		}
		if math.Abs(g.tau-primary.tau) < 3e-9 {
			tauSum += float64(g.tau * g.weight)
			wSum += g.weight
			fused = true
		}
	}
	tau := tauSum/wSum - e.cfg.CalibrationOffset
	if tau < 0 {
		tau = 0
	}
	return &Estimate{
		ToF:        tau,
		Distance:   tau * wifi.SpeedOfLight,
		Profile:    primary.profile,
		Peaks:      primary.peaks,
		Fused:      fused,
		Work:       totalWork,
		AliasWork:  aliasWork,
		Iterations: totalIters,
		Converged:  allConverged,
		GapAtStop:  gapMax,
		NoiseFloor: noiseRelMax,
	}, nil
}

// firstPeakWindowed applies the §6 first-peak rule with an alias guard:
// the earliest dominant peak is searched only within searchWindow before
// the strongest peak. The band lattice's grating-lobe ghosts land a full
// alias period earlier and are excluded; the genuine direct path, bounded
// by the indoor delay spread, is not.
func firstPeakWindowed(prof *Profile) (float64, bool) {
	strongest, ok := dsp.StrongestPeak(prof.Taus, prof.Magnitude)
	if !ok {
		return 0, false
	}
	peaks := dsp.FindPeaks(prof.Taus, prof.Magnitude, peakThreshold)
	lo := strongest.X - searchWindow
	for _, p := range peaks {
		if p.X >= lo && p.X <= strongest.X+1e-15 {
			return p.X, true
		}
	}
	return strongest.X, true
}

// groupFix is one solve attempt at a band group: the profile in true τ
// and the direct-path delay placed on it.
type groupFix struct {
	prof *Profile
	tau  float64
	ok   bool // a direct-path candidate was placed
	// contested marks a kept placement that a ±1-period neighbour
	// out-fit without clearing the refit margin (placeCandidate,
	// disambiguateAlias): the one decision an early stop can get wrong.
	contested bool
	aliasWork int64
}

// solveGroup makes one solve attempt at a band group: Algorithm 1 from
// seed, the profile rescaled from the h̃ᵖ delay domain back to true τ,
// then the direct-path placement. The main solve and the alias refits
// stop at a duality gap scaled to floor: the group's noise estimate, or
// 0 for the re-solve of a contested placement, which puts both on the
// precise iterate rule and scores every refit cold. The caller commits
// the result to the sweep's warm state.
func (e *Estimator) solveGroup(s *Sweep, g *bandGroup, seed dsp.Vec, floor float64) (groupFix, *ndft.Result, error) {
	solveStart := obs.Tick()
	res, err := g.plan.Solve(ndft.SolveRequest{
		H: g.h, Warm: seed,
		InvertOptions: ndft.InvertOptions{
			AlphaScale: e.cfg.AlphaFactor,
			MaxIter:    e.cfg.MaxIter,
			Stop:       e.cfg.Stop,
			NoiseFloor: floor,
			Yield:      e.yield,
		},
	})
	obsStageSolveNs.Since(solveStart)
	if err != nil {
		return groupFix{}, nil, err
	}
	var fix groupFix
	taus := make([]float64, len(res.Taus))
	for i, t := range res.Taus {
		taus[i] = t / float64(g.power)
	}
	fix.prof = &Profile{Taus: taus, Magnitude: res.Magnitude, Power: g.power}

	aliasStart := obs.Tick()
	if e.cfg.Ranking == RankFamilies {
		fix.tau, fix.ok, fix.contested, fix.aliasWork = e.familyRank(g, fix.prof, s, floor)
	}
	if !fix.ok {
		// RankVertex, or family ranking found no candidate on this
		// profile: fall back to the vertex first peak. In family mode its
		// placement still runs the full scorer machinery (shared α,
		// discrimination weights, fit gate, cold-confirmed flips); the
		// explicit RankVertex baseline keeps the historical
		// disambiguation it documents.
		fix.tau, fix.ok = firstPeakWindowed(fix.prof)
		if fix.ok {
			if e.cfg.Ranking == RankFamilies {
				if scorer, err := e.newAliasScorer(g, s, floor); err == nil {
					fix.tau, fix.contested = e.placeCandidate(scorer, fix.tau)
					fix.aliasWork += scorer.work
				}
			} else {
				var aw int64
				fix.tau, fix.contested, aw = e.disambiguateAlias(g, fix.tau, s, floor)
				fix.aliasWork += aw
			}
		}
	}
	obsStageAliasNs.Since(aliasStart)
	return fix, res, nil
}

// planForGroup resolves (building and registering on demand) the shared
// plan for one power group's inversion geometry.
func (e *Estimator) planForGroup(freqs []float64, power int) (planKey, *ndft.Plan, error) {
	key := newPlanKey(freqs, power)
	plan, err := e.plans.planFor(key, func() (*ndft.Plan, error) {
		// The h̃ᵖ profile lives on delays that are sums of p path delays,
		// so the grid must span p·maxTau. Keep the column count constant
		// by scaling the step too: resolution in τ is preserved after
		// division by p.
		taus := ndft.TauGrid(float64(power)*maxTau, float64(power)*gridStep)
		return ndft.NewPlan(freqs, taus)
	})
	return key, plan, err
}

// BandsFor returns the band plan a sweep should cover for the config's
// mode: the subset the estimator will actually use. Callers that drive
// sweeps (the exp campaigns, the track sessions) share this mapping so a
// new mode cannot diverge between them.
func BandsFor(cfg Config) []wifi.Band {
	switch cfg.Mode {
	case Bands5GHzOnly:
		return wifi.Bands5GHz()
	case Bands24Only:
		return wifi.Bands24GHz()
	default:
		return wifi.USBands()
	}
}

func spanOf(freqs []float64) float64 {
	lo, hi := freqs[0], freqs[0]
	for _, f := range freqs[1:] {
		if f < lo {
			lo = f
		}
		if f > hi {
			hi = f
		}
	}
	if hi == lo {
		// A single-band group still carries some information; use the
		// channel bandwidth as its effective span.
		return wifi.BandwidthHT20
	}
	return hi - lo
}

// Calibrate measures the constant hardware offset of a device pair by
// estimating ToF at a known true distance and returning the difference.
// The paper performs this once per pair (§7 observation 2); the returned
// value is meant to be stored in Config.CalibrationOffset.
func Calibrate(est *Estimator, bands []wifi.Band, sweep [][]csi.Pair, trueDistance float64) (float64, error) {
	saved := est.cfg.CalibrationOffset
	est.cfg.CalibrationOffset = 0
	defer func() { est.cfg.CalibrationOffset = saved }()
	r, err := est.Estimate(bands, sweep)
	if err != nil {
		return 0, err
	}
	return r.ToF - trueDistance/wifi.SpeedOfLight, nil
}
