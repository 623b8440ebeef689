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
	// radio's 2.4 GHz quirk is disabled (a clean-firmware what-if). It
	// bounds how often stitching misses an alias period, not the median
	// error: it misses almost no period, but its median error is about
	// 3× the fused mode's.
	BandsAllCoherent
)

// StopRule selects when the estimator's profile solves stop.
type StopRule int

const (
	// StopGap (default) stops a solve once a duality-gap bound certifies
	// the objective within the per-sweep noise energy, estimated from the
	// spread of repeated CSI pairs per band, or at Algorithm 1's iterate
	// rule, whichever comes first.
	StopGap StopRule = iota
	// StopIterate is Algorithm 1's own rule: a solve stops only when
	// ‖p_{t+1} − p_t‖₂ < ε (1e−6·‖h‖ for the main solve). The estimator
	// passes its solves a zero noise floor; the noise estimate still sets
	// the evidence gates. At campaign SNR the main solve routinely runs to
	// the iteration cap, since that tolerance sits far below the noise.
	StopIterate
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
	// Stop selects the solves' termination rule (default StopGap).
	// StopIterate is the paper's fixed iterate tolerance, the comparison
	// arm of the converge campaign.
	Stop StopRule
	// ForwardOnly disables the §7 CFO cancellation (ablation).
	ForwardOnly bool
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
// Concurrency contract: Estimate, Calibrate and the plan registry are
// safe for concurrent use — an Estimator holds no per-call mutable
// state, and plan solves synchronize internally. SetYield must not race
// with those calls, and a Sweep accumulator (which carries folded
// measurements and refit scratch) must stay confined to one goroutine at
// a time.
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

// SetYield installs (nil clears) a hook that the main profile
// inversions call at their duality-gap check cadence
// (ndft.InvertOptions.Yield); alias refits never call it. The hook
// cannot change the estimate: each solve continues from exactly where
// it was. A scheduler uses it to run waiting latency-class work on the
// goroutine of a bulk solve. It mutates the estimator, so it must not
// race with Estimate or Calibrate calls; a scheduler that owns the
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
	// ToF is the direct-path time of flight in seconds, hardware chain
	// delays included: subtract Calibrate's offset to remove them.
	ToF      float64
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
	// AliasWork is the portion of Work spent in the alias-window refits
	// that rank and place the direct path.
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
// A Sweep carries mutable per-stream state (folded measurements and
// solver scratch) and must stay confined to one goroutine at a time. Each
// distinct partial band set inverted by an early Estimate call resolves
// (and registers) its own plans, so callers should take early fixes at a
// few fixed checkpoints rather than after every band.
type Sweep struct {
	est  *Estimator
	meas []bandMeas
	// foldScratch holds per-pair folded values while AddBand measures a
	// band's mean and spread, and interp the zero-subcarrier
	// interpolation's working memory.
	foldScratch dsp.Vec
	interp      interpScratch
	// refitMemo, refitRot and refitDst are the alias scorer's scratch
	// (aliasScorer): one band group's memoized refit scores, cleared for
	// each new scorer, the rotated window measurement, and the refit
	// result.
	refitMemo []refitMemo
	refitRot  dsp.Vec
	refitDst  ndft.Result
}

// NewSweep starts an empty sweep accumulator on this estimator.
func (e *Estimator) NewSweep() *Sweep { return &Sweep{est: e} }

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
	// The per-pair spread — the per-sweep noise estimate's raw material —
	// is measured on the same folded values that produce the band mean.
	// Each side is raised to the 4th power on a quirked 2.4 GHz band, so
	// the π/2 phase folds cancel, and the forward×reverse CFO product
	// doubles the power of the folded value: h̃² on a clean band, h̃⁸ on
	// a quirked one.
	power := 1
	if quirked {
		power = 4
	}
	total := 2 * power
	if e.cfg.ForwardOnly {
		total = power
	}
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
// the next band cycle without reallocating.
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
	plan     *ndft.Plan
	noise    float64 // ‖w‖₂ estimate (0 when none could be measured)
	noiseRel float64 // noise / ‖h‖₂
}

// outranks reports whether g is a better primary than p (nil for none):
// the wider span, which fusion weights by span², with ties going to the
// lower channel power. Primaries are picked by this rule alone, so
// neither depends on the order groups come out of their map.
func (g *bandGroup) outranks(p *bandGroup) bool {
	return p == nil || g.span > p.span || (g.span == p.span && g.power < p.power)
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
	if g.plan, err = e.planForGroup(g.freqs, power); err != nil {
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
	obsEstimates.Inc()

	// Group by channel power: each group gets its own inversion because
	// the delay supports differ (h̃ᵖ has delays that are sums of p path
	// delays).
	byPower := map[int][]bandMeas{}
	for _, m := range meas {
		byPower[m.power] = append(byPower[m.power], m)
	}
	// The primary group, the invertible one that outranks the others, is
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
		if g.outranks(primaryGroup) {
			primaryGroup = g
		}
		noiseRelMax = math.Max(noiseRelMax, g.noiseRel)
		groups = append(groups, g)
	}

	type groupEst struct {
		group   *bandGroup
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
		fix, res, err := e.solveGroup(s, g, g.noise)
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
		// solve the group once more on the precise path and keep that
		// answer.
		if g == primaryGroup && fix.contested && g.noise > 0 && e.cfg.Stop == StopGap {
			obsAliasResolves.Inc()
			if fix, res, err = e.solveGroup(s, g, 0); err != nil {
				return nil, err
			}
			totalWork += res.Work + fix.aliasWork
			aliasWork += fix.aliasWork
			totalIters += res.Iterations
		}
		allConverged = allConverged && res.Converged
		gapMax = math.Max(gapMax, res.GapAtStop)
		if !fix.ok {
			continue
		}
		ests = append(ests, groupEst{
			group:   g,
			tau:     fix.tau,
			profile: fix.prof,
			peaks:   fix.peaks,
			// Precision ∝ (effective span)², where the channel power
			// multiplies the phase sensitivity but also the noise; span
			// dominates in practice.
			weight: g.span * g.span,
		})
	}
	if len(ests) == 0 {
		return nil, ErrNoBands
	}

	// The primary is the placed group that outranks the others, by the
	// rule that picked the re-solve's primary; fuse others that agree
	// within 3 ns (outlier guard).
	primary := ests[0]
	for _, g := range ests[1:] {
		if g.group.outranks(primary.group) {
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
	// A candidate can sit up to 1 ns before zero; no fix lies there.
	tau := tauSum / wSum
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
	prof  *Profile
	tau   float64
	peaks int  // dominant peaks on prof, counted by familyCandidates
	ok    bool // a direct-path candidate was placed
	// contested marks a kept placement that a ±1-period neighbour
	// out-fit without clearing the refit margin (aliasScorer.place): the
	// one decision an early stop can get wrong.
	contested bool
	aliasWork int64
}

// solveGroup makes one solve attempt at a band group: Algorithm 1, the
// profile rescaled from the h̃ᵖ delay domain back to true τ, then the
// direct-path placement. Under StopGap the main solve and the alias
// refits stop at a duality gap scaled to floor: the group's noise
// estimate, or 0 for the re-solve of a contested placement, which puts
// both on the precise iterate rule.
func (e *Estimator) solveGroup(s *Sweep, g *bandGroup, floor float64) (groupFix, *ndft.Result, error) {
	solveStart := obs.Tick()
	res, err := g.plan.Solve(ndft.SolveRequest{
		H: g.h,
		InvertOptions: ndft.InvertOptions{
			AlphaScale: e.cfg.AlphaFactor,
			MaxIter:    e.cfg.MaxIter,
			NoiseFloor: e.solveFloor(floor),
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
	err = e.placeDirectPath(&fix, g, s, floor)
	obsStageAliasNs.Since(aliasStart)
	if err != nil {
		return groupFix{}, nil, err
	}
	return fix, res, nil
}

// solveFloor is the noise floor a solve stops against: floor itself
// under StopGap, 0 under StopIterate, which leaves Algorithm 1's iterate
// rule to decide alone.
func (e *Estimator) solveFloor(floor float64) float64 {
	if e.cfg.Stop == StopIterate {
		return 0
	}
	return floor
}

// planForGroup resolves (building and registering on demand) the shared
// plan for one power group's inversion geometry.
func (e *Estimator) planForGroup(freqs []float64, power int) (*ndft.Plan, error) {
	return e.plans.planFor(newPlanKey(freqs, power), func() (*ndft.Plan, error) {
		// The h̃ᵖ profile lives on delays that are sums of p path delays,
		// so the grid must span p·maxTau. Keep the column count constant
		// by scaling the step too: resolution in τ is preserved after
		// division by p.
		taus := ndft.TauGrid(float64(power)*maxTau, float64(power)*gridStep)
		return ndft.NewPlan(freqs, taus)
	})
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
// The paper performs this once per pair (§7 observation 2); the caller
// subtracts the returned offset from every later estimate's ToF.
func Calibrate(est *Estimator, bands []wifi.Band, sweep [][]csi.Pair, trueDistance float64) (float64, error) {
	r, err := est.Estimate(bands, sweep)
	if err != nil {
		return 0, err
	}
	return r.ToF - trueDistance/wifi.SpeedOfLight, nil
}
