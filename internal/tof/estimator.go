package tof

import (
	"cmp"
	"errors"
	"fmt"
	"slices"

	"chronos/internal/csi"
	"chronos/internal/dsp"
	"chronos/internal/ndft"
	"chronos/internal/obs"
	"chronos/internal/wifi"
)

// BandMode selects which frequency bands feed the profile inversion.
type BandMode int

const (
	// BandsFused (default) is the paper's sweep: the hop visits all 35
	// bands, and the fix is read off the 5 GHz bands alone, folded into the
	// h̃² domain (645 MHz span). The 2.4 GHz bands are captured but not
	// folded, whatever Quirk24 says: their 60 MHz span could move a
	// full-sweep fix by millimetres at most.
	BandsFused BandMode = iota
	// Bands5GHzOnly folds the same 5 GHz bands as BandsFused on a hop that
	// visits only them (24 bands).
	Bands5GHzOnly
	// Bands24Only folds only the 2.4 GHz bands: in the h̃⁸ domain when
	// Quirk24 is set (the paper's §7 fourth-power workaround for the Intel
	// 5300's quirk), else in h̃².
	Bands24Only
	// BandsAllCoherent inverts every band in one NDFT in the h̃² domain,
	// spanning the full 2.4–5.8 GHz ≈ 3.4 GHz. Valid only when the
	// radio's 2.4 GHz quirk is disabled (a clean-firmware what-if). It
	// bounds how often stitching misses an alias period, not the median
	// error: it misses almost no period, but its median error is about
	// 3× BandsFused's.
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
	// ForwardOnly disables the §7 CFO cancellation (ablation).
	ForwardOnly bool
}

func (c Config) withDefaults() Config {
	if c.MaxIter == 0 {
		c.MaxIter = 1500
	}
	return c
}

// folds reports whether the mode folds band b: the 5 GHz bands under
// BandsFused and Bands5GHzOnly, the 2.4 GHz bands under Bands24Only, and
// every band under BandsAllCoherent.
func (c Config) folds(b wifi.Band) bool {
	switch c.Mode {
	case Bands24Only:
		return b.GHz24()
	case BandsAllCoherent:
		return true
	default:
		return !b.GHz24()
	}
}

// powers returns the power each side of a CSI pair is raised to before
// the fold, and the channel power of the folded band value, which is one
// for every band the estimator folds. Each side is raised to the 4th
// power on a quirked Bands24Only sweep, so the quirk's π/2 phase folds
// cancel, and the forward×reverse CFO product doubles the power: h̃² on
// clean bands, h̃⁸ on quirked ones (h̃ and h̃⁴ under ForwardOnly).
func (c Config) powers() (side, channel int) {
	side = 1
	if c.Mode == Bands24Only && c.Quirk24 {
		side = 4
	}
	if c.ForwardOnly {
		return side, side
	}
	return side, 2 * side
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
	// Power is the channel power the profile was computed in: 2, or 8 on
	// a quirked Bands24Only sweep, halved under ForwardOnly.
	Power int
}

// Estimate is the result of one sweep.
type Estimate struct {
	// ToF is the direct-path time of flight in seconds, hardware chain
	// delays included: a pair's Calibration.Range removes them.
	ToF     float64
	Profile *Profile
	// Peaks is the number of dominant peaks in the profile (§12.1).
	Peaks int
	// Work counts solver grid cells processed for this estimate across
	// its inversions and alias refits — the deterministic cost measure
	// the perf campaigns snapshot (wall clock varies by host, Work does
	// not). A sweep re-solved after a contested placement counts both
	// attempts.
	Work int64
	// Iterations totals the main profile inversions' solver iterations
	// across attempts (alias refits are not counted). Deterministic, like
	// Work.
	Iterations int
	// Converged reports whether the final main inversion met its
	// stopping rule. False means the solve ran to its iteration cap and
	// returned its best iterate — the condition campaign summaries
	// surface as cap-rate, previously indistinguishable from genuine
	// convergence.
	Converged bool
	// GapAtStop is the certified LASSO duality gap at stop of the final
	// main inversion (0 when no gap check ran).
	GapAtStop float64
	// NoiseFloor is the sweep's relative noise estimate ‖w‖₂/‖h‖₂,
	// measured from the spread of repeated CSI pairs; 0 when no band
	// carried repeated pairs.
	NoiseFloor float64
}

// ErrNoBands reports that no usable band measurements were supplied.
var ErrNoBands = errors.New("tof: no usable band measurements")

type bandMeas struct {
	freq  float64
	value complex128
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
	// The band group every solve attempt at the sweep shares (group):
	// the folded bands' frequencies and measurement vector in frequency
	// order, their channel power, the plan that inverts them, and the
	// per-sweep noise estimate ‖w‖₂ (0 when no band had repeated pairs)
	// with its ratio to ‖h‖₂. The noise sets the solver's gap tolerance,
	// and its ratio the alias-evidence gates.
	freqs    []float64
	h        dsp.Vec
	power    int
	plan     *ndft.Plan
	noise    float64
	noiseRel float64
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
// with no pairs, bands the estimator's Mode does not fold, and bands
// whose folded mean or pair spread is not finite are ignored; the last
// are counted under tof.bands_dropped.
func (s *Sweep) AddBand(b wifi.Band, pairs []csi.Pair) error {
	e := s.est
	if len(pairs) == 0 || !e.cfg.folds(b) {
		return nil
	}
	if e.cfg.Mode == BandsAllCoherent && IsQuirked(b, e.cfg.Quirk24) {
		return errors.New("tof: BandsAllCoherent requires quirk-free radios")
	}
	// The per-pair spread — the per-sweep noise estimate's raw material —
	// is measured on the same folded values that produce the band mean.
	side, _ := e.cfg.powers()
	vals, err := foldValues(s.foldScratch, pairs, side, e.cfg.Interp, e.cfg.ForwardOnly, &s.interp)
	if err != nil {
		return err
	}
	s.foldScratch = vals
	v, noiseVar, noiseOK := pairSpread(vals)
	if !finite(real(v)) || !finite(imag(v)) || !finite(noiseVar) {
		// A NaN, an infinity, or CSI large enough for the fold to
		// overflow would corrupt the whole inversion without an error;
		// the sweep loses this band instead.
		obsBandsDropped.Inc()
		return nil
	}
	s.meas = append(s.meas, bandMeas{freq: b.Center, value: v, noiseVar: noiseVar, noiseOK: noiseOK})
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

// group resolves the sweep's folded bands for inversion. The
// measurements are first sorted by frequency, so the plan key, the
// solves and the noise sum see the bands in one order, whatever order
// they arrived in. Plans copy the frequencies they are built from, and
// nothing keeps the vector past the estimate.
func (e *Estimator) group(s *Sweep) (err error) {
	slices.SortStableFunc(s.meas, func(a, b bandMeas) int { return cmp.Compare(a.freq, b.freq) })
	n := len(s.meas)
	s.freqs = slices.Grow(s.freqs[:0], n)[:n]
	s.h = slices.Grow(s.h[:0], n)[:n]
	for i, m := range s.meas {
		s.freqs[i], s.h[i] = m.freq, m.value
	}
	_, s.power = e.cfg.powers()
	if s.plan, err = e.planForGroup(s.freqs, s.power); err != nil {
		return err
	}
	s.noise, s.noiseRel = groupNoiseFloor(s.meas), 0
	if hNorm := dsp.Norm2(s.h); hNorm > 0 {
		s.noiseRel = s.noise / hNorm
	}
	obsNoiseRel.Observe(s.noiseRel)
	return nil
}

// estimate solves and places a sweep's accumulated band measurements.
func (e *Estimator) estimate(s *Sweep) (*Estimate, error) {
	// Fewer than three bands are too few to invert meaningfully.
	if len(s.meas) < 3 {
		return nil, ErrNoBands
	}
	obsEstimates.Inc()
	if err := e.group(s); err != nil {
		return nil, err
	}
	fix, res, err := e.solveGroup(s, s.noise)
	if err != nil {
		return nil, err
	}
	work, iters := res.Work+fix.aliasWork, res.Iterations
	// The gap certifies the objective, not the alias decision built on
	// it: two iterates equally close to the optimum can rank a path's
	// grating-lobe members differently. When the placement comes out
	// contested after a gap-stopped solve (a sweep with a noise
	// estimate; otherwise it was already precise), solve once more on
	// the precise path and keep that answer.
	if fix.contested && s.noise > 0 {
		obsAliasResolves.Inc()
		if fix, res, err = e.solveGroup(s, 0); err != nil {
			return nil, err
		}
		work += res.Work + fix.aliasWork
		iters += res.Iterations
	}
	if !fix.ok {
		return nil, ErrNoBands
	}
	return &Estimate{
		// A candidate can sit up to 1 ns before zero; no fix lies there.
		ToF:        max(fix.tau, 0),
		Profile:    fix.prof,
		Peaks:      fix.peaks,
		Work:       work,
		Iterations: iters,
		Converged:  res.Converged,
		GapAtStop:  res.GapAtStop,
		NoiseFloor: s.noiseRel,
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

// groupFix is one solve attempt at a sweep's band group: the profile in
// true τ and the direct-path delay placed on it.
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

// solveGroup makes one solve attempt at the sweep's band group:
// Algorithm 1, the profile rescaled from the h̃ᵖ delay domain back to
// true τ, then the direct-path placement. The main solve and the alias
// refits stop at a duality gap scaled to floor: the sweep's noise
// estimate, or 0 for the re-solve of a contested placement, which puts
// both on the precise iterate rule.
func (e *Estimator) solveGroup(s *Sweep, floor float64) (groupFix, *ndft.Result, error) {
	solveStart := obs.Tick()
	res, err := s.plan.Solve(ndft.SolveRequest{
		H: s.h,
		InvertOptions: ndft.InvertOptions{
			AlphaScale: e.cfg.AlphaFactor,
			MaxIter:    e.cfg.MaxIter,
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
		taus[i] = t / float64(s.power)
	}
	fix.prof = &Profile{Taus: taus, Magnitude: res.Magnitude, Power: s.power}

	aliasStart := obs.Tick()
	err = e.placeDirectPath(&fix, s, floor)
	obsStageAliasNs.Since(aliasStart)
	if err != nil {
		return groupFix{}, nil, err
	}
	return fix, res, nil
}

// planForGroup resolves (building and registering on demand) the shared
// plan for one band group's inversion geometry.
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

// BandsFor returns the bands a sweep's hop should visit for the config's
// mode. BandsFused visits all 35, as the paper's sweep does, though it
// folds only the 5 GHz ones. Callers that drive sweeps (the exp
// campaigns, the track sessions) share this mapping so a new mode cannot
// diverge between them.
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

// Calibration is a device pair's hardware offset in seconds: the chain
// delays every ToF of the pair carries, measured once at a known
// distance (§7 observation 2). The zero value applies none.
type Calibration struct{ Offset float64 }

// Calibrate measures a device pair's hardware offset from a sweep taken
// at a known true distance: the estimate's ToF less the true one.
func (e *Estimator) Calibrate(bands []wifi.Band, sweep [][]csi.Pair, trueDistance float64) (Calibration, error) {
	r, err := e.Estimate(bands, sweep)
	if err != nil {
		return Calibration{}, err
	}
	return Calibration{Offset: r.ToF - trueDistance/wifi.SpeedOfLight}, nil
}

// Range is the estimate's calibrated range in meters, (ToF − Offset)·c
// clamped at zero. The float64 conversion keeps arm64 from fusing the
// product into a caller's subtraction.
func (c Calibration) Range(r *Estimate) float64 {
	return float64(max(r.ToF-c.Offset, 0) * wifi.SpeedOfLight)
}
