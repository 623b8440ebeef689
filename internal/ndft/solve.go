package ndft

import (
	"fmt"
	"math"

	"chronos/internal/detmath"
	"chronos/internal/dsp"
	"chronos/internal/obs"
)

// SolveRequest is one inversion request against a Plan: the measurement
// vector, an optional recycled Result, and the solver options.
type SolveRequest struct {
	// H is the measurement vector (length = the plan's frequency count).
	H dsp.Vec
	// Dst, when non-nil, is reused for the result (its Profile and
	// Magnitude backing arrays are recycled), making steady-state solves
	// allocation-free; nil allocates a fresh Result.
	Dst *Result
	InvertOptions
}

// polishGapFrac scales the solve's duality-gap tolerance down for the
// gap-certified polish exit: the polish pass exists to canonicalize the
// stopped iterate on its restricted optimum, so its own certificate must
// be much tighter than the stop that triggered it — 1/16 sharpens the
// amplitudes the dominance tests read while still bounding the polish
// far below its 600-iteration budget on broad noisy supports.
const polishGapFrac = 1.0 / 16

// gapScale scales the noise-derived duality-gap tolerance: a solve stops
// once the gap bound drops below gapScale·½‖w‖², with ‖w‖ the caller's
// InvertOptions.NoiseFloor. Smaller values iterate closer to the exact
// optimum; 0.7 keeps the full estimation stack on its accuracy fixtures
// (rich-multipath peak picks degrade above ~1) while keeping the ≥2×
// cold-work reduction at campaign SNR.
const gapScale = 0.7

// polishGapExit gates the gap-certified polish exit (ROADMAP PR-5
// follow-on b). Package-internal so the regression test can compare the
// certified exit against the historical fixed-budget polish.
var polishGapExit = true

// solveTask is one request's solver state: the current iterate phase's
// schedule and the telemetry the result and the solver metrics report.
type solveTask struct {
	pl   *Plan
	w    *workspace
	res  *Result
	opts InvertOptions

	alpha, corrInf float64
	useGap         bool

	// everGap records that the main iterate ended on the gap
	// certificate; record reads it once per solve.
	everGap bool

	// The drift-bound screen's clock, shared by every phase of the solve
	// (see screen.go): gradSteps run so far, the residual path length D,
	// the largest squared residual norm, and the cells it skipped.
	steps    int
	path     float64
	resMaxSq float64
	screened int64

	// Current iterate-phase state (one beginIterate per phase). polish
	// marks the polish of a gap-stopped iterate: it never yields, and its
	// gap checks run against the polishGapFrac-tightened tolerance.
	set      []int
	iter     int
	curAlpha float64
	decay    float64
	tMom     float64
	checkAt  int
	polish   bool
}

// Solve runs Algorithm 1 on one request from a zero profile over the
// full delay grid; a main iterate that stops on the gap certificate is
// then polished on its support (runPolish). req.Dst, when non-nil, is
// reused for the result, making steady-state solves allocation-free. The
// request's shape is checked before any solving starts; on error no
// result is written. Solve may be called concurrently on one shared
// Plan.
func (pl *Plan) Solve(req SolveRequest) (*Result, error) {
	if len(req.H) != pl.n {
		return nil, fmt.Errorf("ndft: measurement length %d != %d frequencies", len(req.H), pl.n)
	}
	wallStart := obs.Tick()
	if req.Dst == nil {
		req.Dst = &Result{}
	}
	w := pl.getWorkspace()
	var t solveTask
	t.init(pl, &req, w)
	if t.run(pl.allIdx, t.start(), false) {
		t.everGap = true
		t.runPolish()
	}
	t.finishResid()
	t.finalize()
	pl.ws.Put(w)
	if obs.Enabled() {
		t.record(wallStart)
	}
	return req.Dst, nil
}

// init binds a task to its request: workspace, defaulted options, and
// the planar split of the measurement. The request pointer is only read,
// never retained.
func (t *solveTask) init(pl *Plan, req *SolveRequest, w *workspace) {
	split(w.hRe, w.hIm, req.H)
	*t = solveTask{
		pl:   pl,
		w:    w,
		res:  req.Dst,
		opts: req.InvertOptions.withDefaults(w.hRe, w.hIm),
	}
	t.resetScreen()
}

// start finishes setup — the Fᴴh̃ correlation bound, α scaling, the
// zero iterate, result reset — and returns the main iterate's starting
// threshold.
func (t *solveTask) start() (a0 float64) {
	pl, w, m := t.pl, t.w, t.pl.m
	// ‖Fᴴh̃‖∞ drives the default α scaling and the continuation ramp:
	// one dense adjoint pass.
	pl.adjointDense(w, w.hRe, w.hIm)
	var corrMaxSq float64
	for j := 0; j < m; j++ {
		if sq := float64(w.gRe[j]*w.gRe[j]) + float64(w.gIm[j]*w.gIm[j]); sq > corrMaxSq {
			corrMaxSq = sq
		}
	}
	t.corrInf = math.Sqrt(corrMaxSq)
	t.alpha = t.opts.Alpha
	if t.alpha == 0 {
		scale := t.opts.AlphaScale
		if scale == 0 {
			scale = 1
		}
		// Default α: a fraction of the largest correlation between the
		// measurement and any single atom, the standard LASSO scaling
		// (α_max = ‖Fᴴh‖∞ zeroes the whole profile; we default to 10%).
		t.alpha = 0.1 * scale * t.corrInf
	}

	w.active = w.active[:0]
	zero(w.pRe)
	zero(w.pIm)
	zero(w.yRe)
	zero(w.yIm)

	res := t.res
	res.Taus = pl.Taus
	res.Iterations, res.Converged, res.Work = 0, false, 0
	res.GapAtStop = 0
	// The gap rule needs a tolerance to stop against: the caller's
	// per-sweep noise estimate. Without one the checks could never pass,
	// so they are skipped entirely and the iterate rule decides alone.
	t.useGap = t.opts.NoiseFloor > 0

	// α-continuation: start at half the largest atom correlation, a
	// threshold that admits only the strongest atoms, and decay toward the
	// target α, steering the iterate into the basin of the sparse global
	// optimum before fine fitting begins. This matters because the
	// non-uniform band lattice makes the dictionary highly coherent
	// (strong grating lobes).
	if t.corrInf > t.alpha {
		return t.corrInf * 0.5
	}
	return t.alpha
}

// run iterates over set until a stopping rule fires or the phase's
// budget (MaxIter, or polishBudget for a polish) is spent, books the
// iterations, and reports whether the gap certificate stopped it.
func (t *solveTask) run(set []int, a0 float64, polish bool) (gapStop bool) {
	budget := t.opts.MaxIter
	if polish {
		budget = polishBudget
	}
	t.beginIterate(set, a0, budget, polish)
	for t.iter < budget {
		if stop, gap := t.endStep(t.gradStep()); stop {
			gapStop = gap
			break
		}
	}
	t.res.Iterations += t.iter
	return gapStop
}

// beginIterate resets the per-phase iteration state: working set and
// its quad list (the set does not change inside a phase, so every
// adjoint pass of the phase walks the same list), continuation schedule,
// momentum sequence, gap-check cadence.
func (t *solveTask) beginIterate(set []int, a0 float64, budget int, polish bool) {
	t.set = set
	t.w.quads = setQuads(t.w.quads, set)
	t.iter = 0
	t.polish = polish
	t.curAlpha = a0
	// The continuation schedule must hand the target α a usable slice
	// of the budget: with a forced tiny α (the sparsity ablation) the
	// default decay could still be ramping when the budget expires,
	// and the Epsilon exit — gated on curAlpha == alpha — could then
	// never fire. Steepen the decay so the ramp spends at most half
	// the budget.
	t.decay = contDecay
	if a0 > t.alpha && t.alpha > 0 && budget > 0 {
		if need := math.Log(t.alpha/a0) / math.Log(t.decay); need > float64(budget)/2 {
			t.decay = math.Exp(2 * math.Log(t.alpha/a0) / float64(budget))
		}
	}
	t.tMom = 1
	t.checkAt = gapEvery
	t.res.Converged = false
}

// gradStep runs one iteration's proximal-gradient step from the
// extrapolation point y: p ← SPARSIFY(y − γ·Fᴴ·(F·y − h̃), γα) over the
// phase's working set. The adjoint walks the phase's quad list in one
// call (adjQuads: the fixed-K chain contract per cell, same bits on every
// tier) under the drift-bound screen (screen.go), which skips every quad
// of cells it proves would shrink to +0 anyway and leaves the computed
// quads in w.live; shrinkQuads then shrinks the live cells in one call,
// stores each cell's step p − p_prev in place of its gradient, and adds
// ‖Δp‖² and the restart test's ⟨y − p, Δp⟩ cell by cell in set order;
// gradStep returns both for endStep. A skipped quad keeps y = p = +0 and
// would add +0 to both sums, so skipping it moves no bit.
func (t *solveTask) gradStep() (diffSq, gdot float64) {
	pl, w := t.pl, t.w
	gamma := pl.gamma
	t.iter++
	// resid = F·y − h̃, accumulated over y's support only: the
	// soft-thresholded iterate is sparse, so the forward product touches
	// a few dozen dictionary columns, not the whole grid.
	pl.forwardResid(w, w.yRe, w.yIm, w.active)
	// float64(...): the compiler may otherwise fuse γ·α into a − thr.
	thr := float64(gamma * t.curAlpha)
	scr := t.screenStep(thr)
	t.screened += int64(pl.adjoint(w, w.quads, w.residRe, w.resIm, &scr))
	return shrinkQuads(gamma, thr, w.live, w.yRe, w.yIm, w.pRe, w.pIm, w.gRe, w.gIm, 0, 0)
}

// endStep closes the iteration gradStep just advanced, given its ‖Δp‖²
// and restart product: momentum/restart bookkeeping, the extrapolation
// y = p + β·Δp from the stored steps and the rebuild of y's ascending
// support (momentumQuads, one call over the live quads: a skipped quad
// keeps y = +0, which is what the extrapolation would store),
// α-continuation, work accounting, the caller's yield hook, and the
// stopping rules. It reports whether a rule stopped the phase and
// whether that rule was the gap certificate.
func (t *solveTask) endStep(diffSq, gdot float64) (stop, gap bool) {
	w := t.w
	// Adaptive (gradient) restart, O'Donoghue & Candès: when the
	// extrapolated step opposes the direction of progress the momentum
	// has overshot — reset it, turning FISTA's oscillatory tail into
	// near-linear convergence. Restarts run only in the polish: the
	// grating lobes of the coherent band lattice make the full-grid LASSO
	// optimum a degenerate face (mass can sit on an alias ghost with the
	// same objective), and on the full grid a restarted trajectory may
	// settle on a ghost vertex that the sustained-momentum trajectory
	// avoids. The polish set, the stopped support dilated by a few cells,
	// excludes the ghost family, so restarting there is safe.
	if t.polish && gdot > 0 && t.curAlpha == t.alpha {
		t.tMom = 1
	}
	tNext := (1 + math.Sqrt(1+float64(4*t.tMom*t.tMom))) / 2
	beta := (t.tMom - 1) / tNext
	w.active = momentumQuads(beta, w.live, w.pRe, w.pIm, w.gRe, w.gIm, w.yRe, w.yIm, w.active[:0])
	t.tMom = tNext
	// Decay the continuation threshold toward the target α, jumping
	// ahead when the iterate has already stalled at the current
	// threshold (further same-α iterations are no-ops the Epsilon exit
	// cannot act on yet).
	if t.curAlpha > t.alpha {
		d := t.decay
		if math.Sqrt(diffSq) < t.opts.Epsilon {
			d = contStallDecay
		}
		t.curAlpha *= d
		if t.curAlpha < t.alpha {
			t.curAlpha = t.alpha
		}
	}

	t.res.Work += int64(len(t.set))
	if math.Sqrt(diffSq) < t.opts.Epsilon && t.curAlpha == t.alpha {
		t.res.Converged = true
		return true, false
	}
	// The main iterate checks the gap whenever a tolerance exists, and
	// calls the yield hook; a polish is short, restricted and
	// about to finish, so it never yields, and checks the gap only under
	// the gap-certified polish exit.
	yields := t.opts.Yield != nil && !t.polish
	gapChecks := t.useGap && (!t.polish || polishGapExit)
	if !(gapChecks || yields) || t.iter < t.checkAt {
		return false, false
	}
	if yields {
		t.opts.Yield()
	}
	if !gapChecks {
		// Yield-only cadence: no gap tolerance to measure, so the hook
		// just rides the coarse check interval.
		t.checkAt = t.iter + gapEvery
		return false, false
	}
	ok, s := t.gapCheck()
	if ok {
		t.res.Converged = true
		return true, true
	}
	if s >= gapDualGate {
		t.checkAt = t.iter + gapFine
	} else {
		t.checkAt = t.iter + gapEvery
	}
	return false, false
}

// gapCheck measures the LASSO duality gap of the current iterate over
// the grid cells in the phase's working set and reports whether the
// solve may stop: the scaled residual θ = min(1, α/‖Fᴴr‖∞)·r is dual
// feasible over the phase's working set (the whole grid for the main
// iterate; the polish certifies its restricted problem), so
//
//	gap = ½‖r‖² + α‖p‖₁ + ½‖θ‖² + Re⟨θ, h̃⟩
//
// bounds the objective suboptimality. The tolerance is the noise
// energy ½‖w‖² (scaled by gapScale) from the caller's per-sweep
// estimate: once the objective is certified within the energy the
// noise contributes, the remaining iterations fit noise, not paths.
// A check costs about one iteration over the same set, paid once per
// gapEvery. GapAtStop refreshes on every check, so even
// iteration-capped solves report their last certified gap.
func (t *solveTask) gapCheck() (bool, float64) {
	pl, w, set, n := t.pl, t.w, t.set, t.pl.n
	// Residual at the iterate p: the iteration loop's residual is
	// taken at the extrapolation point y, which is not the point the
	// gap certifies. Both scratch residuals are recomputed next
	// iteration, so reusing them here is safe. The support scratch is
	// gsupp, not supp: during a polish the working set itself aliases
	// supp.
	w.gsupp = w.gsupp[:0]
	var l1 float64
	for _, j := range set {
		if w.pRe[j] != 0 || w.pIm[j] != 0 {
			w.gsupp = append(w.gsupp, j)
			l1 += detmath.Hypot(w.pRe[j], w.pIm[j])
		}
	}
	pl.forwardResid(w, w.pRe, w.pIm, w.gsupp)
	var resSq, rh float64
	for i := 0; i < n; i++ {
		resSq += float64(w.residRe[i]*w.residRe[i]) + float64(w.resIm[i]*w.resIm[i])
		rh += float64(w.residRe[i]*w.hRe[i]) + float64(w.resIm[i]*w.hIm[i])
	}
	// The iteration's steps in w.g* were consumed by endStep's momentum
	// before this check, so the adjoint pass may overwrite them.
	pl.adjoint(w, w.quads, w.residRe, w.resIm, nil)
	var maxSq float64
	for _, j := range set {
		if sq := float64(w.gRe[j]*w.gRe[j]) + float64(w.gIm[j]*w.gIm[j]); sq > maxSq {
			maxSq = sq
		}
	}
	t.res.Work += int64(len(set) + len(w.gsupp))
	gInf := math.Sqrt(maxSq)
	s := 1.0
	if gInf > t.alpha && t.alpha > 0 {
		s = t.alpha / gInf
	}
	gap := float64(0.5*resSq) + float64(t.alpha*l1) + float64(0.5*s*s*resSq) + float64(s*rh)
	if gap < 0 {
		gap = 0 // rounding on an essentially optimal iterate
	}
	t.res.GapAtStop = gap
	tol := 0.5 * gapScale * t.opts.NoiseFloor * t.opts.NoiseFloor
	if t.polish {
		tol *= polishGapFrac
	}
	return s >= gapDualGate && gap <= tol, s
}

// runPolish canonicalizes a gap-stopped iterate: a restricted solve at
// the tight iterate tolerance over the stopped support (dilated by
// polishDilate cells), costing O(support) per iteration. The gap stop
// decides *when* the dense work may end; the polish pins *where* the
// iterate lands — any two trajectories that stop with the same
// support converge to the same restricted optimum — and sharpens the
// support amplitudes the downstream dominance tests read. A gap stop
// inside the polish is its exit, not a trigger for another polish.
func (t *solveTask) runPolish() {
	w, m := t.w, t.pl.m
	w.supp = w.supp[:0]
	last := -1
	for j := 0; j < m; j++ {
		if w.pRe[j] == 0 && w.pIm[j] == 0 {
			continue
		}
		lo, hi := j-polishDilate, j+polishDilate
		if lo <= last {
			lo = last + 1
		}
		if lo < 0 {
			lo = 0
		}
		if hi > m-1 {
			hi = m - 1
		}
		for k := lo; k <= hi; k++ {
			w.supp = append(w.supp, k)
		}
		last = hi
	}
	if len(w.supp) == 0 || len(w.supp) >= m {
		return
	}
	// Fresh momentum sequence seeded at p (y ≡ p is zero outside the
	// polish set, since the set contains the whole support).
	copy(w.yRe, w.pRe)
	copy(w.yIm, w.pIm)
	w.active = w.active[:0]
	for _, j := range w.supp {
		if w.pRe[j] != 0 || w.pIm[j] != 0 {
			w.active = append(w.active, j)
		}
	}
	t.run(w.supp, t.alpha, true)
	// The solve converged by its gap certificate whether or not the
	// polish met the tight tolerance inside its budget.
	t.res.Converged = true
}

// finishResid recomputes resid = F·p − h̃ at the current iterate.
func (t *solveTask) finishResid() {
	w, m := t.w, t.pl.m
	w.active = w.active[:0]
	for j := 0; j < m; j++ {
		if w.pRe[j] != 0 || w.pIm[j] != 0 {
			w.active = append(w.active, j)
		}
	}
	t.pl.forwardResid(w, w.pRe, w.pIm, w.active)
}

// finalize materializes the Result.
func (t *solveTask) finalize() {
	w, res, n, m := t.w, t.res, t.pl.n, t.pl.m
	var resSq float64
	for i := 0; i < n; i++ {
		resSq += float64(w.residRe[i]*w.residRe[i]) + float64(w.resIm[i]*w.resIm[i])
	}
	res.Residual = math.Sqrt(resSq)

	res.Profile = growVec(res.Profile, m)
	res.Magnitude = growFloats(res.Magnitude, m)
	for j := 0; j < m; j++ {
		res.Profile[j] = complex(w.pRe[j], w.pIm[j])
		res.Magnitude[j] = math.Sqrt(float64(w.pRe[j]*w.pRe[j]) + float64(w.pIm[j]*w.pIm[j]))
	}
}

// norm2Planar is ‖h‖₂ over the planar split — the default-ε scale.
func norm2Planar(re, im []float64) float64 {
	var s float64
	for i := range re {
		s += float64(re[i]*re[i]) + float64(im[i]*im[i])
	}
	return math.Sqrt(s)
}
