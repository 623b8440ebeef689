package ndft

import (
	"fmt"
	"math"
	"math/rand"

	"chronos/internal/detmath"
	"chronos/internal/dsp"
	"chronos/internal/obs"
)

// SolveRequest is one inversion request against a Plan: the measurement
// vector, an optional warm-start profile on the plan's delay grid, an
// optional recycled Result, and the solver options.
type SolveRequest struct {
	// H is the measurement vector (length = the plan's frequency count).
	H dsp.Vec
	// Warm, when non-nil, is an initial iterate on the plan's delay grid
	// — typically the previous sweep's converged profile. See Solve.
	Warm dsp.Vec
	// Dst, when non-nil, is reused for the result (its Profile and
	// Magnitude backing arrays are recycled), making steady-state solves
	// allocation-free; nil allocates a fresh Result.
	Dst *Result
	InvertOptions
}

// polishGapFrac scales the solve's duality-gap tolerance down for the
// gap-certified polish exit: the polish pass exists to canonicalize the
// stopped iterate (warm and cold trajectories must land on the same
// restricted optimum), so its own certificate must be much tighter than
// the stop that triggered it — 1/16 keeps the canonical point within the
// agreement tolerances the equivalence fixtures pin while still bounding
// the polish far below its 600-iteration budget on broad noisy supports.
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
	restricted     bool

	// Telemetry latches: everGap records that a main or fallback iterate
	// ended on the gap certificate, expansions counts the KKT audits that
	// grew the working set, and fellBack that an audit forced the cold
	// fallback. Read once per solve by record.
	everGap    bool
	expansions int
	fellBack   bool

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

// Solve runs Algorithm 1 on one request. req.Warm, when non-nil,
// restricts the iteration to a working set (the warm support dilated by
// warmDilate cells), making each iteration proportional to the support
// size rather than the grid size; a final full-grid KKT audit proves the
// excluded atoms inactive. On violation (the target moved past the set)
// the set grows over every violating cell and the restricted solve
// continues from its current iterate, audited again when it stops; only
// an audit that cannot grow the set falls back to a cold full-grid
// solve. Every answer is therefore either KKT-certified on the full grid
// or the cold one, so warm and cold starts converge to the same fixed
// points. req.Dst, when non-nil, is reused for the result, making
// steady-state solves allocation-free. The request's shapes are checked
// before any solving starts; on error no result is written. Solve may be
// called concurrently on one shared Plan.
func (pl *Plan) Solve(req SolveRequest) (*Result, error) {
	if len(req.H) != pl.n {
		return nil, fmt.Errorf("ndft: measurement length %d != %d frequencies", len(req.H), pl.n)
	}
	if req.Warm != nil && len(req.Warm) != pl.m {
		return nil, fmt.Errorf("ndft: warm start length %d != %d grid points", len(req.Warm), pl.m)
	}
	wallStart := obs.Tick()
	if req.Dst == nil {
		req.Dst = &Result{}
	}
	w := pl.getWorkspace()
	var t solveTask
	t.init(pl, &req, w)
	idx, a0 := t.start(req.Warm)
	t.iterate(idx, a0)
	t.audit()
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

// start finishes setup — the Fᴴh̃ correlation bound, α scaling, warm
// working-set construction or cold initialization, result reset — and
// returns the main iterate's working set and starting threshold.
func (t *solveTask) start(warm dsp.Vec) (idx []int, a0 float64) {
	pl, w, m := t.pl, t.w, t.pl.m
	// ‖Fᴴh̃‖∞ drives the default α scaling and the cold continuation
	// ramp: one dense adjoint pass.
	pl.adjointDense(w.hRe, w.hIm, w.gRe, w.gIm)
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

	// Initialize the iterate and, for warm starts with a usable support,
	// the restricted working set.
	w.active = w.active[:0]
	idx = pl.allIdx
	if warm != nil {
		split(w.pRe, w.pIm, warm)
		for j := 0; j < m; j++ {
			if w.pRe[j] != 0 || w.pIm[j] != 0 {
				w.active = append(w.active, j)
			}
		}
		if len(w.active) == 0 {
			warm = nil // empty seed: run the ordinary cold start
		} else {
			w.idx = w.idx[:0]
			last := -1
			for _, j := range w.active {
				lo, hi := j-warmDilate, j+warmDilate
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
					w.idx = append(w.idx, k)
				}
				last = hi
			}
			if len(w.idx) < m {
				idx = w.idx
				t.restricted = true
			}
		}
	}
	if warm == nil {
		if t.opts.Seed != 0 {
			rng := rand.New(rand.NewSource(t.opts.Seed))
			s := norm2Planar(w.hRe, w.hIm) / float64(m)
			for i := 0; i < m; i++ {
				w.pRe[i], w.pIm[i] = rng.NormFloat64()*s, rng.NormFloat64()*s
				w.active = append(w.active, i)
			}
		} else {
			zero(w.pRe)
			zero(w.pIm)
		}
	}
	copy(w.yRe, w.pRe)
	copy(w.yIm, w.pIm)

	res := t.res
	res.Taus = pl.Taus
	res.Iterations, res.Converged, res.Work = 0, false, 0
	res.GapAtStop = 0
	// The gap rule needs a tolerance to stop against: the caller's
	// per-sweep noise estimate. Without one the checks could never pass,
	// so they are skipped entirely and the iterate rule decides alone.
	t.useGap = t.opts.Stop == StopGap && t.opts.NoiseFloor > 0

	// α-continuation: start with a large threshold that admits only the
	// strongest atoms and decay toward the target α, steering the iterate
	// into the basin of the sparse global optimum before fine fitting
	// begins — important because the non-uniform band lattice makes the
	// dictionary highly coherent (strong grating lobes). A warm start is
	// already in that basin and begins at the target α directly.
	if warm == nil {
		return idx, t.coldAlpha()
	}
	return idx, t.alpha
}

// coldAlpha is the continuation ramp's starting threshold for a cold
// full-grid iterate: half the largest atom correlation, or the target α
// when that is already larger.
func (t *solveTask) coldAlpha() float64 {
	if t.corrInf > t.alpha {
		return t.corrInf * 0.5
	}
	return t.alpha
}

// iterate runs one main or fallback iterate phase over set, from the
// current iterate and starting threshold a0, and, when the phase stops on
// the gap certificate, the polish of the stopped iterate.
func (t *solveTask) iterate(set []int, a0 float64) {
	if t.run(set, a0, false) {
		t.everGap = true
		t.runPolish()
	}
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
// its runs of consecutive cells (the set does not change inside a
// phase, so every adjoint pass of the phase reuses the runs),
// continuation schedule, momentum sequence, gap-check cadence.
func (t *solveTask) beginIterate(set []int, a0 float64, budget int, polish bool) {
	t.set = set
	t.w.runs = setRuns(t.w.runs, set)
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
// phase's working set. The adjoint runs once per run of consecutive
// cells (adjointRuns: the fixed-K chain contract per cell, same bits on
// every tier) under the drift-bound screen (screen.go), which stores +0
// for every quad of cells it proves would shrink to +0 anyway;
// shrinkRun then shrinks each run's cells, stores each cell's step
// p − p_prev in place of its gradient, and adds ‖Δp‖² and the restart
// test's ⟨y − p, Δp⟩ cell by cell, carried from run to run in set order;
// gradStep returns both for endStep. On the AVX2 tier the shrink runs
// four cells to a vector, bit for bit as shrinkRunScalar.
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
	t.screened += int64(pl.adjointRuns(w.runs, w.residRe, w.resIm, w.gRe, w.gIm, &scr))
	pos := 0
	for _, r := range w.runs {
		lo, hi := r[0], r[1]
		next := pos + hi - lo
		diffSq, gdot = shrinkRun(gamma, thr, w.yRe[lo:hi], w.yIm[lo:hi], w.pRe[lo:hi], w.pIm[lo:hi],
			w.gRe[pos:next], w.gIm[pos:next], diffSq, gdot)
		pos = next
	}
	return diffSq, gdot
}

// endStep closes the iteration gradStep just advanced, given its ‖Δp‖²
// and restart product: momentum/restart bookkeeping, the extrapolation
// y = p + β·Δp from the stored steps and the rebuild of y's ascending
// support (momentumRun, one call per run of the working set: four cells
// to a vector on the AVX2 tier, bit for bit as momentumRunScalar),
// α-continuation, work accounting, the caller's yield hook, and the
// stopping rules. It reports whether a rule stopped the phase and
// whether that rule was the gap certificate.
func (t *solveTask) endStep(diffSq, gdot float64) (stop, gap bool) {
	w, set := t.w, t.set
	w.active = w.active[:0]
	// Adaptive (gradient) restart, O'Donoghue & Candès: when the
	// extrapolated step opposes the direction of progress the momentum
	// has overshot — reset it, turning FISTA's oscillatory tail into
	// near-linear convergence. Restarts run only on restricted
	// working-set solves (a polish, or a warm solve before any cold
	// fallback): the grating lobes of the coherent band lattice
	// make the full-grid LASSO optimum a degenerate face (mass can sit on
	// an alias ghost with the same objective), and on the full grid a
	// restarted trajectory may settle on a ghost vertex that the
	// sustained-momentum trajectory avoids. A working set inherited from
	// the previous fix excludes the ghost family entirely, so restarting
	// there is safe — and it is what lets warm solves converge in tens
	// of iterations instead of ringing for hundreds.
	if (t.polish || t.restricted) && gdot > 0 && t.curAlpha == t.alpha {
		t.tMom = 1
	}
	tNext := (1 + math.Sqrt(1+float64(4*t.tMom*t.tMom))) / 2
	beta := (t.tMom - 1) / tNext
	pos := 0
	for _, r := range w.runs {
		lo, hi := r[0], r[1]
		next := pos + hi - lo
		w.active = momentumRun(beta, lo, w.pRe[lo:hi], w.pIm[lo:hi], w.gRe[pos:next], w.gIm[pos:next],
			w.yRe[lo:hi], w.yIm[lo:hi], w.active)
		pos = next
	}
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

	t.res.Work += int64(len(set))
	if math.Sqrt(diffSq) < t.opts.Epsilon && t.curAlpha == t.alpha {
		t.res.Converged = true
		return true, false
	}
	// The main and fallback iterates check the gap whenever a tolerance
	// exists, and call the yield hook; a polish is short, restricted and
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
// feasible (on the restricted set; the excluded cells are audited by the
// KKT pass), so
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
	pl.adjointRuns(w.runs, w.residRe, w.resIm, w.gRe, w.gIm, nil)
	var maxSq float64
	for k := range set {
		if sq := float64(w.gRe[k]*w.gRe[k]) + float64(w.gIm[k]*w.gIm[k]); sq > maxSq {
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
// support converge to the same restricted optimum, which is what
// keeps warm-started and cold fixes in agreement under early
// stopping, and sharpens the support amplitudes the downstream
// dominance tests read. A gap stop inside the polish is its exit, not a
// trigger for another polish.
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

// audit runs the post-iterate epilogue of a restricted solve: the final
// residual and the full-grid KKT audit. An audit that finds violators
// grows the working set over them and continues the restricted solve,
// audited again when it stops; one that cannot grow it falls back to the
// cold full-grid solve — so warm starting can trade iterations but never
// the answer. It leaves the residual at the final iterate for finalize.
func (t *solveTask) audit() {
	pl, w := t.pl, t.w
	t.finishResid()
	for t.restricted {
		t.res.Work += int64(pl.m) // the KKT audit is one dense adjoint pass
		viol := pl.kktViolators(w, t.alpha)
		if len(viol) == 0 {
			return
		}
		if t.growWorkingSet(viol) {
			// The optimum reaches past the working set (the target
			// moved farther than warmDilate cells between solves):
			// continue from the current iterate — y ← p, and
			// finishResid left active = support(p) — at the target α
			// on the grown set.
			t.expansions++
			copy(w.yRe, w.pRe)
			copy(w.yIm, w.pIm)
			t.iterate(w.idx, t.alpha)
		} else {
			// Growing cannot help: discard the restricted answer and run
			// the cold full-grid solve.
			t.restricted = false
			t.fellBack = true
			zero(w.pRe)
			zero(w.pIm)
			copy(w.yRe, w.pRe)
			copy(w.yIm, w.pIm)
			w.active = w.active[:0]
			t.iterate(pl.allIdx, t.coldAlpha())
		}
		t.finishResid()
	}
}

// growWorkingSet adds each KKT violator, dilated by warmDilate cells, to
// the restricted working set w.idx, rebuilt ascending so the continued
// solve visits cells in a deterministic order. The iterate's support
// (w.active) joins the set too: a polish may have carried it past the
// set's edge, and the restricted iteration only updates cells inside the
// set. Reports false when the violators add no cell — they already sit
// inside the set, so another round would stop where this one did — or
// when the grown set would cover the whole grid, where the restricted
// solve is the dense one.
func (t *solveTask) growWorkingSet(viol []int) bool {
	w, m := t.w, t.pl.m
	in := w.inSet
	clear(in)
	for _, j := range w.idx {
		in[j] = true
	}
	for _, j := range w.active {
		in[j] = true
	}
	grew := false
	for _, v := range viol {
		for k := max(v-warmDilate, 0); k <= min(v+warmDilate, m-1); k++ {
			if !in[k] {
				in[k] = true
				grew = true
			}
		}
	}
	if !grew {
		return false
	}
	w.idx = w.idx[:0]
	for j, ok := range in {
		if ok {
			w.idx = append(w.idx, j)
		}
	}
	return len(w.idx) < m
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

// norm2Planar is ‖h‖₂ over the planar split — the default-ε and
// random-initialization scale.
func norm2Planar(re, im []float64) float64 {
	var s float64
	for i := range re {
		s += float64(re[i]*re[i]) + float64(im[i]*im[i])
	}
	return math.Sqrt(s)
}
