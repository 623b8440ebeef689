package ndft

import "math"

// The drift-bound screen. gradStep's shrink zeroes a cell whose y and p
// are both +0 as soon as |g| ≤ curAlpha (within rounding), and then
// stores +0 as the cell's step whatever g was. The screen proves that
// ahead of the adjoint, from a bound on how far g can have moved since
// the cell was last computed, and skips the cell's adjoint row. Unlike
// LASSO safe screening, which drops atoms that are zero at the optimum
// and so changes the trajectory, it skips a cell only in an iteration
// whose output for that cell is already fixed.
//
// The bound. gradStep t applies Fᴴ to its residual rₜ = F·yₜ − h̃. Atom j's
// adjoint row aⱼ has n entries of modulus 1, so by Cauchy–Schwarz
// |gⱼ(t) − gⱼ(s)| = |⟨aⱼ, rₜ − rₛ⟩| ≤ √n·‖rₜ − rₛ‖, and by the triangle
// inequality along the residual path ‖rₜ − rₛ‖ ≤ Dₜ − Dₛ, where
// D = Σ‖rₖ − rₖ₋₁‖₂ runs over the solve's consecutive gradStep residuals.
// So with keyⱼ = |gⱼ(s)| − √n·Dₛ from the cell's last computed step s,
//
//	|gⱼ(t)| ≤ keyⱼ + √n·Dₜ,
//
// and keyⱼ < curAlpha − √n·Dₜ proves |gⱼ(t)| < curAlpha. h̃ and F are
// fixed for a whole Solve, so D and the keys span all of its phases:
// main, polish, grown and fallback. Keys start at +Inf for every solve;
// only gradStep screens and refreshes them.
//
// Rounding. The test is keyⱼ < T with
//
//	T = curAlpha·(1−δ) − √n·(1+δ)·D − ε,  ε = screenEps·max‖rₖ‖,
//
// δ = screenDelta and u = 2⁻⁵³. What T must absorb:
//   - The shrink's compare. With y = +0 the shrink forms pr = −fl(γ·gr)
//     and zeroes the cell when fl(pr²+pi²) ≤ fl(thr²), thr = fl(γ·curAlpha):
//     four roundings up on the left, three down on the right, so
//     |g| ≤ curAlpha·(1−4u) suffices.
//   - The adjoint's rounding. The computed g differs from the exact
//     product of the stored row with the computed residual by at most
//     √2·(n/4+7)·u·√n·‖r‖: one rounding per complex product term, at most
//     n/4+4 chain additions and two fold levels, with Σ|aᵢ||rᵢ| ≤ √n·‖r‖.
//     That enters twice, at s and at t; ε = 4·(n+8)·u·√n·max‖r‖ covers
//     both (screenEps holds 4·(n+8)·u·√n).
//   - The atoms. The stored entries come from math.Sincos; NewPlan checks
//     that every |aᵢ|² ≤ 1+2⁻⁴⁰, or turns the screen off for the plan.
//   - D. Each ‖rₖ − rₖ₋₁‖ is computed within (n+4)·u, and the running sum
//     loses at most t·u·Dₜ after t steps. The screen stops after
//     screenMaxSteps steps of one solve, so t·u ≤ 2⁻³³.
//   - The key and T themselves: |g| by math.Sqrt, the product √n·D and
//     the subtractions, a few u of curAlpha and of √n·D each.
//   - Underflow. T is −Inf unless thr and curAlpha lie in [2⁻⁵⁰⁰, 2⁵⁰⁰].
//     There a denormal square errs by less than 2⁻⁷⁰·thr², and the |g|
//     of a key by less than 2⁻³⁶·curAlpha.
//
// The relative terms sum to less than (n+40)·u + 2⁻³³ + 2⁻³⁶ of curAlpha
// and of √n·D, about 1.3e-10 at n = screenMaxN, and δ = 1e-9 covers
// them. Non-finite values turn the screen off: a NaN or infinite
// residual makes D or max‖r‖ NaN or +Inf, so T is NaN or −Inf, and a
// NaN key fails the compare.
//
// Exactness. A skipped cell would have shrunk to +0 anyway. With g
// stored as +0 the shrink takes the same branch and stores the same +0
// step; the step adds +0 to ‖Δp‖² and to the restart product, and
// neither sum can be −0 (both start at +0, and a sum rounds to −0 only
// when both addends are −0), so y, p, the active list and both sums keep
// their bits. Result.Work still counts every working-set cell.
const (
	screenDelta    = 1e-9
	screenMaxSteps = 1 << 20
	screenMaxN     = 1 << 20
	screenMinThr   = 0x1p-500
	screenMaxThr   = 0x1p500
)

// screenOff switches the screen off for the package's tests, which
// compare screened and unscreened solves bit for bit.
var screenOff = false

// screen is one gradStep's skip test, handed to adjCells: the grid's y,
// p and keys (indexed by cell), the threshold T, and c = √n·D, which a
// computed cell's key subtracts from |g|.
type screen struct {
	yRe, yIm, pRe, pIm, key []float64
	thr, c                  float64
}

// resetScreen starts a solve's screen: every key +Inf, no path yet.
func (t *solveTask) resetScreen() {
	for j := range t.w.key {
		t.w.key[j] = math.Inf(1)
	}
}

// screenStep advances the residual path by gradStep's new residual
// (w.resid*, at y) and returns the step's screen for a shrink threshold
// thr = γ·curAlpha. The previous residual is kept in w.prev*, because gap
// checks and audits overwrite the scratch residual between steps.
func (t *solveTask) screenStep(thr float64) screen {
	pl, w := t.pl, t.w
	n := pl.n
	resRe, resIm, prevRe, prevIm := w.residRe[:n], w.resIm[:n], w.prevRe[:n], w.prevIm[:n]
	var dSq, rSq float64
	for i, rr := range resRe {
		ri := resIm[i]
		dr, di := rr-prevRe[i], ri-prevIm[i]
		dSq += float64(dr*dr) + float64(di*di)
		rSq += float64(rr*rr) + float64(ri*ri)
		prevRe[i], prevIm[i] = rr, ri
	}
	// The first step has no previous residual (w.prev* holds another
	// solve's).
	if t.steps > 0 {
		t.path += math.Sqrt(dSq)
	}
	t.steps++
	t.resMaxSq = max(t.resMaxSq, rSq)

	s := screen{
		yRe: w.yRe, yIm: w.yIm, pRe: w.pRe, pIm: w.pIm, key: w.key,
		thr: math.Inf(-1),
		c:   float64(pl.sqrtN * t.path),
	}
	a := t.curAlpha
	if pl.screenOK && !screenOff && t.steps <= screenMaxSteps &&
		thr >= screenMinThr && thr <= screenMaxThr && a >= screenMinThr && a <= screenMaxThr {
		s.thr = float64(a*(1-screenDelta)) - float64(pl.screenSlope*t.path) - float64(pl.screenEps*math.Sqrt(t.resMaxSq))
	}
	return s
}
