package ndft

import (
	"math"
	"math/rand"
	"sync"

	"chronos/internal/dsp"
	"chronos/internal/linalg"
)

// Plan is the precomputed, reusable form of one NDFT inversion problem:
// the dictionary F for a fixed (freqs, taus) pair, its conjugate
// transpose laid out row-major so the adjoint product streams through
// memory, and the Lipschitz/step constants Algorithm 1 needs. A Plan is
// built once per band-group signature and shared: Solve is safe for
// concurrent use (scratch vectors live in an internal pool, one set per
// in-flight solve), and steady-state solves allocate nothing, so the
// per-sweep hot path of the streaming trackers and the campaign worker
// pool never rebuild or reallocate solver state.
//
// Both the dictionary and the iterate vectors are stored as split
// real/imaginary float64 slices ("planar" layout). The solver's inner
// products then run on independent scalar accumulator chains, which the
// interleaved complex128 representation would serialize.
type Plan struct {
	Freqs []float64 // n measurement frequencies (Hz)
	Taus  []float64 // m delay-grid points (seconds)

	n, m int
	// The conjugate-transpose dictionary Fᴴ (m×n), row-major planar. It
	// is the only stored form: the adjoint product walks its rows, and
	// the forward product walks the same rows as conjugated columns of
	// F, so no separate forward copy is kept.
	fhRe, fhIm []float64

	normSq float64 // ‖F‖₂²
	gamma  float64 // ISTA step size 1/‖F‖₂²

	// allIdx is [0, m): the full-grid iteration set, shared by every
	// dense solve so restricted and dense paths run the same loops.
	allIdx []int

	ws sync.Pool // *workspace
}

// workspace is the per-solve scratch state: every vector Algorithm 1
// touches, preallocated at plan dimensions so iterations are
// allocation-free.
type workspace struct {
	hRe, hIm       []float64 // measurement, planar (n)
	residRe, resIm []float64 // F·src − h̃ (n)
	pRe, pIm       []float64 // iterate (m)
	prevRe, prevIm []float64 // previous iterate (m)
	yRe, yIm       []float64 // FISTA extrapolation point (m)
	active         []int     // support of the extrapolation point (≤ m)
	idx            []int     // restricted working set for warm solves (≤ m)
	supp           []int     // polish working set (≤ m)
	gsupp          []int     // support of the iterate at a gap check (≤ m)
	corr           []float64 // correlation magnitudes for the noise MAD (≤ m)
}

// NewPlan precomputes the NDFT dictionary, its adjoint, and the ISTA
// step size for the given frequencies and delay grid. Construction is
// O(n·m) plus a short power iteration; amortize it through a registry
// (see internal/tof) rather than per solve.
func NewPlan(freqs, taus []float64) (*Plan, error) {
	n, m := len(freqs), len(taus)
	if n == 0 || m == 0 {
		return nil, errEmptyGrid
	}
	pl := &Plan{
		Freqs: append([]float64(nil), freqs...),
		Taus:  append([]float64(nil), taus...),
		n:     n, m: m,
		fhRe: make([]float64, n*m), fhIm: make([]float64, n*m),
	}
	f := linalg.NewCMatrix(n, m)
	for i, fr := range freqs {
		for k, tau := range taus {
			ph := -2 * math.Pi * fr * tau
			// Reduce the argument before Sincos: fr·tau can reach 1e1
			// range but ph magnitudes stay modest; Mod keeps precision.
			ph = math.Mod(ph, 2*math.Pi)
			s, c := math.Sincos(ph)
			f.Data[i*m+k] = complex(c, s)
			// Adjoint row k, column i: conj(F[i][k]).
			pl.fhRe[k*n+i], pl.fhIm[k*n+i] = c, -s
		}
	}
	// f is used only for the power iteration below and then released;
	// the planar adjoint is the plan's dictionary.
	pl.allIdx = make([]int, m)
	for j := range pl.allIdx {
		pl.allIdx[j] = j
	}
	norm := f.SpectralNorm(rand.New(rand.NewSource(1)), 40)
	if norm == 0 {
		return nil, errZeroNorm
	}
	pl.normSq = norm * norm
	pl.gamma = 1 / pl.normSq
	pl.ws.New = func() any {
		return &workspace{
			hRe: make([]float64, n), hIm: make([]float64, n),
			residRe: make([]float64, n), resIm: make([]float64, n),
			pRe: make([]float64, m), pIm: make([]float64, m),
			prevRe: make([]float64, m), prevIm: make([]float64, m),
			yRe: make([]float64, m), yIm: make([]float64, m),
			active: make([]int, 0, m), idx: make([]int, 0, m),
			supp: make([]int, 0, m), gsupp: make([]int, 0, m),
			corr: make([]float64, 0, m),
		}
	}
	return pl, nil
}

// Dims returns the plan's (frequency, delay-grid) dimensions.
func (pl *Plan) Dims() (n, m int) { return pl.n, pl.m }

// Gamma returns the precomputed ISTA step size 1/‖F‖₂².
func (pl *Plan) Gamma() float64 { return pl.gamma }

// warmDilate is the working-set dilation radius, in grid cells, around
// each warm-start support cell: peaks may drift this far between solves
// (several cells covers walking-speed motion and noise wander on the
// default grids) without leaving the restricted set. Drifts beyond the
// set are caught by the KKT check and fall back to a full solve.
const warmDilate = 8

// kktSlack is the multiplicative tolerance on the LASSO optimality bound
// |Fᴴ(F·p−h̃)| ≤ α when auditing grid cells excluded from a restricted
// solve; an excluded cell marginally above α would carry a negligible
// coefficient, so a small slack avoids needless full-grid fallbacks.
const kktSlack = 1.02

// gapEvery and gapFine are the duality-gap check cadences, in
// iterations. A check costs about one iteration over the same working
// set (one sparse forward plus one adjoint pass), so the coarse cadence
// bounds the overhead near 1/gapEvery while the dual-feasibility gate
// is still closed; once a check observes the gate open (the support has
// settled and the stop is near), the cadence tightens to gapFine so the
// stop lands close to the actual tolerance crossing instead of up to a
// whole coarse period past it.
const (
	gapEvery = 25
	gapFine  = 5
)

// gapDualGate is the minimum dual-feasibility scaling s = α/‖Fᴴr‖∞ at
// which a gap check may stop the solve. Early iterations leave signal
// in the residual, which makes the scaled dual point loose and the gap
// bound slack; requiring the gradient to be nearly below α first means
// the support is essentially settled and the remaining work is
// amplitude refinement the noise floor bounds.
const gapDualGate = 0.85

// contDecay is the per-iteration α-continuation decay, and
// contStallDecay the accelerated decay applied when the iterate has
// already converged (‖Δp‖ < ε) at the current continuation threshold:
// the Epsilon exit is gated on the schedule having reached the target α,
// so idling through the remaining schedule at the slow decay would burn
// budget making no progress.
const (
	contDecay      = 0.97
	contStallDecay = 0.7
)

// polishDilate is the working-set dilation around the support of a
// gap-stopped iterate for the amplitude-polish pass, and polishBudget
// its iteration cap. A gap stop certifies the objective within the
// noise energy, but the amplitudes on the found support are still
// mid-trajectory; polishing that support (a restricted solve at the
// tight iterate tolerance) canonicalizes the result — any two
// trajectories that stop with the same support converge to the same
// restricted optimum — and sharpens peak magnitudes for downstream
// dominance tests, at a cost proportional to the support size rather
// than the grid.
const (
	polishDilate = 3
	polishBudget = 600
)

// kktViolated audits the LASSO optimality conditions of a restricted
// solution over the full grid: every zero coefficient must satisfy
// |Fᴴ(F·p−h̃)|ⱼ ≤ α (within kktSlack). One full adjoint pass — the cost
// of a single dense iteration — proves the working set contained the
// optimum; a violation means the restricted answer must be discarded.
// Expects w.resid* to hold the residual at the current iterate.
func (pl *Plan) kktViolated(w *workspace, alpha float64) bool {
	n, m := pl.n, pl.m
	limSq := alpha * kktSlack * alpha * kktSlack
	for j := 0; j < m; j++ {
		if w.pRe[j] != 0 || w.pIm[j] != 0 {
			continue
		}
		gr, gi := adjDot(pl.fhRe[j*n:(j+1)*n], pl.fhIm[j*n:(j+1)*n], w.residRe, w.resIm)
		if gr*gr+gi*gi > limSq {
			return true
		}
	}
	return false
}

// forwardResid computes resid = F·src − h̃ into the workspace, walking
// only the dictionary columns in src's support (ascending, so the
// accumulation order — hence the result — is deterministic). Each column
// F[·][j] is read as the conjugate of adjoint row j, which is
// contiguous; the elementwise accumulation goes through axpyCol, which
// vectorizes it on the active kernel tier without changing a bit.
func (pl *Plan) forwardResid(w *workspace, srcRe, srcIm []float64, active []int) {
	n := pl.n
	for i := 0; i < n; i++ {
		w.residRe[i] = -w.hRe[i]
		w.resIm[i] = -w.hIm[i]
	}
	for _, j := range active {
		axpyCol(pl.fhRe[j*n:(j+1)*n], pl.fhIm[j*n:(j+1)*n],
			srcRe[j], srcIm[j], w.residRe[:n], w.resIm[:n])
	}
}

func (pl *Plan) getWorkspace() *workspace { return pl.ws.Get().(*workspace) }

// cdot is the planar complex inner product Σ a[k]·x[k] (no conjugation —
// the adjoint rows are stored pre-conjugated), and the reference
// implementation of the solver's fixed-K accumulation contract: four
// independent accumulator chains (element i feeds chain i mod 4), the
// k mod 4 tail feeding chain 0, folded as (s0+s1)+(s2+s3). The chains
// hide scalar add latency; the fixed split is deterministic, so results
// are identical across runs, worker counts, and — because every SIMD
// tier implements the same contract lane-for-lane (see adjDot) — across
// architectures.
func cdot(aRe, aIm, xRe, xIm []float64) (float64, float64) {
	k := len(aRe)
	aIm = aIm[:k]
	xRe = xRe[:k]
	xIm = xIm[:k]
	var sr0, si0, sr1, si1, sr2, si2, sr3, si3 float64
	i := 0
	for ; i+4 <= k; i += 4 {
		ar0, ai0, br0, bi0 := aRe[i], aIm[i], xRe[i], xIm[i]
		sr0 += ar0*br0 - ai0*bi0
		si0 += ar0*bi0 + ai0*br0
		ar1, ai1, br1, bi1 := aRe[i+1], aIm[i+1], xRe[i+1], xIm[i+1]
		sr1 += ar1*br1 - ai1*bi1
		si1 += ar1*bi1 + ai1*br1
		ar2, ai2, br2, bi2 := aRe[i+2], aIm[i+2], xRe[i+2], xIm[i+2]
		sr2 += ar2*br2 - ai2*bi2
		si2 += ar2*bi2 + ai2*br2
		ar3, ai3, br3, bi3 := aRe[i+3], aIm[i+3], xRe[i+3], xIm[i+3]
		sr3 += ar3*br3 - ai3*bi3
		si3 += ar3*bi3 + ai3*br3
	}
	for ; i < k; i++ {
		sr0 += aRe[i]*xRe[i] - aIm[i]*xIm[i]
		si0 += aRe[i]*xIm[i] + aIm[i]*xRe[i]
	}
	return (sr0 + sr1) + (sr2 + sr3), (si0 + si1) + (si2 + si3)
}

// split scatters a complex vector into planar destination slices.
func split(dstRe, dstIm []float64, v dsp.Vec) {
	for i, c := range v {
		dstRe[i], dstIm[i] = real(c), imag(c)
	}
}

func zero(v []float64) {
	for i := range v {
		v[i] = 0
	}
}

// growVec returns v resized to n elements, reusing its backing array
// when the capacity allows.
func growVec(v dsp.Vec, n int) dsp.Vec {
	if cap(v) >= n {
		return v[:n]
	}
	return make(dsp.Vec, n)
}

func growFloats(v []float64, n int) []float64 {
	if cap(v) >= n {
		return v[:n]
	}
	return make([]float64, n)
}
