package ndft

import (
	"math"
	"math/rand"
	"sync"

	"chronos/internal/detmath"
	"chronos/internal/dsp"
)

// Plan is the precomputed, reusable form of one NDFT inversion problem:
// the dictionary F for a fixed (freqs, taus) pair, held only as its
// conjugate transpose in two layouts (row-major for the forward product
// and the row adjoints, cell-major for the AVX2 adjoint), and the
// Lipschitz/step constants Algorithm 1 needs, which the plan computes
// from the row-major layout (spectralNorm). A Plan is
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
	// The conjugate-transpose dictionary Fᴴ (m×n), row-major planar: the
	// forward product walks its rows as conjugated columns of F, and the
	// scalar adjoint walks them as rows.
	fhRe, fhIm []float64
	// ftRe/ftIm is the same Fᴴ stored cell-major: n rows over the m
	// cells, element i of cell j at i·m+j. The AVX2 adjoint reads four
	// consecutive cells of one row per vector load.
	ftRe, ftIm []float64

	// The drift-bound screen's per-plan constants (see screenStep):
	// √n, the slope √n·(1+screenDelta) that T subtracts per unit of
	// residual path length, and the rounding allowance per unit of the
	// largest residual norm. screenOK is false for a plan the screen's
	// error analysis does not cover.
	sqrtN, screenSlope, screenEps float64
	screenOK                      bool

	normSq float64 // ‖F‖₂²
	gamma  float64 // ISTA step size 1/‖F‖₂²

	// allIdx is [0, m): the full-grid iteration set, shared by every
	// dense solve so restricted and dense paths run the same loops, and
	// allQuads its quad list, which every dense adjoint pass walks.
	allIdx, allQuads []int

	ws sync.Pool // *workspace
}

// workspace is the per-solve scratch state: every vector Algorithm 1
// touches, preallocated at plan dimensions so iterations are
// allocation-free.
//
// gRe/gIm hold one adjoint pass's output, indexed by cell. gradStep's
// shrink consumes the gradient of each cell of the live quads and then
// stores the step p − p_prev there, which endStep's momentum reads; the
// next adjoint pass overwrites it. A quad the screen skipped keeps what
// its cells held: neither pass reads it, and every later reader of g runs
// an adjoint pass over its cells first.
type workspace struct {
	hRe, hIm       []float64 // measurement, planar (n)
	residRe, resIm []float64 // F·src − h̃ (n)
	pRe, pIm       []float64 // iterate (m)
	yRe, yIm       []float64 // FISTA extrapolation point (m)
	gRe, gIm       []float64 // adjoint output, then the step, by cell (m)
	prevRe, prevIm []float64 // the previous gradStep residual (n)
	key            []float64 // per cell: |g| − √n·D at its last computed gradStep (m)
	quads          []int     // the phase's working set as a quad list (≤ ⌈m/2⌉)
	live           []int     // the quads the last adjoint pass computed (≤ ⌈m/2⌉)
	active         []int     // support of the extrapolation point (≤ m, 3 spare slots)
	supp           []int     // polish working set (≤ m)
	gsupp          []int     // support of the iterate at a gap check (≤ m)
}

// NewPlan precomputes the NDFT dictionary's two planar layouts of Fᴴ and
// the ISTA step size 1/‖F‖₂² for the given frequencies and delay grid.
// Construction is O(n·m) plus a 40-round power iteration over the
// row-major layout; amortize it through a registry (see internal/tof)
// rather than per solve.
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
		ftRe: make([]float64, n*m), ftIm: make([]float64, n*m),
	}
	var modSqMax float64
	sin, cos := make([]float64, m), make([]float64, m)
	for i, fr := range freqs {
		for k, tau := range taus {
			ph := -2 * math.Pi * fr * tau
			// Reduce the argument before Sincos: fr·tau can reach 1e1
			// range but ph magnitudes stay modest; Mod keeps precision.
			sin[k] = math.Mod(ph, 2*math.Pi)
		}
		detmath.SincosBatch(sin, cos, sin)
		for k, s := range sin {
			c := cos[k]
			// Adjoint row k, column i: conj(F[i][k]).
			pl.fhRe[k*n+i], pl.fhIm[k*n+i] = c, -s
			pl.ftRe[i*m+k], pl.ftIm[i*m+k] = c, -s
			modSqMax = max(modSqMax, float64(c*c)+float64(s*s))
		}
	}
	pl.sqrtN = math.Sqrt(float64(n))
	pl.screenSlope = float64(pl.sqrtN * (1 + screenDelta))
	pl.screenEps = float64(float64(4*(n+8))*0x1p-53) * pl.sqrtN
	pl.screenOK = n <= screenMaxN && modSqMax <= 1+0x1p-40
	pl.allIdx = make([]int, m)
	for j := range pl.allIdx {
		pl.allIdx[j] = j
	}
	pl.allQuads = setQuads(make([]int, 0, (m+3)/4), pl.allIdx)
	norm := pl.spectralNorm()
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
			yRe: make([]float64, m), yIm: make([]float64, m),
			gRe: make([]float64, m), gIm: make([]float64, m),
			prevRe: make([]float64, n), prevIm: make([]float64, n),
			key:   make([]float64, m),
			quads: make([]int, 0, (m+1)/2), live: make([]int, 0, (m+1)/2),
			// momentumQuads' branchless append needs 3 spare slots.
			active: make([]int, 0, m+3),
			supp:   make([]int, 0, m), gsupp: make([]int, 0, m),
		}
	}
	return pl, nil
}

// powerIters is the number of power-iteration rounds behind ‖F‖₂.
const powerIters = 40

// spectralNorm estimates ‖F‖₂, the largest singular value of the
// dictionary, by power iteration on FᴴF over the plan's row-major Fᴴ.
// Each round forms t = F·v with axpyCols, forwardResid's kernel, over
// every column from a zeroed t, then v = Fᴴ·t scaled by 1/‖v‖₂; the
// estimate is ‖F·v‖₂ after the last round. The Fᴴ·t sums run on one
// accumulator from +0 in ascending row order (not on cdot's four chains,
// which round differently), so each output element of both products is
// one ascending chain of Go's (ac−bd, ad+bc) with each partial product
// rounded, which no architecture fuses into a multiply-add.
//
// The start vector is math/rand's normals from seed 1, re then im per
// cell, so every plan of one geometry gets the same step on one
// architecture. Those draws are not all exact: NormFloat64's tail branch
// calls std's math.Log, which is assembly on amd64 and fusable Go
// elsewhere, and seed 1's draw 884 (cell 441's imaginary part) takes it.
// So a plan of 442 cells or more, the 600-cell main plan among them, may
// start an ulp away off amd64, and the step's bits are pinned on amd64
// only. (The draws' other slow branch, the wedge test, only compares,
// and its first 1200 comparisons clear by at least 1659 float32 ulps.)
// It returns 0 when an iterate vanishes.
func (pl *Plan) spectralNorm() float64 {
	n, m := pl.n, pl.m
	rng := rand.New(rand.NewSource(1))
	vRe, vIm := make([]float64, m), make([]float64, m)
	for j := range vRe {
		vRe[j], vIm[j] = rng.NormFloat64(), rng.NormFloat64()
	}
	tRe, tIm := make([]float64, n), make([]float64, n)
	for k := 0; ; k++ {
		zero(tRe)
		zero(tIm)
		axpyCols(pl.fhRe, pl.fhIm, n, pl.allIdx, vRe, vIm, tRe, tIm)
		if k == powerIters {
			return norm2Planar(tRe, tIm)
		}
		// v = Fᴴ·t, one row-major row of Fᴴ per cell.
		for j := range vRe {
			aRe, aIm := pl.fhRe[j*n:(j+1)*n], pl.fhIm[j*n:(j+1)*n]
			var sr, si float64
			for i, ar := range aRe {
				ai := aIm[i]
				sr += float64(ar*tRe[i]) - float64(ai*tIm[i])
				si += float64(ar*tIm[i]) + float64(ai*tRe[i])
			}
			vRe[j], vIm[j] = sr, si
		}
		norm := norm2Planar(vRe, vIm)
		if norm == 0 {
			return 0
		}
		inv := 1 / norm
		for j := range vRe {
			vRe[j] *= inv
			vIm[j] *= inv
		}
	}
}

// Dims returns the plan's (frequency, delay-grid) dimensions.
func (pl *Plan) Dims() (n, m int) { return pl.n, pl.m }

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

// adjointDense writes the full adjoint product Fᴴx into w.g*, indexed
// by cell: one pass over every cell of the grid.
func (pl *Plan) adjointDense(w *workspace, xRe, xIm []float64) {
	pl.adjoint(w, pl.allQuads, xRe, xIm, nil)
}

// adjoint writes (Fᴴx)ⱼ into w.g* for every cell j of a quad list,
// indexed by cell, in one adjQuads call over the plan's two layouts of
// Fᴴ, and leaves the quads it computed in w.live. scr is gradStep's
// screen, or nil to compute every quad; it returns the cells the screen
// skipped.
func (pl *Plan) adjoint(w *workspace, quads []int, xRe, xIm []float64, scr *screen) (skipped int) {
	w.live, skipped = adjQuads(pl.fhRe, pl.fhIm, pl.ftRe, pl.ftIm, pl.n, pl.m, quads, xRe, xIm, w.gRe, w.gIm, scr, w.live)
	return skipped
}

// forwardResid computes resid = F·src − h̃ into the workspace, walking
// only the dictionary columns in src's support (ascending, so the
// accumulation order — hence the result — is deterministic). Each column
// F[·][j] is read as the conjugate of adjoint row j, which is
// contiguous. axpyCols adds the whole support in one call: on the AVX2
// tier each residual chunk stays in registers across every column,
// without changing a bit.
func (pl *Plan) forwardResid(w *workspace, srcRe, srcIm []float64, active []int) {
	n := pl.n
	for i := 0; i < n; i++ {
		w.residRe[i] = -w.hRe[i]
		w.resIm[i] = -w.hIm[i]
	}
	axpyCols(pl.fhRe, pl.fhIm, n, active, srcRe, srcIm, w.residRe, w.resIm)
}

func (pl *Plan) getWorkspace() *workspace { return pl.ws.Get().(*workspace) }

// cdot is the planar complex inner product Σ a[k]·x[k] (no conjugation —
// the adjoint rows are stored pre-conjugated), and the reference
// implementation of the solver's fixed-K accumulation contract: four
// independent accumulator chains (element i feeds chain i mod 4), the
// k mod 4 tail feeding chain 0, folded as (s0+s1)+(s2+s3). The chains
// hide scalar add latency; the fixed split is deterministic, so results
// are identical across runs, worker counts, and — because the AVX2 tier
// implements the same contract lane-for-lane (see adjQuads) — across
// kernel tiers and, by the rounding rule below, architectures.
//
// Every product is wrapped in float64(...). The Go spec lets the
// compiler fuse x*y+z into one multiply-add, and arm64 does; an explicit
// conversion rounds the product first, which forbids the fusion. The
// vector kernels never fuse, so a fused scalar path would round
// differently and break the byte-identity contract. axpyCols' scalar
// loop follows the same rule, and so does every product in this package
// that feeds an addition.
func cdot(aRe, aIm, xRe, xIm []float64) (float64, float64) {
	k := len(aRe)
	aIm = aIm[:k]
	xRe = xRe[:k]
	xIm = xIm[:k]
	var sr0, si0, sr1, si1, sr2, si2, sr3, si3 float64
	i := 0
	for ; i+4 <= k; i += 4 {
		ar0, ai0, br0, bi0 := aRe[i], aIm[i], xRe[i], xIm[i]
		sr0 += float64(ar0*br0) - float64(ai0*bi0)
		si0 += float64(ar0*bi0) + float64(ai0*br0)
		ar1, ai1, br1, bi1 := aRe[i+1], aIm[i+1], xRe[i+1], xIm[i+1]
		sr1 += float64(ar1*br1) - float64(ai1*bi1)
		si1 += float64(ar1*bi1) + float64(ai1*br1)
		ar2, ai2, br2, bi2 := aRe[i+2], aIm[i+2], xRe[i+2], xIm[i+2]
		sr2 += float64(ar2*br2) - float64(ai2*bi2)
		si2 += float64(ar2*bi2) + float64(ai2*br2)
		ar3, ai3, br3, bi3 := aRe[i+3], aIm[i+3], xRe[i+3], xIm[i+3]
		sr3 += float64(ar3*br3) - float64(ai3*bi3)
		si3 += float64(ar3*bi3) + float64(ai3*br3)
	}
	for ; i < k; i++ {
		sr0 += float64(aRe[i]*xRe[i]) - float64(aIm[i]*xIm[i])
		si0 += float64(aRe[i]*xIm[i]) + float64(aIm[i]*xRe[i])
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
