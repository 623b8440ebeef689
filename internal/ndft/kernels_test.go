package ndft

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"chronos/internal/obs"
)

// vectorTiers lists the AVX2 tier when the host CPU and the build can
// run it, so the kernel tests cover the compiled-in kernels wherever the
// hardware supports them. Empty on scalar-only hosts and builds.
func vectorTiers() []kernelTier {
	if t := detectTier(); t != tierScalar {
		return []kernelTier{t}
	}
	return nil
}

// forceTier pins the kernel tier for one subtest, restoring the
// process-wide tier on cleanup.
func forceTier(t *testing.T, tier kernelTier) {
	t.Helper()
	prev := setKernelTier(tier)
	if activeTier != tier {
		setKernelTier(prev)
		t.Fatalf("tier %v unavailable (detected %v)", tier, detectTier())
	}
	t.Cleanup(func() { setKernelTier(prev) })
}

// bothNaNOrEqualBits treats two values as equivalent when they are
// bit-identical or both NaN. NaN payloads are excluded deliberately:
// the Go compiler does not pin operand order for commutative scalar
// ops, so which of two NaN inputs propagates is unspecified even
// between two scalar builds — the solver never feeds NaNs through
// these kernels.
func bothNaNOrEqualBits(a, b float64) bool {
	if math.IsNaN(a) && math.IsNaN(b) {
		return true
	}
	return math.Float64bits(a) == math.Float64bits(b)
}

// kernelVec fills a test vector mixing magnitudes, exact zeros,
// denormals, and (when allowNaN) NaNs.
func kernelVec(rng *rand.Rand, n int, allowNaN bool) []float64 {
	v := make([]float64, n)
	for i := range v {
		switch rng.Intn(10) {
		case 0:
			v[i] = 0
		case 1:
			v[i] = math.Copysign(5e-324, rng.NormFloat64()) // denormal
		case 2:
			v[i] = rng.NormFloat64() * 1e300
		case 3:
			if allowNaN {
				v[i] = math.NaN()
			} else {
				v[i] = rng.NormFloat64() * 1e-300
			}
		default:
			v[i] = rng.NormFloat64()
		}
	}
	return v
}

// kernelTiers lists the scalar tier and, where the host can run it, the
// AVX2 tier: the run-form kernels are checked on each, the scalar one
// included, so the row and column bookkeeping of its loops is covered
// too.
func kernelTiers() []kernelTier {
	return append([]kernelTier{tierScalar}, vectorTiers()...)
}

// checkAdjRows runs adjRows over rows [off, off+rows) of an n-column
// block and requires every row's output to match cdot on that row bit
// for bit (NaN matching NaN), and the output slot past the run to stay
// untouched.
func checkAdjRows(t *testing.T, fhRe, fhIm, xRe, xIm []float64, n, off, rows int) {
	t.Helper()
	const canary = -7.25
	outRe := make([]float64, rows+1)
	outIm := make([]float64, rows+1)
	outRe[rows], outIm[rows] = canary, canary
	adjRows(fhRe[off*n:], fhIm[off*n:], n, xRe, xIm, outRe[:rows], outIm[:rows])
	for r := 0; r < rows; r++ {
		row := (off + r) * n
		wantR, wantI := cdot(fhRe[row:row+n], fhIm[row:row+n], xRe, xIm)
		if !bothNaNOrEqualBits(outRe[r], wantR) || !bothNaNOrEqualBits(outIm[r], wantI) {
			t.Fatalf("%v n=%d off=%d rows=%d row %d: got (%v,%v) want (%v,%v)",
				activeTier, n, off, rows, r, outRe[r], outIm[r], wantR, wantI)
		}
	}
	if outRe[rows] != canary || outIm[rows] != canary {
		t.Fatalf("%v n=%d off=%d rows=%d: wrote past the run", activeTier, n, off, rows)
	}
}

// transpose returns the cell-major copy of an m-row, n-column row-major
// block, as NewPlan stores ftRe/ftIm: element i of row j at i·m+j.
func transpose(fh []float64, n, m int) []float64 {
	ft := make([]float64, n*m)
	for j := 0; j < m; j++ {
		for i := 0; i < n; i++ {
			ft[i*m+j] = fh[j*n+i]
		}
	}
	return ft
}

// screenFixture draws a screen over m cells for checkAdjCells: y and p
// mostly +0, some with a −0 or a non-zero component; keys below, at and
// above thr, NaN and ±Inf; thr finite, NaN or −Inf.
func screenFixture(rng *rand.Rand, m int) *screen {
	scr := &screen{
		yRe: make([]float64, m), yIm: make([]float64, m),
		pRe: make([]float64, m), pIm: make([]float64, m),
		key: make([]float64, m),
		thr: rng.NormFloat64(), c: rng.NormFloat64(),
	}
	switch rng.Intn(8) {
	case 0:
		scr.thr = math.NaN()
	case 1:
		scr.thr = math.Inf(-1)
	}
	vecs := [][]float64{scr.yRe, scr.yIm, scr.pRe, scr.pIm}
	for j := 0; j < m; j++ {
		switch rng.Intn(10) {
		case 0:
			vecs[rng.Intn(4)][j] = math.Copysign(0, -1)
		case 1, 2:
			vecs[rng.Intn(4)][j] = rng.NormFloat64()
		}
		switch rng.Intn(10) {
		case 0:
			scr.key[j] = scr.thr
		case 1:
			scr.key[j] = math.NaN()
		case 2:
			scr.key[j] = math.Inf(1 - 2*rng.Intn(2))
		case 3:
			scr.key[j] = scr.thr + math.Abs(rng.NormFloat64())
		default:
			scr.key[j] = scr.thr - math.Abs(rng.NormFloat64())
		}
	}
	return scr
}

// cellRange returns the set of cells [lo, hi): one run.
func cellRange(lo, hi int) []int {
	set := make([]int, 0, max(hi-lo, 0))
	for j := lo; j < hi; j++ {
		set = append(set, j)
	}
	return set
}

// randomSet draws an ascending set of distinct cells of [lo, hi) for the
// quad-list checks: runs of 1–9 cells, so partial quads of every lane
// count, separated by gaps of 1–3 cells.
func randomSet(rng *rand.Rand, lo, hi int) []int {
	var set []int
	for j := lo + rng.Intn(3); j < hi; j += 1 + rng.Intn(3) {
		for end := min(j+1+rng.Intn(9), hi); j < end; j++ {
			set = append(set, j)
		}
	}
	return set
}

// TestSetQuads pins the quad lists every pass walks: each maximal run of
// a set taken four cells at a time from its first cell, the last quad of
// a run holding the rest, in ascending order, within the ⌈m/2⌉ entries a
// workspace holds.
func TestSetQuads(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for trial := 0; trial < 500; trial++ {
		m := 1 + rng.Intn(80)
		set := randomSet(rng, 0, m)
		if trial%5 == 0 {
			set = cellRange(0, m)
		}
		quads := setQuads(nil, set)
		var cells []int
		for i, q := range quads {
			lo, hi := quadSpan(q)
			if hi-lo < 1 || hi-lo > 4 || q != packQuad(lo, hi-lo) {
				t.Fatalf("set %v: quad %d spans [%d,%d)", set, i, lo, hi)
			}
			// A quad starts a run, or four cells after the quad before it
			// in the same run; a quad of fewer than four cells ends its run.
			if k := len(cells); k > 0 && cells[k-1] == lo-1 {
				if plo, phi := quadSpan(quads[i-1]); phi != lo || phi-plo != 4 {
					t.Fatalf("set %v: quad %d [%d,%d) splits a run after [%d,%d)", set, i, lo, hi, plo, phi)
				}
			}
			cells = append(cells, cellRange(lo, hi)...)
		}
		if !slices.Equal(cells, set) {
			t.Fatalf("set %v: quads %v cover %v", set, quads, cells)
		}
		if len(quads) > (m+1)/2 {
			t.Fatalf("set %v: %d quads on a %d-cell grid", set, len(quads), m)
		}
	}
}

// checkAdjQuads runs adjQuads over the quad list of set, cells of an
// m-cell dictionary given row-major (fh) and cell-major (ft), and
// requires every cell of the set to match cdot on its row bit for bit
// (NaN matching NaN), every quad to be listed live, and every other cell
// of g, canaries past the grid included, to stay untouched. Then it runs
// adjQuads again under a screen and requires each quad to follow
// quadScreened's verdict on it: a screened quad is counted as skipped and
// leaves its cells' g and keys untouched; a computed one is listed live,
// in list order, with its cells matching cdot and their keys |g| − c. The
// live buffer's slots past the live list must stay untouched too.
func checkAdjQuads(t *testing.T, rng *rand.Rand, fhRe, fhIm, ftRe, ftIm, xRe, xIm []float64, n, m int, set []int) {
	t.Helper()
	const pad, canary, idxCanary = 4, -7.25, -9
	quads := setQuads(nil, set)
	dot := func(j int) (float64, float64) {
		return cdot(fhRe[j*n:(j+1)*n], fhIm[j*n:(j+1)*n], xRe, xIm)
	}
	canaries := func() (re, im []float64) {
		re, im = make([]float64, m+pad), make([]float64, m+pad)
		for j := range re {
			re[j], im[j] = canary, canary
		}
		return re, im
	}
	run := func(scr *screen, wantLive []int, wantSkip int, wantRe, wantIm []float64) {
		t.Helper()
		buf := make([]int, len(quads)+pad)
		for i := range buf {
			buf[i] = idxCanary
		}
		gRe, gIm := canaries()
		live, skipped := adjQuads(fhRe, fhIm, ftRe, ftIm, n, m, quads, xRe, xIm, gRe, gIm, scr, buf[:0])
		if skipped != wantSkip || !slices.Equal(live, wantLive) {
			t.Fatalf("%v n=%d set %v screen=%v: live %v, %d cells skipped; want live %v, %d skipped",
				activeTier, n, set, scr != nil, live, skipped, wantLive, wantSkip)
		}
		for _, k := range buf[len(live):] {
			if k != idxCanary {
				t.Fatalf("%v n=%d set %v: wrote past the live list: %v", activeTier, n, set, buf)
			}
		}
		for j := range wantRe {
			if !bothNaNOrEqualBits(gRe[j], wantRe[j]) || !bothNaNOrEqualBits(gIm[j], wantIm[j]) {
				t.Fatalf("%v n=%d set %v screen=%v: g[%d] = (%v,%v), want (%v,%v)",
					activeTier, n, set, scr != nil, j, gRe[j], gIm[j], wantRe[j], wantIm[j])
			}
		}
	}

	wantRe, wantIm := canaries()
	for _, j := range set {
		wantRe[j], wantIm[j] = dot(j)
	}
	run(nil, quads, 0, wantRe, wantIm)

	scr := screenFixture(rng, m)
	wantKey := append([]float64(nil), scr.key...)
	wantRe, wantIm = canaries()
	var wantLive []int
	wantSkip := 0
	for _, q := range quads {
		lo, hi := quadSpan(q)
		if quadScreened(scr.yRe[lo:hi], scr.yIm[lo:hi], scr.pRe[lo:hi], scr.pIm[lo:hi], scr.key[lo:hi], scr.thr) {
			wantSkip += hi - lo
			continue
		}
		wantLive = append(wantLive, q)
		for j := lo; j < hi; j++ {
			gr, gi := dot(j)
			wantRe[j], wantIm[j] = gr, gi
			wantKey[j] = math.Sqrt(float64(gr*gr)+float64(gi*gi)) - scr.c
		}
	}
	run(scr, wantLive, wantSkip, wantRe, wantIm)
	for j := range wantKey {
		if !bothNaNOrEqualBits(scr.key[j], wantKey[j]) {
			t.Fatalf("%v n=%d set %v thr=%v: key of cell %d = %v, want %v", activeTier, n, set, scr.thr, j, scr.key[j], wantKey[j])
		}
	}
}

// TestAdjDotMatchesCdot checks the tier-dispatched adjoint against the
// scalar contract reference on every available tier. adjRows (the
// scalar tier's row loop): every row length from 0 to 67 (odd tails,
// partial lane groups), run lengths 1–9 at several row offsets. adjQuads
// (the AVX2 tier's cell-major kernel, adjQuadsScalar on the scalar tier):
// every n from 1 to 35 over a 13-cell grid, every single run [lo, hi) —
// every run offset and every partial quad of 1, 2 and 3 lanes — and
// random sets of several runs with gaps between them, plain and under a
// screen. The data mixes zeros, denormals, ±1e300 and NaNs. Every cell
// must produce bit-identical sums — the property the polish and
// alias-refit paths rely on when the tier changes between runs.
func TestAdjDotMatchesCdot(t *testing.T) {
	for _, tier := range kernelTiers() {
		t.Run(tier.String(), func(t *testing.T) {
			forceTier(t, tier)
			rng := rand.New(rand.NewSource(41))
			const maxRows = 3 + 9 // largest offset plus longest run
			for n := 0; n <= 67; n++ {
				for trial := 0; trial < 4; trial++ {
					allowNaN := trial == 3
					fhRe := kernelVec(rng, maxRows*n, allowNaN)
					fhIm := kernelVec(rng, maxRows*n, allowNaN)
					xRe := kernelVec(rng, n, allowNaN)
					xIm := kernelVec(rng, n, allowNaN)
					for rows := 1; rows <= 9; rows++ {
						for _, off := range []int{0, 1, 3} {
							checkAdjRows(t, fhRe, fhIm, xRe, xIm, n, off, rows)
						}
					}
				}
			}
			const m = 13
			for n := 1; n <= 35; n++ {
				for trial := 0; trial < 2; trial++ {
					allowNaN := trial == 1
					fhRe := kernelVec(rng, m*n, allowNaN)
					fhIm := kernelVec(rng, m*n, allowNaN)
					ftRe, ftIm := transpose(fhRe, n, m), transpose(fhIm, n, m)
					xRe := kernelVec(rng, n, allowNaN)
					xIm := kernelVec(rng, n, allowNaN)
					for lo := 0; lo < m; lo++ {
						for hi := lo + 1; hi <= m; hi++ {
							checkAdjQuads(t, rng, fhRe, fhIm, ftRe, ftIm, xRe, xIm, n, m, cellRange(lo, hi))
						}
					}
					for k := 0; k < 24; k++ {
						checkAdjQuads(t, rng, fhRe, fhIm, ftRe, ftIm, xRe, xIm, n, m, randomSet(rng, 0, m))
					}
				}
			}
		})
	}
}

// FuzzAdjDotEquivalence is the fuzzer-driven variant of the table test
// above: arbitrary row lengths, run lengths and offsets over the mixed
// value set (infinities and NaNs included) must match the scalar
// contract row by row on every available tier, through adjRows and
// through adjQuads over one run or a random set of runs, plain and
// screened.
func FuzzAdjDotEquivalence(f *testing.F) {
	f.Add(int64(1), 7, 1)
	f.Add(int64(99), 16, 5)
	f.Add(int64(5), 65, 9)
	f.Fuzz(func(t *testing.T, seed int64, n, rows int) {
		if n < 0 || n > 512 || rows < 1 || rows > 64 {
			t.Skip()
		}
		rng := rand.New(rand.NewSource(seed))
		off := rng.Intn(4)
		m := off + rows
		fhRe := kernelVec(rng, m*n, true)
		fhIm := kernelVec(rng, m*n, true)
		ftRe, ftIm := transpose(fhRe, n, m), transpose(fhIm, n, m)
		xRe := kernelVec(rng, n, true)
		xIm := kernelVec(rng, n, true)
		set := cellRange(off, m)
		if rng.Intn(2) == 0 {
			set = randomSet(rng, 0, m)
		}
		for _, tier := range kernelTiers() {
			prev := setKernelTier(tier)
			checkAdjRows(t, fhRe, fhIm, xRe, xIm, n, off, rows)
			if n > 0 {
				checkAdjQuads(t, rng, fhRe, fhIm, ftRe, ftIm, xRe, xIm, n, m, set)
			}
			setKernelTier(prev)
		}
	})
}

// TestAxpyColMatchesScalar checks the tier-dispatched forward product
// against the scalar forwardResid body applied column by column:
// ascending lists of 0–40 columns, every row length from 0 to 67
// (tails and lengths below one vector included). The operation is
// elementwise, so every element must be bit-identical on every
// available tier, and the canaries past element n of the residual must
// stay untouched (the AVX2 tail is a masked store).
func TestAxpyColMatchesScalar(t *testing.T) {
	const canary = -7.25
	refAxpyCol := func(rowRe, rowIm []float64, cr, ci float64, dstRe, dstIm []float64) {
		for i, ar := range rowRe {
			ai := -rowIm[i]
			dstRe[i] += float64(ar*cr) - float64(ai*ci)
			dstIm[i] += float64(ar*ci) + float64(ai*cr)
		}
	}
	const m = 48 // dictionary rows to pick columns from
	for _, tier := range kernelTiers() {
		t.Run(tier.String(), func(t *testing.T) {
			forceTier(t, tier)
			rng := rand.New(rand.NewSource(43))
			for n := 0; n <= 67; n++ {
				fhRe := kernelVec(rng, m*n, false)
				fhIm := kernelVec(rng, m*n, false)
				srcRe := kernelVec(rng, m, false)
				srcIm := kernelVec(rng, m, false)
				for ncols := 0; ncols <= 40; ncols++ {
					cols := rng.Perm(m)[:ncols]
					sort.Ints(cols)
					dstRe := append(kernelVec(rng, n, false), canary, canary, canary, canary)
					dstIm := append(kernelVec(rng, n, false), canary, canary, canary, canary)
					wantRe := append([]float64(nil), dstRe...)
					wantIm := append([]float64(nil), dstIm...)
					for _, j := range cols {
						refAxpyCol(fhRe[j*n:(j+1)*n], fhIm[j*n:(j+1)*n], srcRe[j], srcIm[j], wantRe[:n], wantIm[:n])
					}
					axpyCols(fhRe, fhIm, n, cols, srcRe, srcIm, dstRe, dstIm)
					for i := range dstRe {
						if math.Float64bits(dstRe[i]) != math.Float64bits(wantRe[i]) ||
							math.Float64bits(dstIm[i]) != math.Float64bits(wantIm[i]) {
							t.Fatalf("n=%d cols=%v i=%d: got (%v,%v) want (%v,%v)",
								n, cols, i, dstRe[i], dstIm[i], wantRe[i], wantIm[i])
						}
					}
				}
			}
		})
	}
}

// spreadVec fills a test vector with finite values spread over 2^±20,
// a tenth of them exact zeros: ‖Δp‖² and ⟨y − p, Δp⟩ stay finite over a
// whole run, so a change in their order of addition shows in the
// rounding (kernelVec's ±1e300 and NaN cells make both sums non-finite).
func spreadVec(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		if rng.Intn(10) != 0 {
			v[i] = math.Ldexp(rng.NormFloat64(), rng.Intn(41)-20)
		}
	}
	return v
}

// negZeros returns n cells of −0. Shrunk from sums of (−0, −0), every
// cell adds a −0 restart term, so the restart sum stays −0 until a term
// that is not −0 arrives: a masked lane's term, +0, shows.
func negZeros(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = math.Copysign(0, -1)
	}
	return v
}

// runPass is one shrink-and-momentum check's draw: the cell values, the
// (γ, thr, β) of runPassParams, and whether the cells are negZeros'.
type runPass struct {
	vec              func(int) []float64
	gamma, thr, beta float64
	negZero          bool
}

// checkRunPasses runs shrinkQuads and momentumQuads on the active tier
// over a live list drawn from the quad list of set (every quad, or some
// left out), on a grid of size cells with values from p.vec, and
// requires every output to match the scalar bodies applied one cell at a
// time in list order, bit for bit (NaN matching NaN): p, the stored step,
// y, both sums and the active list. Unless the cells are negZeros', a
// fifth of the live cells sit exactly on the threshold (gradient 0,
// y = (±3, ±4)·thr/5, so |y| = thr for thr 0 and 5) and a fifth
// extrapolate to a signed-zero y (p = Δp = ±0, inactive). Every cell
// outside the live quads — the gaps between runs, the quads left out of
// the list and the cells past the grid — holds a canary that must stay
// untouched, and so must the active list's slots past the three spare
// ones.
func checkRunPasses(t *testing.T, rng *rand.Rand, p runPass, size int, set []int) {
	t.Helper()
	const pad, canary, idxCanary = 5, -7.25, -9
	live := setQuads(nil, set)
	if rng.Intn(2) == 0 {
		live = slices.DeleteFunc(live, func(int) bool { return rng.Intn(4) == 0 })
	}
	var cells []int
	for _, q := range live {
		cells = append(cells, cellRange(quadSpan(q))...)
	}
	var a [6][]float64 // yRe, yIm, pRe, pIm, gRe, gIm
	for i := range a {
		a[i] = p.vec(size + pad)
		for c := range a[i] {
			if _, in := slices.BinarySearch(cells, c); !in {
				a[i][c] = canary
			}
		}
	}
	sign := func() float64 { return float64(1 - 2*rng.Intn(2)) }
	thr := p.thr
	if !p.negZero {
		for _, c := range cells {
			switch rng.Intn(5) {
			case 0:
				a[0][c], a[1][c] = 3*thr/5*sign(), 4*thr/5*sign()
				a[4][c], a[5][c] = 0*sign(), 0*sign()
			case 1:
				a[2][c], a[3][c] = 0*sign(), 0*sign()
				a[4][c], a[5][c] = 0*sign(), 0*sign()
			}
		}
	}
	clone := func() (out [6][]float64) {
		for i := range a {
			out[i] = append([]float64(nil), a[i]...)
		}
		return out
	}
	fail := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("%v set %v live %v γ=%v thr=%v β=%v: %s", activeTier, set, live, p.gamma, thr, p.beta, fmt.Sprintf(format, args...))
	}
	same := func(what string, got, want [6][]float64) {
		t.Helper()
		for i := range got {
			for c := range got[i] {
				if !bothNaNOrEqualBits(got[i][c], want[i][c]) {
					fail("%s: array %d cell %d = %v, want %v", what, i, c, got[i][c], want[i][c])
				}
			}
		}
	}

	w, g := clone(), clone()
	d0, g0 := rng.NormFloat64(), rng.NormFloat64()
	if p.negZero {
		d0, g0 = math.Copysign(0, -1), math.Copysign(0, -1)
	}
	wantD, wantG := d0, g0
	for _, c := range cells {
		wantD, wantG = shrinkQuadsScalar(p.gamma, thr, []int{packQuad(c, 1)}, w[0], w[1], w[2], w[3], w[4], w[5], wantD, wantG)
	}
	gotD, gotG := shrinkQuads(p.gamma, thr, live, g[0], g[1], g[2], g[3], g[4], g[5], d0, g0)
	if !bothNaNOrEqualBits(gotD, wantD) || !bothNaNOrEqualBits(gotG, wantG) {
		fail("shrink sums (%v, %v), want (%v, %v)", gotD, gotG, wantD, wantG)
	}
	same("shrink", g, w)

	w, g = clone(), clone()
	actList := func() []int {
		end := 0
		if len(live) > 0 {
			_, end = quadSpan(live[len(live)-1])
		}
		l := make([]int, 2+end+3+pad)
		for i := range l {
			l[i] = idxCanary
		}
		l[0], l[1] = 1<<20, 1<<21 // cells an earlier pass appended
		return l
	}
	wantL, gotL := actList(), actList()
	wantAct := wantL[:2]
	for _, c := range cells {
		wantAct = momentumQuadsScalar(p.beta, []int{packQuad(c, 1)}, w[2], w[3], w[4], w[5], w[0], w[1], wantAct)
	}
	gotAct := momentumQuads(p.beta, live, g[2], g[3], g[4], g[5], g[0], g[1], gotL[:2])
	same("momentum", g, w)
	if !slices.Equal(gotAct, wantAct) {
		fail("active %v, want %v", gotAct, wantAct)
	}
	for _, k := range gotL[2+len(cells)+3:] {
		if k != idxCanary {
			fail("momentum wrote past the active list's spare slots: %v", gotL)
		}
	}
}

// runPassParams are the (γ, thr, β) of a run-pass check: thresholds of
// 0 and 5, which checkRunPasses puts cells exactly on, β = 0, and a
// random draw.
func runPassParams(rng *rand.Rand) [][3]float64 {
	return [][3]float64{{0.37, 0, 0}, {1, 5, 0.61}, {rng.Float64(), 2 * rng.Float64(), rng.Float64()}}
}

// TestRunPassesMatchScalar checks the tier-dispatched shrink and
// momentum passes against their scalar bodies cell by cell on every
// available tier, the scalar one included: over grids of up to 70 cells,
// one run at offsets 0, 1 and 3 of every length from 0 to 67, and random
// sets of several runs with live lists that leave quads out, over
// kernelVec's zeros, denormals, ±1e300 and NaNs, spreadVec's finite
// values, whose sums expose any reordering, and negZeros, whose restart
// sum exposes an added masked lane.
func TestRunPassesMatchScalar(t *testing.T) {
	for _, tier := range kernelTiers() {
		t.Run(tier.String(), func(t *testing.T) {
			forceTier(t, tier)
			rng := rand.New(rand.NewSource(47))
			vecs := []func(int) []float64{
				func(k int) []float64 { return kernelVec(rng, k, true) },
				func(k int) []float64 { return kernelVec(rng, k, false) },
				func(k int) []float64 { return spreadVec(rng, k) },
				negZeros,
			}
			for n := 0; n <= 67; n++ {
				for _, off := range []int{0, 1, 3} {
					for _, set := range [][]int{cellRange(off, off+n), randomSet(rng, off, off+n)} {
						for i, vec := range vecs {
							for _, prm := range runPassParams(rng) {
								p := runPass{vec: vec, gamma: prm[0], thr: prm[1], beta: prm[2], negZero: i == 3}
								checkRunPasses(t, rng, p, off+n, set)
							}
						}
					}
				}
			}
		})
	}
}

// FuzzShrinkEquivalence is the fuzzer-driven variant of the run-pass
// table test: arbitrary seeds, spans (0–67 cells) and offsets, one run or
// a random set of runs, over kernelVec data or negZeros, must match the
// scalar shrink and momentum bodies cell by cell on every available
// tier.
func FuzzShrinkEquivalence(f *testing.F) {
	f.Add(int64(1), 7, 1)
	f.Add(int64(99), 16, 0)
	f.Add(int64(5), 67, 3)
	f.Fuzz(func(t *testing.T, seed int64, n, off int) {
		if n < 0 || n > 67 || off < 0 || off > 3 {
			t.Skip()
		}
		rng := rand.New(rand.NewSource(seed))
		prm := runPassParams(rng)[rng.Intn(3)]
		p := runPass{vec: func(k int) []float64 { return kernelVec(rng, k, true) }, gamma: prm[0], thr: prm[1], beta: prm[2]}
		if rng.Intn(4) == 0 {
			p.vec, p.negZero = negZeros, true
		}
		set := cellRange(off, off+n)
		if rng.Intn(2) == 0 {
			set = randomSet(rng, off, off+n)
		}
		for _, tier := range kernelTiers() {
			prev := setKernelTier(tier)
			checkRunPasses(t, rng, p, off+n, set)
			setKernelTier(prev)
		}
	})
}

// TestSolveTierEquivalence solves every fixture request on the vector
// tier and scalar-forced, and requires
// byte-identical results: the tier changes throughput, never answers.
func TestSolveTierEquivalence(t *testing.T) {
	pl, reqs := solveFixture(t)
	solveOn := func(tier kernelTier) []*Result {
		prev := setKernelTier(tier)
		defer setKernelTier(prev)
		out := make([]*Result, len(reqs))
		for i := range reqs {
			res, err := pl.Solve(cloneReq(reqs[i]))
			if err != nil {
				t.Fatalf("tier %v: %v", tier, err)
			}
			out[i] = res
		}
		return out
	}
	want := solveOn(tierScalar)
	for _, tier := range vectorTiers() {
		got := solveOn(tier)
		for i := range want {
			sameResult(t, tier.String(), want[i], got[i])
		}
	}
}

// TestSetKernelTierClamp pins the in-process tier switch: a request
// for AVX2 activates it only where detectTier found it, so on a host or
// build without it (the ndft_noasm tag) the scalar tier stays active; a
// scalar request always takes effect; each call returns the tier it
// replaced, which restores exactly; and the obs label follows the
// active tier.
func TestSetKernelTierClamp(t *testing.T) {
	orig := activeTier
	t.Cleanup(func() { setKernelTier(orig) })
	active := func(want kernelTier) {
		t.Helper()
		if activeTier != want || VectorKernel() != want.String() {
			t.Fatalf("active tier %v (VectorKernel %q), want %v", activeTier, VectorKernel(), want)
		}
		if got := obs.Capture().Labels[kernelLabel]; got != want.String() {
			t.Fatalf("label %s = %q, want %q", kernelLabel, got, want)
		}
	}
	if prev := setKernelTier(tierScalar); prev != orig {
		t.Fatalf("scalar request returned %v, want %v", prev, orig)
	}
	active(tierScalar)
	if prev := setKernelTier(tierAVX2); prev != tierScalar {
		t.Fatalf("AVX2 request returned %v, want scalar", prev)
	}
	active(detectTier())
	setKernelTier(orig)
	active(orig)
}
