package ndft

import (
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

// checkAdjCells runs adjCells over the cells [lo, hi) of an m-cell
// dictionary, given row-major (fh) and cell-major (ft), and requires
// every cell's output to match cdot on its row bit for bit (NaN matching
// NaN) and the output slot past the run to stay untouched. Then it runs
// adjCells again under a screen and requires the skipped count, every
// output and every key of the grid to match adjRowsScreened, the
// screen's Go body.
func checkAdjCells(t *testing.T, rng *rand.Rand, fhRe, fhIm, ftRe, ftIm, xRe, xIm []float64, n, m, lo, hi int) {
	t.Helper()
	const canary = -7.25
	cells := hi - lo
	outRe := make([]float64, cells+1)
	outIm := make([]float64, cells+1)
	outRe[cells], outIm[cells] = canary, canary
	if skipped := adjCells(fhRe, fhIm, ftRe, ftIm, n, m, lo, hi, xRe, xIm, outRe[:cells], outIm[:cells], nil); skipped != 0 {
		t.Fatalf("%v n=%d run [%d,%d): %d cells skipped without a screen", activeTier, n, lo, hi, skipped)
	}
	for r := 0; r < cells; r++ {
		row := (lo + r) * n
		wantR, wantI := cdot(fhRe[row:row+n], fhIm[row:row+n], xRe, xIm)
		if !bothNaNOrEqualBits(outRe[r], wantR) || !bothNaNOrEqualBits(outIm[r], wantI) {
			t.Fatalf("%v n=%d run [%d,%d) cell %d: got (%v,%v) want (%v,%v)",
				activeTier, n, lo, hi, lo+r, outRe[r], outIm[r], wantR, wantI)
		}
	}
	if outRe[cells] != canary || outIm[cells] != canary {
		t.Fatalf("%v n=%d run [%d,%d): wrote past the run", activeTier, n, lo, hi)
	}

	scr := screenFixture(rng, m)
	wantKey := append([]float64(nil), scr.key...)
	wantRe := append([]float64(nil), outRe...)
	wantIm := append([]float64(nil), outIm...)
	wantSkip := adjRowsScreened(fhRe[lo*n:hi*n], fhIm[lo*n:hi*n], n, xRe, xIm, wantRe[:cells], wantIm[:cells],
		scr.yRe[lo:hi], scr.yIm[lo:hi], scr.pRe[lo:hi], scr.pIm[lo:hi], wantKey[lo:hi], scr.thr, scr.c)
	gotSkip := adjCells(fhRe, fhIm, ftRe, ftIm, n, m, lo, hi, xRe, xIm, outRe[:cells], outIm[:cells], scr)
	if gotSkip != wantSkip {
		t.Fatalf("%v n=%d run [%d,%d) thr=%v: skipped %d cells, want %d", activeTier, n, lo, hi, scr.thr, gotSkip, wantSkip)
	}
	for r := range outRe {
		if !bothNaNOrEqualBits(outRe[r], wantRe[r]) || !bothNaNOrEqualBits(outIm[r], wantIm[r]) {
			t.Fatalf("%v n=%d run [%d,%d) screened slot %d: got (%v,%v) want (%v,%v)",
				activeTier, n, lo, hi, r, outRe[r], outIm[r], wantRe[r], wantIm[r])
		}
	}
	for j := range wantKey {
		if !bothNaNOrEqualBits(scr.key[j], wantKey[j]) {
			t.Fatalf("%v n=%d run [%d,%d): key of cell %d = %v, want %v", activeTier, n, lo, hi, j, scr.key[j], wantKey[j])
		}
	}
}

// TestAdjDotMatchesCdot checks the tier-dispatched adjoint against the
// scalar contract reference on every available tier. adjRows (the
// scalar tier's row loop): every row length from 0 to 67 (odd tails,
// partial lane groups), run lengths 1–9 at several row offsets. adjCells
// (the AVX2 tier's cell-major kernel, adjRows on the scalar tier): every
// n from 1 to 35 and every run [lo, hi) of a 13-cell grid, so every run
// offset and every run length mod 4, masked tails included, plain and
// under a screen. The data mixes zeros, denormals, ±1e300 and NaNs.
// Every cell must produce bit-identical sums — the property the
// warm-solve and alias-refit paths rely on when the tier changes between
// runs.
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
							checkAdjCells(t, rng, fhRe, fhIm, ftRe, ftIm, xRe, xIm, n, m, lo, hi)
						}
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
// through adjCells, plain and screened.
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
		for _, tier := range kernelTiers() {
			prev := setKernelTier(tier)
			checkAdjRows(t, fhRe, fhIm, xRe, xIm, n, off, rows)
			if n > 0 {
				checkAdjCells(t, rng, fhRe, fhIm, ftRe, ftIm, xRe, xIm, n, m, off, m)
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

// checkRunPasses runs shrinkRun and momentumRun on the active tier over
// one run of n cells at offset off, with values from vec, and requires
// every output to match shrinkRunScalar and momentumRunScalar bit for
// bit (NaN matching NaN): p, the stored step, y, both sums and the
// active list. A fifth of the cells sit exactly on the threshold
// (gradient 0, y = (±3, ±4)·thr/5, so |y| = thr for thr 0 and 5) and a
// fifth extrapolate to a signed-zero y (p = Δp = ±0, inactive). Every
// array, the active list's spare capacity included, carries canaries
// past the run that must stay untouched.
func checkRunPasses(t *testing.T, rng *rand.Rand, vec func(int) []float64, n, off int, gamma, thr, beta float64) {
	t.Helper()
	const pad, canary, idxCanary = 5, -7.25, -9
	size := off + n + pad
	var a [6][]float64 // yRe, yIm, pRe, pIm, gRe, gIm
	for i := range a {
		a[i] = vec(size)
		for c := off + n; c < size; c++ {
			a[i][c] = canary
		}
	}
	sign := func() float64 { return float64(1 - 2*rng.Intn(2)) }
	for c := off; c < off+n; c++ {
		switch rng.Intn(5) {
		case 0:
			a[0][c], a[1][c] = 3*thr/5*sign(), 4*thr/5*sign()
			a[4][c], a[5][c] = 0*sign(), 0*sign()
		case 1:
			a[2][c], a[3][c] = 0*sign(), 0*sign()
			a[4][c], a[5][c] = 0*sign(), 0*sign()
		}
	}
	clone := func() (out [6][]float64) {
		for i := range a {
			out[i] = append([]float64(nil), a[i]...)
		}
		return out
	}
	run := func(v []float64) []float64 { return v[off : off+n] }
	same := func(what string, got, want [6][]float64) {
		t.Helper()
		for i := range got {
			for c := range got[i] {
				if !bothNaNOrEqualBits(got[i][c], want[i][c]) {
					t.Fatalf("%v %s n=%d off=%d γ=%v thr=%v β=%v: array %d cell %d = %v, want %v",
						activeTier, what, n, off, gamma, thr, beta, i, c, got[i][c], want[i][c])
				}
			}
		}
	}

	w, g := clone(), clone()
	d0, g0 := rng.NormFloat64(), rng.NormFloat64()
	wantD, wantG := shrinkRunScalar(gamma, thr, run(w[0]), run(w[1]), run(w[2]), run(w[3]), run(w[4]), run(w[5]), d0, g0)
	gotD, gotG := shrinkRun(gamma, thr, run(g[0]), run(g[1]), run(g[2]), run(g[3]), run(g[4]), run(g[5]), d0, g0)
	if !bothNaNOrEqualBits(gotD, wantD) || !bothNaNOrEqualBits(gotG, wantG) {
		t.Fatalf("%v shrink n=%d off=%d γ=%v thr=%v: sums (%v, %v), want (%v, %v)",
			activeTier, n, off, gamma, thr, gotD, gotG, wantD, wantG)
	}
	same("shrink", g, w)

	w, g = clone(), clone()
	actList := func() []int {
		l := make([]int, 2+n+pad)
		for i := range l {
			l[i] = idxCanary
		}
		l[0], l[1] = 1<<20, 1<<21 // cells an earlier run appended
		return l
	}
	wantL, gotL := actList(), actList()
	wantAct := momentumRunScalar(beta, off, run(w[2]), run(w[3]), run(w[4]), run(w[5]), run(w[0]), run(w[1]), wantL[:2])
	gotAct := momentumRun(beta, off, run(g[2]), run(g[3]), run(g[4]), run(g[5]), run(g[0]), run(g[1]), gotL[:2])
	same("momentum", g, w)
	if !slices.Equal(gotAct, wantAct) {
		t.Fatalf("%v momentum n=%d off=%d β=%v: active %v, want %v", activeTier, n, off, beta, gotAct, wantAct)
	}
	for _, k := range gotL[2+n:] {
		if k != idxCanary {
			t.Fatalf("%v momentum n=%d off=%d: wrote past the run's active slots: %v", activeTier, n, off, gotL)
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
// momentum runs against their scalar bodies on every available tier, the
// scalar one included: every run length from 0 to 67 at several
// offsets, over kernelVec's zeros, denormals, ±1e300 and NaNs, and over
// spreadVec's finite values, whose sums expose any reordering.
func TestRunPassesMatchScalar(t *testing.T) {
	for _, tier := range kernelTiers() {
		t.Run(tier.String(), func(t *testing.T) {
			forceTier(t, tier)
			rng := rand.New(rand.NewSource(47))
			vecs := []func(int) []float64{
				func(k int) []float64 { return kernelVec(rng, k, true) },
				func(k int) []float64 { return kernelVec(rng, k, false) },
				func(k int) []float64 { return spreadVec(rng, k) },
			}
			for n := 0; n <= 67; n++ {
				for _, off := range []int{0, 1, 3} {
					for _, vec := range vecs {
						for _, prm := range runPassParams(rng) {
							checkRunPasses(t, rng, vec, n, off, prm[0], prm[1], prm[2])
						}
					}
				}
			}
		})
	}
}

// FuzzShrinkEquivalence is the fuzzer-driven variant of the run-pass
// table test: arbitrary seeds, run lengths (0–67) and offsets over
// kernelVec data must match the scalar shrink and momentum bodies on
// every available tier.
func FuzzShrinkEquivalence(f *testing.F) {
	f.Add(int64(1), 7, 1)
	f.Add(int64(99), 16, 0)
	f.Add(int64(5), 67, 3)
	f.Fuzz(func(t *testing.T, seed int64, n, off int) {
		if n < 0 || n > 67 || off < 0 || off > 3 {
			t.Skip()
		}
		rng := rand.New(rand.NewSource(seed))
		vec := func(k int) []float64 { return kernelVec(rng, k, true) }
		prm := runPassParams(rng)[rng.Intn(3)]
		for _, tier := range kernelTiers() {
			prev := setKernelTier(tier)
			checkRunPasses(t, rng, vec, n, off, prm[0], prm[1], prm[2])
			setKernelTier(prev)
		}
	})
}

// TestSolveTierEquivalence solves every fixture request, cold and
// warm, on the vector tier and scalar-forced, and requires
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
