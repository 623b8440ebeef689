package ndft

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// vectorTiers lists the vector tier the host CPU can run, so the kernel
// tests cover the compiled-in kernels wherever the hardware supports
// them. Empty on scalar-only builds.
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

// kernelTiers lists the scalar tier and every vector tier the host can
// run: the run-form kernels are checked on each, the scalar one
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

// TestAdjDotMatchesCdot checks the tier-dispatched adjoint over runs of
// rows against the scalar contract reference on every available tier:
// every row length from 0 to 67 (odd tails, partial lane groups), run
// lengths 1–9 at several row offsets, over zeros, denormals, ±1e300 and
// NaNs. Every row must produce bit-identical sums — the property the
// warm-solve and alias-refit paths rely on when the tier changes
// between runs.
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
		})
	}
}

// FuzzAdjDotEquivalence is the fuzzer-driven variant of the table test
// above: arbitrary row lengths, run lengths and offsets over the mixed
// value set (infinities and NaNs included) must match the scalar
// contract row by row on every available tier.
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
		fhRe := kernelVec(rng, (off+rows)*n, true)
		fhIm := kernelVec(rng, (off+rows)*n, true)
		xRe := kernelVec(rng, n, true)
		xIm := kernelVec(rng, n, true)
		for _, tier := range kernelTiers() {
			prev := setKernelTier(tier)
			checkAdjRows(t, fhRe, fhIm, xRe, xIm, n, off, rows)
			setKernelTier(prev)
		}
	})
}

// TestAxpyColMatchesScalar checks the tier-dispatched forward product
// against the scalar forwardResid body applied column by column:
// ascending lists of 0–40 columns, every row length from 0 to 67
// (tails and lengths below one vector included). The operation is
// elementwise, so every element must be bit-identical on every
// available tier.
func TestAxpyColMatchesScalar(t *testing.T) {
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
					dstRe := kernelVec(rng, n, false)
					dstIm := kernelVec(rng, n, false)
					wantRe := append([]float64(nil), dstRe...)
					wantIm := append([]float64(nil), dstIm...)
					for _, j := range cols {
						refAxpyCol(fhRe[j*n:(j+1)*n], fhIm[j*n:(j+1)*n], srcRe[j], srcIm[j], wantRe, wantIm)
					}
					axpyCols(fhRe, fhIm, n, cols, srcRe, srcIm, dstRe, dstIm)
					for i := 0; i < n; i++ {
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

// TestForceKernel pins the public tier-forcing semantics: unknown names
// and unavailable tiers error without changing the active tier,
// downgrades succeed, and the returned previous name restores exactly.
func TestForceKernel(t *testing.T) {
	orig := VectorKernel()
	t.Cleanup(func() {
		if _, err := ForceKernel(orig); err != nil {
			t.Fatalf("restoring %q: %v", orig, err)
		}
	})

	if _, err := ForceKernel("avx1024"); err != errUnknownKernel {
		t.Fatalf("unknown name: err=%v want %v", err, errUnknownKernel)
	}
	if got := VectorKernel(); got != orig {
		t.Fatalf("failed force changed tier: %q -> %q", orig, got)
	}

	// Some vector tier is always unavailable: NEON on amd64, AVX2 on
	// arm64 and scalar-only builds.
	unavailable := "neon"
	if detectTier() == tierNEON || detectTier() == tierScalar {
		unavailable = "avx2"
	}
	if _, err := ForceKernel(unavailable); err != errKernelUnavailable {
		t.Fatalf("unavailable tier %q: err=%v want %v", unavailable, err, errKernelUnavailable)
	}
	if got := VectorKernel(); got != orig {
		t.Fatalf("failed force changed tier: %q -> %q", orig, got)
	}

	prev, err := ForceKernel("scalar")
	if err != nil {
		t.Fatalf("forcing scalar: %v", err)
	}
	if prev != orig {
		t.Fatalf("prev = %q, want %q", prev, orig)
	}
	if VectorKernel() != "scalar" {
		t.Fatalf("scalar force not active: tier=%q", VectorKernel())
	}
}
