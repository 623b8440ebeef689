package ndft

import (
	"math"
	"math/rand"
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

// TestAdjDotMatchesCdot fuzzes the tier-dispatched adjoint dot against
// the scalar contract reference on every available vector tier: every
// length (odd tails, partial lane groups, below the vector cutover)
// must produce bit-identical sums — the property the warm-solve and
// alias-refit paths rely on when the tier changes between runs.
func TestAdjDotMatchesCdot(t *testing.T) {
	tiers := vectorTiers()
	if len(tiers) == 0 {
		t.Skip("no vector tier on this machine")
	}
	for _, tier := range tiers {
		t.Run(tier.String(), func(t *testing.T) {
			forceTier(t, tier)
			rng := rand.New(rand.NewSource(41))
			for n := 0; n <= 67; n++ {
				for trial := 0; trial < 20; trial++ {
					allowNaN := trial%5 == 4
					aRe := kernelVec(rng, n, allowNaN)
					aIm := kernelVec(rng, n, allowNaN)
					xRe := kernelVec(rng, n, allowNaN)
					xIm := kernelVec(rng, n, allowNaN)
					wantR, wantI := cdot(aRe, aIm, xRe, xIm)
					gotR, gotI := adjDot(aRe, aIm, xRe, xIm)
					if !bothNaNOrEqualBits(gotR, wantR) || !bothNaNOrEqualBits(gotI, wantI) {
						t.Fatalf("n=%d: got (%v,%v) want (%v,%v)", n, gotR, gotI, wantR, wantI)
					}
				}
			}
		})
	}
}

// FuzzAdjDotEquivalence is the fuzzer-driven variant of the table test
// above: arbitrary float bit patterns (including infinities and NaNs)
// through every available tier must match the scalar contract.
func FuzzAdjDotEquivalence(f *testing.F) {
	f.Add(int64(1), 7)
	f.Add(int64(99), 16)
	f.Add(int64(5), 65)
	f.Fuzz(func(t *testing.T, seed int64, n int) {
		if n < 0 || n > 512 {
			t.Skip()
		}
		rng := rand.New(rand.NewSource(seed))
		aRe := kernelVec(rng, n, true)
		aIm := kernelVec(rng, n, true)
		xRe := kernelVec(rng, n, true)
		xIm := kernelVec(rng, n, true)
		wantR, wantI := cdot(aRe, aIm, xRe, xIm)
		for _, tier := range vectorTiers() {
			prev := setKernelTier(tier)
			gotR, gotI := adjDot(aRe, aIm, xRe, xIm)
			setKernelTier(prev)
			if !bothNaNOrEqualBits(gotR, wantR) || !bothNaNOrEqualBits(gotI, wantI) {
				t.Fatalf("tier=%v n=%d: got (%v,%v) want (%v,%v)", tier, n, gotR, gotI, wantR, wantI)
			}
		}
	})
}

// TestAxpyColMatchesScalar fuzzes the tier-dispatched column
// accumulation against the scalar forwardResid body: elementwise, so
// every element must be bit-identical on every available tier,
// including odd tails and lengths below the vector cutover.
func TestAxpyColMatchesScalar(t *testing.T) {
	tiers := vectorTiers()
	if len(tiers) == 0 {
		t.Skip("no vector tier on this machine")
	}
	refAxpyCol := func(rowRe, rowIm []float64, cr, ci float64, dstRe, dstIm []float64) {
		for i, ar := range rowRe {
			ai := -rowIm[i]
			dstRe[i] += ar*cr - ai*ci
			dstIm[i] += ar*ci + ai*cr
		}
	}
	for _, tier := range tiers {
		t.Run(tier.String(), func(t *testing.T) {
			forceTier(t, tier)
			rng := rand.New(rand.NewSource(43))
			for n := 0; n <= 67; n++ {
				for trial := 0; trial < 10; trial++ {
					rowRe := kernelVec(rng, n, false)
					rowIm := kernelVec(rng, n, false)
					cr, ci := rng.NormFloat64(), rng.NormFloat64()
					dstRe := kernelVec(rng, n, false)
					dstIm := kernelVec(rng, n, false)
					wantRe := append([]float64(nil), dstRe...)
					wantIm := append([]float64(nil), dstIm...)
					refAxpyCol(rowRe, rowIm, cr, ci, wantRe, wantIm)
					axpyCol(rowRe, rowIm, cr, ci, dstRe, dstIm)
					for i := 0; i < n; i++ {
						if math.Float64bits(dstRe[i]) != math.Float64bits(wantRe[i]) ||
							math.Float64bits(dstIm[i]) != math.Float64bits(wantIm[i]) {
							t.Fatalf("n=%d i=%d: got (%v,%v) want (%v,%v)", n, i, dstRe[i], dstIm[i], wantRe[i], wantIm[i])
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
