package ndft

import (
	"math"
	"sort"
	"testing"
	"time"

	"chronos/internal/obs"
)

// obsRecords reads every counter value and every histogram count of the
// process-wide obs registry.
func obsRecords() map[string]int64 {
	snap := obs.Capture()
	out := make(map[string]int64, len(snap.Counters)+len(snap.Hists))
	for k, v := range snap.Counters {
		out["counter "+k] = v
	}
	for k, h := range snap.Hists {
		out["hist "+k] = h.Count
	}
	return out
}

// checkObsRecordsOncePerSolve is the deterministic half of the obs
// overhead contract: a solve books its metrics once, in record, and
// never per iteration. Two cold solves of one measurement that differ
// only in their iteration budget (20 and 400 steps, both capped, no gap
// check) must move every counter and histogram count by the same amount,
// except the two per-solve sums record books in one call:
// ndft.solve.iterations, which must grow by exactly each solve's
// Iterations, and ndft.solve.screened_cells.
func checkObsRecordsOncePerSolve(tb testing.TB, pl *Plan, h []complex128) {
	tb.Helper()
	obs.SetEnabled(true)
	defer obs.SetEnabled(false)
	delta := func(iters int) (map[string]int64, int) {
		before := obsRecords()
		res, err := pl.Solve(SolveRequest{H: h, InvertOptions: InvertOptions{
			MaxIter: iters, Epsilon: -1,
		}})
		if err != nil {
			tb.Fatal(err)
		}
		d := obsRecords()
		for k := range d {
			d[k] -= before[k]
		}
		return d, res.Iterations
	}
	short, shortIters := delta(20)
	long, longIters := delta(400)
	if shortIters != 20 || longIters != 400 {
		tb.Fatalf("fixture solves ran %d and %d iterations, want 20 and 400", shortIters, longIters)
	}
	for k, v := range long {
		switch k {
		case "counter ndft.solve.iterations":
			if short[k] != int64(shortIters) || v != int64(longIters) {
				tb.Fatalf("%s moved by %d and %d, want the solves' %d and %d iterations", k, short[k], v, shortIters, longIters)
			}
		case "counter ndft.solve.screened_cells":
		default:
			if v != short[k] {
				tb.Fatalf("%s moved by %d over %d iterations but by %d over %d: obs records inside the iteration loop",
					k, v, longIters, short[k], shortIters)
			}
		}
	}
	if short["counter ndft.solve.requests"] != 1 {
		tb.Fatalf("ndft.solve.requests moved by %d per solve, want 1", short["counter ndft.solve.requests"])
	}
}

// TestObsRecordsOncePerSolve runs the structural overhead check on its
// own, so the tier-1 suite holds it too.
func TestObsRecordsOncePerSolve(t *testing.T) {
	pl, h := fig4Plan(t)
	defer obs.Reset()
	checkObsRecordsOncePerSolve(t, pl, h)
}

// BenchmarkObsOverheadSolve is the committed overhead guard for the
// observability layer, on a gap-stopped solve of a noisy measurement —
// the production solve. It FAILS if the instrumented solve allocates, if a solve's obs recording grows with its iterations
// (checkObsRecordsOncePerSolve, exact), or if the enabled path costs
// more than 2% extra wall time. The timed legs use a fixed internal
// repetition count, so the assertions fire even under the CI
// bench-smoke's -benchtime=1x.
//
// The wall-clock estimate is the median over 600 pairs of solves of each
// pair's enabled/disabled ratio, the order within a pair alternating
// from pair to pair. A neighbour's load burst on a shared runner spans
// many sub-millisecond pairs and slows both solves of each alike, so it
// barely moves their ratios, and the median ignores the minority of
// pairs a burst splits; the minimum of each side over independent legs
// took whichever leg a burst happened to spare.
func BenchmarkObsOverheadSolve(b *testing.B) {
	pl, h := benchPlan(b)
	n, _ := pl.Dims()
	req := SolveRequest{H: h, Dst: &Result{}, InvertOptions: InvertOptions{
		MaxIter: 4000, NoiseFloor: 0.05 * math.Sqrt(2*float64(n)),
	}}
	solve := func() {
		if _, err := pl.Solve(req); err != nil {
			b.Fatal(err)
		}
	}

	obs.Reset()
	defer func() { obs.SetEnabled(false); obs.Reset() }()

	// With obs on, the hot path must stay allocation-free.
	obs.SetEnabled(true)
	if n := testing.AllocsPerRun(10, solve); n != 0 {
		b.Fatalf("instrumented solve allocates %v allocs/op, want 0", n)
	}
	checkObsRecordsOncePerSolve(b, pl, h)

	// Paired solves: each pair times one solve with obs off and one with
	// it on, back to back, the order alternating from pair to pair.
	const pairs = 600
	timeSolve := func(on bool) time.Duration {
		obs.SetEnabled(on)
		start := time.Now()
		solve()
		return time.Since(start)
	}
	// Run both paths once before timing.
	timeSolve(false)
	timeSolve(true)

	ratios := make([]float64, pairs)
	for i := range ratios {
		var off, on time.Duration
		if i%2 == 0 {
			off = timeSolve(false)
			on = timeSolve(true)
		} else {
			on = timeSolve(true)
			off = timeSolve(false)
		}
		ratios[i] = float64(on) / float64(off)
	}
	sort.Float64s(ratios)
	ratio := (ratios[pairs/2-1] + ratios[pairs/2]) / 2
	if ratio > 1.02 {
		b.Fatalf("obs overhead %.2f%% exceeds the 2%% budget (median of %d paired solve ratios; quartiles %.4f–%.4f)",
			(ratio-1)*100, pairs, ratios[pairs/4], ratios[3*pairs/4])
	}

	// Keep the benchmark honest as a benchmark too: report the
	// instrumented per-op cost for the b.N protocol.
	obs.SetEnabled(true)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		solve()
	}
	// After ResetTimer, which drops metrics reported before it.
	b.ReportMetric(ratio, "enabled/disabled")
}
