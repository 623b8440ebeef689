package ndft

import "chronos/internal/obs"

// Solver observability handles. Everything here counts
// scheduling-independent quantities — requests, iterations, stopping
// outcomes — so campaign counter totals are identical at any worker
// count; only the wall-clock histogram contents vary per host. All
// recording happens once per Solve call, never inside the iteration
// loop, which is how the instrumented hot path stays 0 allocs/op and
// within 1% of the uninstrumented solver
// (BenchmarkObsOverheadSolve asserts both).
var (
	// obsSolveRequests counts solve requests.
	obsSolveRequests = obs.NewCounter("ndft.solve.requests")
	// obsSolveIterations totals solver iterations across both phases
	// (main and polish) of every request.
	obsSolveIterations = obs.NewCounter("ndft.solve.iterations")
	// obsSolveGapStops counts requests whose main iterate ended on the duality-gap certificate rather than the iterate rule
	// or the cap.
	obsSolveGapStops = obs.NewCounter("ndft.solve.gap_stops")
	// obsSolveCapped counts requests that hit their iteration cap
	// without meeting a stopping rule (Result.Converged == false).
	obsSolveCapped = obs.NewCounter("ndft.solve.capped")
	// obsSolveScreenedCells counts the working-set cells whose gradStep
	// adjoint the drift-bound screen skipped (see screen.go), booked once
	// per solve; Result.Work still counts them.
	obsSolveScreenedCells = obs.NewCounter("ndft.solve.screened_cells")
	// obsSolveWallNs is wall time per Solve call, nanoseconds, including
	// whatever its InvertOptions.Yield hook ran.
	obsSolveWallNs = obs.NewHist("ndft.solve.wall_ns")
)

// kernelLabel names the active kernel tier on every snapshot. init
// publishes it, and setKernelTier republishes it when a test or bench
// switches tiers.
const kernelLabel = "ndft.vector_kernel"

func init() { obs.SetLabel(kernelLabel, VectorKernel()) }

// record books one finished solve into the solver metrics; allocates
// nothing.
func (t *solveTask) record(wallStart int64) {
	obsSolveRequests.Inc()
	obsSolveIterations.Add(int64(t.res.Iterations))
	if !t.res.Converged {
		obsSolveCapped.Inc()
	}
	if t.everGap {
		obsSolveGapStops.Inc()
	}
	obsSolveScreenedCells.Add(t.screened)
	obsSolveWallNs.Since(wallStart)
}
