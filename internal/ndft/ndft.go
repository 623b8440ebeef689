// Package ndft implements §6 of the paper: recovering a multipath profile
// from channel measurements taken at non-uniformly spaced Wi-Fi center
// frequencies. The measurements form a Non-uniform Discrete Fourier
// Transform h = F·p of the (sparse) path-delay profile p, with
// F[i][k] = e^{−j2π·fᵢ·τₖ}; inversion is under-determined, so
// Algorithm 1 regularizes with an L1 sparsity prior and solves via
// proximal-gradient iteration (ISTA):
//
//	p_{t+1} = SPARSIFY(p_t − γ·Fᴴ(F·p_t − h̃), γα)
//
// The magnitude of the recovered profile is the multipath profile of
// Fig. 4(b); its first dominant peak is the direct path.
//
// The solver is Plan: a precomputed dictionary (plus adjoint, step size,
// and pooled scratch state) that is built once per band-group signature
// and shared across goroutines. Plan.Solve is its only entry point. It
// runs Algorithm 1 with FISTA momentum and α-continuation, which reach
// the same fixed points in far fewer iterations on the highly coherent
// NDFT dictionary. Every solve starts from a zero profile, and
// steady-state solves allocate nothing.
package ndft

import (
	"errors"

	"chronos/internal/dsp"
)

var (
	errEmptyGrid = errors.New("ndft: empty frequency or delay grid")
	errZeroNorm  = errors.New("ndft: zero spectral norm")
)

// TauGrid builds a uniform delay grid [0, maxTau] with the given step,
// inclusive of both endpoints (within floating-point rounding).
func TauGrid(maxTau, step float64) []float64 {
	if step <= 0 || maxTau <= 0 {
		return nil
	}
	n := int(maxTau/step) + 1
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(i) * step
	}
	return out
}

// InvertOptions tunes Algorithm 1.
type InvertOptions struct {
	// Alpha is the sparsity parameter α: larger values force fewer
	// nonzero profile taps. Default 0.1·‖Fᴴh‖∞ (see code).
	Alpha float64
	// AlphaScale multiplies the auto-scaled α when Alpha is zero
	// (default 1); used by the sparsity ablation.
	AlphaScale float64
	// Epsilon is the convergence threshold ε on ‖p_{t+1} − p_t‖₂, the
	// iterate rule Algorithm 1 stops on. Default 1e−6·‖h‖₂.
	Epsilon float64
	// NoiseFloor is the caller's estimate of ‖w‖₂, the L2 norm of the
	// measurement's noise component, in the same units as
	// Result.Residual. The tof layer measures it per sweep from the
	// spread of repeated CSI pairs on each band, and passes zero for a
	// sweep without repeated pairs. When positive, Solve
	// also stops once a LASSO duality-gap bound falls below a tolerance
	// scaled to it (gapScale): useful precision is bounded by the
	// measurement noise, so iterating past the point where the objective
	// is within a fraction of the noise energy of its optimum only fits
	// noise. When zero the iterate rule decides alone, which is exactly
	// right for noiseless synthetic data, where iterating to the fixed
	// tolerance is cheap and maximally accurate.
	NoiseFloor float64
	// MaxIter caps iteration count (default 2000).
	MaxIter int
	// Yield, when non-nil, is called at the duality-gap check cadence of
	// the main iterate phase (never mid-iteration, never during a
	// polish). It cannot stop the solve: when it returns,
	// the solve continues from exactly the state it left, so the result
	// is bit-identical to a solve without a hook. Schedulers use it to
	// run waiting latency-class work on the goroutine of a long bulk
	// solve. The hook may call Solve on the same Plan: the plan is
	// read-only after NewPlan, and each solve takes its own workspace
	// from the plan's pool.
	Yield func()
}

// withDefaults fills the zero options; hRe/hIm is the measurement,
// planar.
func (o InvertOptions) withDefaults(hRe, hIm []float64) InvertOptions {
	if o.Epsilon == 0 {
		o.Epsilon = 1e-6 * norm2Planar(hRe, hIm)
		if o.Epsilon == 0 {
			o.Epsilon = 1e-12
		}
	}
	if o.MaxIter == 0 {
		o.MaxIter = 2000
	}
	return o
}

// Result is the output of one inversion.
type Result struct {
	Profile    dsp.Vec   // sparse delay-domain profile p (len == len(Taus))
	Magnitude  []float64 // |p| per grid point — the multipath profile plot
	Taus       []float64 // the delay grid (aliases Plan.Taus)
	Iterations int
	Converged  bool
	Residual   float64 // ‖h − F·p‖₂ at termination
	// GapAtStop is the LASSO duality-gap bound measured at the last gap
	// check (0 when no check ran: no noise floor, or a solve that
	// finished before the first check). For a gap-stopped
	// solve it is the certified suboptimality of the returned profile.
	GapAtStop float64
	// Work counts grid cells processed across all iterations and gap
	// checks (a main iteration costs the grid, a polish iteration its
	// restricted set): a deterministic cost measure, unlike wall clock,
	// that callers compare solves on rather than raw iteration counts.
	Work int64
}
