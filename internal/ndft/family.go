package ndft

import (
	"math"

	"chronos/internal/dsp"
)

// This file holds the alias-family grid operations. The non-uniform band
// lattice is dominated by a regular channel raster, so the dictionary has
// strong grating lobes: an atom at delay τ and its translate at τ + P
// (P the alias period, expressed here in grid cells) are nearly
// indistinguishable, and profile mass can land on either vertex of the
// degenerate LASSO face. Grid cells that differ by a whole number of
// periods therefore form one alias *family*; decisions that should be
// vertex-insensitive (which peak is the direct path) are taken on folded
// per-family mass, and only the final placement of the winning family
// consults the off-lattice measurements.

// FoldMass folds a profile magnitude modulo period grid cells into
// per-family mass: dst[r] = Σₖ mag[r + k·period]. Every input cell
// contributes to exactly one family, so total mass is conserved. dst is
// reused when it has the capacity, and the folded slice is returned.
// period must be positive; mag shorter than one period folds to itself.
func FoldMass(dst, mag []float64, period int) []float64 {
	if period <= 0 {
		return dst[:0]
	}
	if cap(dst) < period {
		dst = make([]float64, period)
	}
	dst = dst[:period]
	for r := range dst {
		dst[r] = 0
	}
	for j, v := range mag {
		dst[j%period] += v
	}
	return dst
}

// ShiftProfile circularly shifts a profile by cells grid positions in
// place (positive toward larger delay), using the three-reversal rotation
// so no scratch is allocated — it runs between solves on the warm-start
// hot path. Mass shifted past either end wraps around; callers translate
// by far less than the grid span, and any wrapped residue lands outside
// the dilated working set's interesting region and is cheap for the
// solver to zero again.
func ShiftProfile(p dsp.Vec, cells int) {
	n := len(p)
	if n == 0 {
		return
	}
	cells %= n
	if cells < 0 {
		cells += n
	}
	if cells == 0 {
		return
	}
	reverse := func(v dsp.Vec) {
		for i, j := 0, len(v)-1; i < j; i, j = i+1, j-1 {
			v[i], v[j] = v[j], v[i]
		}
	}
	reverse(p[:n-cells])
	reverse(p[n-cells:])
	reverse(p)
}

// WeightedResidual recomputes the per-frequency residual F·p − h for a
// solved profile p on this plan and returns the w-weighted L2 norm
// √Σᵢ wᵢ·|F·p − h|ᵢ². Alias placement uses it to score hypothesis refits
// on the discriminating (off-lattice) channels only: bands whose
// frequency is a multiple of the alias rate fit every hypothesis
// identically, so including their residual noise in the comparison only
// dilutes the decision. The residual is the solver's own forward
// product (forwardResid over p's support, in a pooled workspace), so a
// call allocates nothing.
func (pl *Plan) WeightedResidual(p dsp.Vec, h dsp.Vec, w []float64) float64 {
	n := pl.n
	if len(p) != pl.m || len(h) != n || len(w) != n {
		return math.NaN()
	}
	ws := pl.getWorkspace()
	defer pl.ws.Put(ws)
	split(ws.hRe, ws.hIm, h)
	ws.active = ws.active[:0]
	for j, c := range p {
		if c != 0 {
			ws.pRe[j], ws.pIm[j] = real(c), imag(c)
			ws.active = append(ws.active, j)
		}
	}
	pl.forwardResid(ws, ws.pRe, ws.pIm, ws.active)
	var sum float64
	for i := 0; i < n; i++ {
		sum += float64(w[i] * (float64(ws.residRe[i]*ws.residRe[i]) + float64(ws.resIm[i]*ws.resIm[i])))
	}
	return math.Sqrt(sum)
}

// MaxCorrelation returns ‖Fᴴh‖∞, the largest correlation between the
// measurement and any single atom — the quantity the solver's default α
// scales from. Callers comparing residuals across related solves (the
// alias-window hypothesis refits) compute it once on a reference
// measurement and pass the resulting fixed α to every solve: letting
// each hypothesis auto-scale its own α would penalize the well-matched
// window (large correlations → more shrinkage → larger residual) and
// systematically favor displaced windows.
func (pl *Plan) MaxCorrelation(h dsp.Vec) float64 {
	if len(h) != pl.n {
		return math.NaN()
	}
	w := pl.getWorkspace()
	defer pl.ws.Put(w)
	split(w.hRe, w.hIm, h)
	pl.adjointDense(w.hRe, w.hIm, w.gRe, w.gIm)
	var maxSq float64
	for j := 0; j < pl.m; j++ {
		if sq := float64(w.gRe[j]*w.gRe[j]) + float64(w.gIm[j]*w.gIm[j]); sq > maxSq {
			maxSq = sq
		}
	}
	return math.Sqrt(maxSq)
}

// MemoryBytes approximates the plan's resident size. The planar adjoint
// dictionary dominates: two layouts (row-major and cell-major) of two
// float64 planes of n×m each; the frequency/delay grids and the
// full-grid index set are included, pooled per-solve workspaces are not
// (they scale with concurrent solves, not with the registry's plan
// count).
func (pl *Plan) MemoryBytes() int64 {
	return int64(8 * (4*pl.n*pl.m + len(pl.Freqs) + len(pl.Taus) + len(pl.allIdx)))
}
