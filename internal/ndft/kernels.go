package ndft

import (
	"math"
	"slices"

	"chronos/internal/detmath"
	"chronos/internal/obs"
)

// kernelTier identifies the kernel family the solver hot loops run on
// this machine: the AVX2 kernels, or the scalar Go reference bodies they
// are tested against. Exactly one tier is active per process, detected
// once at init from the hardware (CPUID on amd64) and the ndft_noasm
// build tag. Both tiers implement the same fixed-K accumulation contract
// (see cdot), so the tier changes throughput, never results.
type kernelTier uint8

const (
	tierScalar kernelTier = iota
	tierAVX2
)

// String returns the tier name used by VectorKernel, BENCH output, and
// the obs snapshot.
func (t kernelTier) String() string {
	if t == tierAVX2 {
		return "avx2"
	}
	return "scalar"
}

// detectTier resolves the best kernel tier of this build and CPU from
// the process's one CPU probe, detmath's: AVX2 where its vector
// kernels run (amd64 with AVX2 and the OS-enabled ymm state, no
// ndft_noasm tag), else the scalar contract path.
func detectTier() kernelTier {
	if detmath.AVX2() {
		return tierAVX2
	}
	return tierScalar
}

// activeTier is the detected kernel tier. Mutate only through
// setKernelTier (tests/benches); the solver reads it on every adjoint,
// shrink and momentum run and every forward product.
var activeTier = detectTier()

// setKernelTier is the test/bench hook that swaps the active tier,
// returning the previous tier. It never activates AVX2 on a host or
// build without it: there every request runs the scalar tier. Not safe
// to call concurrently with solves.
func setKernelTier(t kernelTier) kernelTier {
	prev := activeTier
	if detectTier() == tierScalar {
		t = tierScalar
	}
	activeTier = t
	obs.SetLabel(kernelLabel, activeTier.String())
	return prev
}

// VectorKernel reports the active kernel tier as a string: "avx2" or
// "scalar". Both tiers return byte-identical solver results; the tier
// determines only throughput. Campaign snapshots and the host record of
// benchmark runs carry this value.
func VectorKernel() string { return activeTier.String() }

// adjCells is the solver's adjoint product over one run [lo, hi) of
// consecutive grid cells: g[k] = Σᵢ Fᴴ[lo+k][i]·x[i] (planar, no
// conjugation) for each of the run's hi−lo cells, dispatched on the
// active tier. fhRe/fhIm is Fᴴ row-major (row j at j·n) and ftRe/ftIm
// the same matrix cell-major (element i of cell j at i·m+j). Every cell
// runs the fixed-K accumulation contract that cdot defines: K=4 partial
// sums, element i feeding chain i mod 4 through the stride-4 main loop,
// the n mod 4 tail feeding chain 0 in order, and the pinned fold
// (s0+s1)+(s2+s3). The AVX2 tier runs kernAdjCells on the cell-major
// copy, one cell per lane and the four chains as four accumulator pairs,
// with a masked last quad, so one call covers any run; the scalar tier
// runs adjRows on the row-major rows. Both tiers return the same bits
// per cell.
//
// With a screen (gradStep's; nil computes every cell) the run is taken
// four cells at a time from lo, the last quad possibly partial. A quad
// whose cells all have y and p equal to +0 bit for bit and a key below
// scr.thr is skipped: its g is stored as +0, and its cells count in the
// returned total. Every computed cell's key becomes |g| − scr.c,
// computed as math.Sqrt(gr·gr + gi·gi) − c on both tiers. The AVX2
// kernel fuses the test; the scalar tier runs adjRowsScreened.
func adjCells(fhRe, fhIm, ftRe, ftIm []float64, n, m, lo, hi int, xRe, xIm, gRe, gIm []float64, scr *screen) (skipped int) {
	cells := hi - lo
	if cells <= 0 {
		return 0
	}
	xRe, xIm, gRe, gIm = xRe[:n], xIm[:n], gRe[:cells], gIm[:cells]
	if activeTier == tierAVX2 && n > 0 {
		// The last element the kernel reads is (n−1, hi−1).
		end := (n-1)*m + hi
		ftRe, ftIm = ftRe[lo:end], ftIm[lo:end]
		if scr == nil {
			return kernAdjCells(ftRe, ftIm, m, xRe, xIm, gRe, gIm, nil, nil, nil, nil, nil, 0, 0)
		}
		return kernAdjCells(ftRe, ftIm, m, xRe, xIm, gRe, gIm,
			scr.yRe[lo:hi], scr.yIm[lo:hi], scr.pRe[lo:hi], scr.pIm[lo:hi], scr.key[lo:hi], scr.thr, scr.c)
	}
	fhRe, fhIm = fhRe[lo*n:hi*n], fhIm[lo*n:hi*n]
	if scr == nil {
		adjRows(fhRe, fhIm, n, xRe, xIm, gRe, gIm)
		return 0
	}
	return adjRowsScreened(fhRe, fhIm, n, xRe, xIm, gRe, gIm,
		scr.yRe[lo:hi], scr.yIm[lo:hi], scr.pRe[lo:hi], scr.pIm[lo:hi], scr.key[lo:hi], scr.thr, scr.c)
}

// adjRows is the scalar tier's row-major adjoint over a run of
// consecutive dictionary rows: out[r] = Σₖ a_r[k]·x[k] for each row
// a_r = fh[r·n : (r+1)·n] of the block fhRe/fhIm, len(outRe) rows, one
// cdot per row.
func adjRows(fhRe, fhIm []float64, n int, xRe, xIm, outRe, outIm []float64) {
	rows := len(outRe)
	fhRe, fhIm = fhRe[:rows*n], fhIm[:rows*n]
	xRe, xIm, outIm = xRe[:n], xIm[:n], outIm[:rows]
	for r := range outRe {
		outRe[r], outIm[r] = cdot(fhRe[r*n:(r+1)*n], fhIm[r*n:(r+1)*n], xRe, xIm)
	}
}

// adjRowsScreened is adjCells' screened body on the scalar tier: quad
// by quad from the run's first cell, the skip test in Go, then adjRows
// over the quad's rows and the computed cells' keys. y, p and key are
// the run's cells.
func adjRowsScreened(fhRe, fhIm []float64, n int, xRe, xIm, gRe, gIm, yRe, yIm, pRe, pIm, key []float64, thr, c float64) (skipped int) {
	cells := len(gRe)
	gIm, yRe, yIm, pRe, pIm, key = gIm[:cells], yRe[:cells], yIm[:cells], pRe[:cells], pIm[:cells], key[:cells]
	for q := 0; q < cells; q += 4 {
		e := min(q+4, cells)
		if quadScreened(yRe[q:e], yIm[q:e], pRe[q:e], pIm[q:e], key[q:e], thr) {
			for k := q; k < e; k++ {
				gRe[k], gIm[k] = 0, 0
			}
			skipped += e - q
			continue
		}
		adjRows(fhRe[q*n:e*n], fhIm[q*n:e*n], n, xRe, xIm, gRe[q:e], gIm[q:e])
		for k := q; k < e; k++ {
			key[k] = math.Sqrt(float64(gRe[k]*gRe[k])+float64(gIm[k]*gIm[k])) - c
		}
	}
	return skipped
}

// quadScreened is the skip test of one quad: every cell's y and p are +0
// bit for bit (−0 fails) and its key is below thr (a NaN key or thr
// fails).
func quadScreened(yRe, yIm, pRe, pIm, key []float64, thr float64) bool {
	for k := range key {
		bits := math.Float64bits(yRe[k]) | math.Float64bits(yIm[k]) | math.Float64bits(pRe[k]) | math.Float64bits(pIm[k])
		if bits != 0 || !(key[k] < thr) {
			return false
		}
	}
	return true
}

// axpyCols accumulates scaled conjugated dictionary columns into the
// residual: dst[i] += conj(Fᴴ[j][i])·src[j] for every column j of cols,
// in the listed order, the forward product of forwardResid. fhRe/fhIm is
// the row-major n-column adjoint, so column j of F is the conjugate of
// the contiguous row j. cols must be ascending (the last one
// bounds-checks them all). The scalar tier runs axpyColsScalar; the
// AVX2 tier takes the whole residual as n/4 full chunks plus the n mod 4
// tail as one masked chunk (VMASKMOVPD, which neither reads nor writes
// past n). Each element receives the same additions in the same order on
// both tiers: the operation is elementwise, and the AVX2 body uses the
// sign-folded form dstRe += ar·cr + rowIm·ci, which is exact (IEEE
// negation is exact and x−(−y) ≡ x+y).
func axpyCols(fhRe, fhIm []float64, n int, cols []int, srcRe, srcIm, dstRe, dstIm []float64) {
	if len(cols) == 0 {
		return
	}
	last := cols[len(cols)-1]
	fhRe, fhIm = fhRe[:(last+1)*n], fhIm[:(last+1)*n]
	srcRe, srcIm = srcRe[:last+1], srcIm[:last+1]
	dstRe, dstIm = dstRe[:n], dstIm[:n]
	if activeTier == tierAVX2 && n > 0 {
		kernAxpyCols(fhRe, fhIm, n, cols, srcRe, srcIm, dstRe, dstIm)
		return
	}
	axpyColsScalar(fhRe, fhIm, n, cols, srcRe, srcIm, dstRe, dstIm)
}

// axpyColsScalar is axpyCols' scalar body over every residual element.
// The caller has bounds-checked every column.
func axpyColsScalar(fhRe, fhIm []float64, n int, cols []int, srcRe, srcIm, dstRe, dstIm []float64) {
	for _, j := range cols {
		cr, ci := srcRe[j], srcIm[j]
		rowRe, rowIm := fhRe[j*n:(j+1)*n], fhIm[j*n:(j+1)*n]
		for k := 0; k < n; k++ {
			ar := rowRe[k]
			ai := -rowIm[k] // F[k][j] = conj(Fᴴ[j][k])
			// float64(...) keeps each product rounded: no fused
			// multiply-add (see cdot).
			dstRe[k] += float64(ar*cr) - float64(ai*ci)
			dstIm[k] += float64(ar*ci) + float64(ai*cr)
		}
	}
}

// shrinkRun is gradStep's shrink over one run of consecutive working-set
// cells: yRe/yIm, pRe/pIm are the run's cells and gRe/gIm their adjoint
// outputs (len(gRe) cells). Each cell takes the gradient step
// y − γ·g, soft-thresholds it at thr into p, and stores the step
// Δp = p − p_prev in place of its gradient; ‖Δp‖² and the restart
// product ⟨y − p, Δp⟩ are added to diffSq and gdot cell by cell, in run
// order, and returned. shrinkRunScalar is the reference body. On the
// AVX2 tier kernShrinkRun takes the first len&^3 cells four to a vector,
// each lane running the scalar arithmetic exactly: the multiplies,
// subtractions, square root and division round as their scalar forms,
// an ordered ≤ compare and an and-not replace the zero branch (NaN
// takes the non-zero branch, zeroed cells are +0), and each cell's
// (‖Δp‖², ⟨y − p, Δp⟩) terms are added to the sums in order, one 2-lane
// add per cell. shrinkRunScalar finishes the len mod 4 tail from the
// kernel's sums, so both tiers return the same bits.
func shrinkRun(gamma, thr float64, yRe, yIm, pRe, pIm, gRe, gIm []float64, diffSq, gdot float64) (float64, float64) {
	c := 0
	if activeTier == tierAVX2 {
		if c = len(gRe) &^ 3; c > 0 {
			diffSq, gdot = kernShrinkRun(yRe[:c], yIm[:c], pRe[:c], pIm[:c], gRe[:c], gIm[:c], gamma, thr, diffSq, gdot)
		}
	}
	return shrinkRunScalar(gamma, thr, yRe[c:], yIm[c:], pRe[c:], pIm[c:], gRe[c:], gIm[c:], diffSq, gdot)
}

// shrinkRunScalar is the reference shrink: shrinkRun's scalar body, run
// over whole runs on the scalar tier and over the AVX2 tier's tails. The
// zero test compares squared magnitudes so the (dominant) zeroed cells
// never pay for a square root.
func shrinkRunScalar(gamma, thr float64, yRe, yIm, pRe, pIm, gRe, gIm []float64, diffSq, gdot float64) (float64, float64) {
	n := len(gRe)
	yRe, yIm, pRe, pIm, gIm = yRe[:n], yIm[:n], pRe[:n], pIm[:n], gIm[:n]
	thrSq := thr * thr
	for c := range gRe {
		yr, yi := yRe[c], yIm[c]
		pr := yr - float64(gamma*gRe[c])
		pi := yi - float64(gamma*gIm[c])
		var nr, ni float64
		// "<=" also zeroes sq==thrSq==0, avoiding 0/0 below; a NaN takes
		// the non-zero branch.
		if sq := float64(pr*pr) + float64(pi*pi); sq <= thrSq {
			nr, ni = 0, 0
		} else {
			a := math.Sqrt(sq)
			sc := (a - thr) / a
			nr, ni = float64(pr*sc), float64(pi*sc)
		}
		dr, di := nr-pRe[c], ni-pIm[c]
		pRe[c], pIm[c] = nr, ni
		gRe[c], gIm[c] = dr, di
		diffSq += float64(dr*dr) + float64(di*di)
		gdot += float64((yr-nr)*dr) + float64((yi-ni)*di)
	}
	return diffSq, gdot
}

// momentumRun is endStep's extrapolation over one run of consecutive
// working-set cells starting at cell lo: y = p + β·Δp for each cell,
// with pRe/pIm, yRe/yIm the run's cells and gRe/gIm their stored steps.
// Each cell whose y is non-zero (NaN counts as non-zero) is appended to
// active, in ascending order, and the grown list is returned.
// momentumRunScalar is the reference body. On the AVX2 tier
// kernMomentumRun takes the first len&^3 cells four to a vector, with
// the multiply and add rounding as their scalar forms and the active
// test an unordered ≠ 0 compare; momentumRunScalar finishes the
// len mod 4 tail.
func momentumRun(beta float64, lo int, pRe, pIm, gRe, gIm, yRe, yIm []float64, active []int) []int {
	c := 0
	if activeTier == tierAVX2 {
		if c = len(gRe) &^ 3; c > 0 {
			active = slices.Grow(active, c)
			k := len(active)
			k += kernMomentumRun(pRe[:c], pIm[:c], gRe[:c], gIm[:c], yRe[:c], yIm[:c], beta, lo, active[k:k+c])
			active = active[:k]
		}
	}
	return momentumRunScalar(beta, lo+c, pRe[c:], pIm[c:], gRe[c:], gIm[c:], yRe[c:], yIm[c:], active)
}

// momentumRunScalar is the reference extrapolation: momentumRun's scalar
// body, run over whole runs on the scalar tier and over the AVX2 tier's
// tails.
func momentumRunScalar(beta float64, lo int, pRe, pIm, gRe, gIm, yRe, yIm []float64, active []int) []int {
	n := len(gRe)
	pRe, pIm, gIm, yRe, yIm = pRe[:n], pIm[:n], gIm[:n], yRe[:n], yIm[:n]
	for c := range gRe {
		yr := pRe[c] + float64(beta*gRe[c])
		yi := pIm[c] + float64(beta*gIm[c])
		yRe[c], yIm[c] = yr, yi
		if yr != 0 || yi != 0 {
			active = append(active, lo+c)
		}
	}
	return active
}
