package ndft

import (
	"math"

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
// shrink and momentum pass and every forward product.
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

// Quad lists. Every pass of a solver phase walks the phase's working set
// as one list of quads: each maximal run of consecutive cells is taken
// four cells at a time from its first cell, so a quad is one to four
// consecutive cells, the last of a run possibly partial. An entry packs
// the quad's first cell and its lane count as lo<<2 | (lanes−1)
// (packQuad), and a list is ascending, so its last entry bounds every
// cell it names. Each pass is one call on the active tier: the AVX2
// kernels walk the list four cells to a vector with partial quads masked,
// and the scalar tier runs the same list through the Go reference bodies.
// g is indexed by cell.

// packQuad packs the quad of lanes cells (1–4) from cell lo.
func packQuad(lo, lanes int) int { return lo<<2 | (lanes - 1) }

// quadSpan returns the cells [lo, hi) of a packed quad.
func quadSpan(q int) (lo, hi int) {
	lo = q >> 2
	return lo, lo + q&3 + 1
}

// setQuads splits an ascending set of distinct cells into its quad list,
// reusing dst. A set of m-grid cells has at most ⌈m/2⌉ quads.
func setQuads(dst, set []int) []int {
	dst = dst[:0]
	for i := 0; i < len(set); {
		lo, hi := set[i], set[i]+1
		for i++; i < len(set) && set[i] == hi; i++ {
			hi++
		}
		for ; lo < hi; lo += 4 {
			dst = append(dst, packQuad(lo, min(4, hi-lo)))
		}
	}
	return dst
}

// adjQuads is the solver's adjoint product over a quad list:
// g[j] = Σᵢ Fᴴ[j][i]·x[i] (planar, no conjugation) for every cell j of
// the listed quads, indexed by cell, in one call on the active tier.
// fhRe/fhIm is Fᴴ row-major (row j at j·n) and ftRe/ftIm the same matrix
// cell-major (element i of cell j at i·m+j). Every cell runs the fixed-K
// accumulation contract that cdot defines: K=4 partial sums, element i
// feeding chain i mod 4 through the stride-4 main loop, the n mod 4 tail
// feeding chain 0 in order, and the pinned fold (s0+s1)+(s2+s3). The
// AVX2 tier runs kernAdjQuads on the cell-major copy, one cell per lane
// and the four chains as four accumulator pairs, a partial quad masked to
// its lanes; the scalar tier runs adjQuadsScalar on the row-major rows.
// Both tiers return the same bits per cell.
//
// With a screen (gradStep's; nil computes every quad) a quad whose cells
// all have y and p equal to +0 bit for bit and a key below scr.thr is
// skipped: nothing of it is written, and its cells count in the returned
// total. Every computed cell's key becomes |g| − scr.c, computed as
// math.Sqrt(gr·gr + gi·gi) − c on both tiers. The AVX2 kernel fuses the
// test. Every computed quad is written to live, in list order, and the
// live list is returned over live's backing array, which needs room for
// every quad.
func adjQuads(fhRe, fhIm, ftRe, ftIm []float64, n, m int, quads []int, xRe, xIm, gRe, gIm []float64, scr *screen, live []int) (liveOut []int, skipped int) {
	if len(quads) == 0 {
		return live[:0], 0
	}
	_, end := quadSpan(quads[len(quads)-1])
	xRe, xIm, gRe, gIm = xRe[:n], xIm[:n], gRe[:end], gIm[:end]
	if activeTier == tierAVX2 && n > 0 {
		// The last element the kernel reads is (n−1, end−1).
		ftRe, ftIm = ftRe[:(n-1)*m+end], ftIm[:(n-1)*m+end]
		live = live[:len(quads)]
		var k int
		if scr == nil {
			k, skipped = kernAdjQuads(ftRe, ftIm, m, quads, xRe, xIm, gRe, gIm, nil, nil, nil, nil, nil, 0, 0, live)
		} else {
			k, skipped = kernAdjQuads(ftRe, ftIm, m, quads, xRe, xIm, gRe, gIm,
				scr.yRe[:end], scr.yIm[:end], scr.pRe[:end], scr.pIm[:end], scr.key[:end], scr.thr, scr.c, live)
		}
		return live[:k], skipped
	}
	return adjQuadsScalar(fhRe[:end*n], fhIm[:end*n], n, quads, xRe, xIm, gRe, gIm, scr, live)
}

// adjQuadsScalar is adjQuads' reference body and its scalar tier: quad
// by quad, the skip test in Go (quadScreened), then adjRows over the
// quad's rows and the computed cells' keys.
func adjQuadsScalar(fhRe, fhIm []float64, n int, quads []int, xRe, xIm, gRe, gIm []float64, scr *screen, live []int) (liveOut []int, skipped int) {
	live = live[:0]
	for _, q := range quads {
		lo, hi := quadSpan(q)
		if scr != nil && quadScreened(scr.yRe[lo:hi], scr.yIm[lo:hi], scr.pRe[lo:hi], scr.pIm[lo:hi], scr.key[lo:hi], scr.thr) {
			skipped += hi - lo
			continue
		}
		adjRows(fhRe[lo*n:hi*n], fhIm[lo*n:hi*n], n, xRe, xIm, gRe[lo:hi], gIm[lo:hi])
		if scr != nil {
			for j := lo; j < hi; j++ {
				scr.key[j] = math.Sqrt(float64(gRe[j]*gRe[j])+float64(gIm[j]*gIm[j])) - scr.c
			}
		}
		live = append(live, q)
	}
	return live, skipped
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

// shrinkQuads is gradStep's shrink over the live quads of its adjoint
// pass, in one call: each cell takes the gradient step y − γ·g,
// soft-thresholds it at thr into p, and stores the step Δp = p − p_prev
// in place of its gradient; ‖Δp‖² and the restart product ⟨y − p, Δp⟩
// are added to diffSq and gdot cell by cell, in list order, and
// returned. shrinkQuadsScalar is the reference body and the scalar tier.
// On the AVX2 tier kernShrinkQuads takes each quad as one vector, each
// lane running the scalar arithmetic exactly: the multiplies,
// subtractions, square root and division round as their scalar forms, an
// ordered ≤ compare and an and-not replace the zero branch (NaN takes the
// non-zero branch, zeroed cells are +0), and each cell's
// (‖Δp‖², ⟨y − p, Δp⟩) terms are added to the sums in order, one 2-lane
// add per cell. A partial quad's loads and stores are masked to its lanes
// and only its lanes' terms are added, so both tiers return the same bits
// and touch no cell outside the list.
func shrinkQuads(gamma, thr float64, live []int, yRe, yIm, pRe, pIm, gRe, gIm []float64, diffSq, gdot float64) (float64, float64) {
	if len(live) == 0 {
		return diffSq, gdot
	}
	_, end := quadSpan(live[len(live)-1])
	yRe, yIm, pRe, pIm, gRe, gIm = yRe[:end], yIm[:end], pRe[:end], pIm[:end], gRe[:end], gIm[:end]
	if activeTier == tierAVX2 {
		return kernShrinkQuads(live, yRe, yIm, pRe, pIm, gRe, gIm, gamma, thr, diffSq, gdot)
	}
	return shrinkQuadsScalar(gamma, thr, live, yRe, yIm, pRe, pIm, gRe, gIm, diffSq, gdot)
}

// shrinkQuadsScalar is the reference shrink. The zero test compares
// squared magnitudes so the (dominant) zeroed cells never pay for a
// square root.
func shrinkQuadsScalar(gamma, thr float64, live []int, yRe, yIm, pRe, pIm, gRe, gIm []float64, diffSq, gdot float64) (float64, float64) {
	thrSq := thr * thr
	for _, q := range live {
		lo, hi := quadSpan(q)
		for c := lo; c < hi; c++ {
			yr, yi := yRe[c], yIm[c]
			pr := yr - float64(gamma*gRe[c])
			pi := yi - float64(gamma*gIm[c])
			var nr, ni float64
			// "<=" also zeroes sq==thrSq==0, avoiding 0/0 below; a NaN
			// takes the non-zero branch.
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
	}
	return diffSq, gdot
}

// momentumQuads is endStep's extrapolation over the live quads, in one
// call: y = p + β·Δp for each of their cells, with gRe/gIm the stored
// steps. Each cell whose y is non-zero (NaN counts as non-zero) is
// appended to active, in list order, and the grown list is returned.
// momentumQuadsScalar is the reference body and the scalar tier. On the
// AVX2 tier kernMomentumQuads takes each quad as one vector, partial
// quads masked to their lanes, with the multiply and add rounding as
// their scalar forms and the active test an unordered ≠ 0 compare. Its
// append is branchless, so active needs three spare slots past the live
// cells.
func momentumQuads(beta float64, live []int, pRe, pIm, gRe, gIm, yRe, yIm []float64, active []int) []int {
	if len(live) == 0 {
		return active
	}
	_, end := quadSpan(live[len(live)-1])
	pRe, pIm, gRe, gIm, yRe, yIm = pRe[:end], pIm[:end], gRe[:end], gIm[:end], yRe[:end], yIm[:end]
	if activeTier == tierAVX2 {
		k := len(active)
		return active[:k+kernMomentumQuads(live, pRe, pIm, gRe, gIm, yRe, yIm, beta, active[k:k+end+3])]
	}
	return momentumQuadsScalar(beta, live, pRe, pIm, gRe, gIm, yRe, yIm, active)
}

// momentumQuadsScalar is the reference extrapolation.
func momentumQuadsScalar(beta float64, live []int, pRe, pIm, gRe, gIm, yRe, yIm []float64, active []int) []int {
	for _, q := range live {
		lo, hi := quadSpan(q)
		for c := lo; c < hi; c++ {
			yr := pRe[c] + float64(beta*gRe[c])
			yi := pIm[c] + float64(beta*gIm[c])
			yRe[c], yIm[c] = yr, yi
			if yr != 0 || yi != 0 {
				active = append(active, c)
			}
		}
	}
	return active
}
