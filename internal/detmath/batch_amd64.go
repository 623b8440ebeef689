//go:build amd64 && !ndft_noasm

package detmath

import "math"

// The AVX2 kernels behind the batch forms (see batch_amd64.s). Each
// runs the whole quads of its input and then the len mod 4 tail as one
// masked quad, and returns how many elements it stored: all of them, or
// the index of the first quad with a lane outside its domain, which the
// caller runs through the scalar port. The domains: kernAtan2, x and y
// finite and non-zero; kernSincos, 0 < |x| < 2²⁹; kernHypot, both
// inputs finite and not both zero.
//
//go:noescape
func kernAtan2(dst, y, x []float64) (done int)

//go:noescape
func kernSincos(sin, cos, x []float64) (done int)

//go:noescape
func kernHypot(dst, p, q []float64) (done int)

func cpuidex(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
func xgetbv0() (eax, edx uint32)

// The kernels' constants, in the order the assembly reads them. Go
// folds each constant expression (π/2, 4/π, 0.5·morebits) exactly and
// rounds it once, as the ports see it, so no value is retyped in the
// assembly.
var atanK = [...]float64{
	0:  1,
	1:  satanLo,
	2:  tan3pio8,
	3:  atanP0,
	4:  atanP1,
	5:  atanP2,
	6:  atanP3,
	7:  atanP4,
	8:  atanQ0,
	9:  atanQ1,
	10: atanQ2,
	11: atanQ3,
	12: atanQ4,
	13: math.Pi / 2,
	14: math.Pi / 4,
	15: morebits,
	16: 0.5 * morebits,
	17: math.Pi,
	18: -math.Pi,
	19: math.MaxFloat64,
}

var sincosK = [...]float64{
	0:  4 / math.Pi,
	1:  pi4A,
	2:  pi4B,
	3:  pi4C,
	4:  reduceThreshold,
	5:  0.5,
	6:  1,
	7:  cos0,
	8:  cos1,
	9:  cos2,
	10: cos3,
	11: cos4,
	12: cos5,
	13: sin0,
	14: sin1,
	15: sin2,
	16: sin3,
	17: sin4,
	18: sin5,
}

var hypotK = [...]float64{
	0: 1,
	1: math.MaxFloat64,
}

// detectAVX2 reports AVX2 with the OS-enabled SSE and AVX state (XCR0
// bits 1–2) and the leaf-7 AVX2 flag.
func detectAVX2() bool {
	maxID, _, _, _ := cpuidex(0, 0)
	if maxID < 7 {
		return false
	}
	_, _, c1, _ := cpuidex(1, 0)
	const osxsave = 1 << 27
	if c1&osxsave == 0 {
		return false
	}
	lo, _ := xgetbv0()
	_, b7, _, _ := cpuidex(7, 0)
	const avx2 = 1 << 5
	return lo&0x6 == 0x6 && b7&avx2 != 0
}
