// Package detmath holds the fix path's copy of three elementary
// functions of Go's math package — Atan2, Sincos and Hypot — in two
// forms that return the same bits:
//
//   - scalar ports of Go 1.24's own algorithms (the Cephes polynomials,
//     Cody–Waite reduction with Payne–Hanek above 2²⁹, and the amd64
//     max·√(1 + (min/max)²) form of Hypot), with every product that feeds
//     an addition rounded by an explicit float64(...) conversion — also
//     one kept in a variable or returned, since Go may fuse across
//     statements — so the compiler can fuse no multiply-add into them on
//     any architecture. On amd64, where std fuses nothing either, they
//     return std's bits;
//   - batch forms over planar slices (Atan2Batch, SincosBatch,
//     HypotBatch) that run four lanes per AVX2 vector on amd64 and match
//     the scalar ports bit for bit (batch.go).
//
// Phase and Rect are the math/cmplx forms built on the ports, and Sin
// is Sincos's sine half. The code follows Go's math package
// (Copyright The Go Authors, BSD-style license), which follows the
// Cephes Mathematical Library by Stephen L. Moshier.
package detmath

import (
	"math"
	"math/bits"
)

// Phase returns the argument of z in [−π, π], as cmplx.Phase computes
// it.
func Phase(z complex128) float64 { return Atan2(imag(z), real(z)) }

// Rect returns the complex number with magnitude r and phase θ, as
// cmplx.Rect computes it. Rect(1, θ) is complex(cos θ, sin θ) bit for bit.
func Rect(r, θ float64) complex128 {
	s, c := Sincos(θ)
	return complex(float64(r*c), float64(r*s))
}

// Hypot returns √(p² + q²) without needless overflow or underflow, as
// amd64's math.Hypot computes it: max·√(1 + (min/max)²), +Inf when
// either argument is infinite, NaN when either is NaN (and neither is
// infinite), and +0 when both are zero.
func Hypot(p, q float64) float64 {
	p, q = math.Abs(p), math.Abs(q)
	switch {
	case math.IsInf(p, 1) || math.IsInf(q, 1):
		return math.Inf(1)
	case p != p || q != q:
		return math.NaN()
	}
	if p < q {
		p, q = q, p
	}
	if p == 0 {
		return 0
	}
	q = q / p
	return float64(p * math.Sqrt(1+float64(q*q)))
}

// Atan2 returns the arc tangent of y/x in [−π, π], using the signs of
// both to pick the quadrant, with math.Atan2's special cases.
func Atan2(y, x float64) float64 {
	switch {
	case y != y || x != x:
		return math.NaN()
	case y == 0:
		if x >= 0 && !math.Signbit(x) {
			return math.Copysign(0, y)
		}
		return math.Copysign(math.Pi, y)
	case x == 0:
		return math.Copysign(math.Pi/2, y)
	case math.IsInf(x, 0):
		if math.IsInf(x, 1) {
			if math.IsInf(y, 0) {
				return math.Copysign(math.Pi/4, y)
			}
			return math.Copysign(0, y)
		}
		if math.IsInf(y, 0) {
			return math.Copysign(3*math.Pi/4, y)
		}
		return math.Copysign(math.Pi, y)
	case math.IsInf(y, 0):
		return math.Copysign(math.Pi/2, y)
	}
	q := atan(y / x)
	if x < 0 {
		if q <= 0 {
			return q + math.Pi
		}
		return q - math.Pi
	}
	return q
}

// atan is math.Atan: ±0 unchanged, the odd extension of satan
// elsewhere.
func atan(x float64) float64 {
	if x == 0 {
		return x
	}
	if x > 0 {
		return satan(x)
	}
	return -satan(-x)
}

// The constants of satan and xatan. Each is an untyped constant, so an
// expression over them (π/2, 0.5·morebits) folds exactly and rounds
// once, as in the math package.
const (
	morebits = 6.123233995736765886130e-17 // π/2 = float64(π/2) + morebits
	tan3pio8 = 2.41421356237309504880      // tan(3π/8)
	satanLo  = 0.66                        // satan's first branch point

	atanP0 = -8.750608600031904122785e-01
	atanP1 = -1.615753718733365076637e+01
	atanP2 = -7.500855792314704667340e+01
	atanP3 = -1.228866684490136173410e+02
	atanP4 = -6.485021904942025371773e+01
	atanQ0 = +2.485846490142306297962e+01
	atanQ1 = +1.650270098316988542046e+02
	atanQ2 = +4.328810604912902668951e+02
	atanQ3 = +4.853903996359136964868e+02
	atanQ4 = +1.945506571482613964425e+02
)

// satan reduces its non-negative argument to [0, 0.66] and calls xatan.
func satan(x float64) float64 {
	if x <= satanLo {
		return xatan(x)
	}
	if x > tan3pio8 {
		return math.Pi/2 - xatan(1/x) + morebits
	}
	return math.Pi/4 + xatan((x-1)/(x+1)) + 0.5*morebits
}

// xatan evaluates Cephes' rational approximation of atan on [0, 0.66].
func xatan(x float64) float64 {
	z := float64(x * x)
	p := float64(atanP0*z) + atanP1
	p = float64(p*z) + atanP2
	p = float64(p*z) + atanP3
	p = float64(p*z) + atanP4
	q := z + atanQ0
	q = float64(q*z) + atanQ1
	q = float64(q*z) + atanQ2
	q = float64(q*z) + atanQ3
	q = float64(q*z) + atanQ4
	z = z * p / q
	return float64(x*z) + x
}

// The constants of Sincos: π/4 split into three parts for Cody–Waite
// reduction (the leading two have 30 and 32 trailing zero bits, so
// y·pi4A and y·pi4B are exact for y < 2³⁰), and the Cephes sine and
// cosine coefficients, highest order first.
const (
	pi4A = 7.85398125648498535156e-1  // 0x3fe921fb40000000
	pi4B = 3.77489470793079817668e-8  // 0x3e64442d00000000
	pi4C = 2.69515142907905952645e-15 // 0x3ce8469898cc5170

	// reduceThreshold is where Cody–Waite reduction stops being exact
	// and Sincos switches to Payne–Hanek (trigReduce).
	reduceThreshold = 1 << 29

	sin0 = 1.58962301576546568060e-10
	sin1 = -2.50507477628578072866e-8
	sin2 = 2.75573136213857245213e-6
	sin3 = -1.98412698295895385996e-4
	sin4 = 8.33333333332211858878e-3
	sin5 = -1.66666666666666307295e-1

	cos0 = -1.13585365213876817300e-11
	cos1 = 2.08757008419747316778e-9
	cos2 = -2.75573141792967388112e-7
	cos3 = 2.48015872888517045348e-5
	cos4 = -1.38888888888730564116e-3
	cos5 = 4.16666666666665929218e-2
)

// Sincos returns the sine and cosine of x, with math.Sincos's special
// cases: Sincos(±0) = ±0, 1; Sincos(±Inf) and Sincos(NaN) = NaN, NaN.
func Sincos(x float64) (sin, cos float64) {
	switch {
	case x == 0:
		return x, 1
	case x != x || math.IsInf(x, 0):
		return math.NaN(), math.NaN()
	}
	sinSign, cosSign := false, false
	if x < 0 {
		x = -x
		sinSign = true
	}
	var j uint64
	var z float64
	if x >= reduceThreshold {
		j, z = trigReduce(x)
	} else {
		j = uint64(x * (4 / math.Pi)) // the octant, x/(π/4) truncated
		y := float64(j)
		if j&1 == 1 { // map zeros to the origin
			j++
			y++
		}
		j &= 7
		z = ((x - float64(y*pi4A)) - float64(y*pi4B)) - float64(y*pi4C)
	}
	if j > 3 { // reflect in the x axis
		j -= 4
		sinSign, cosSign = !sinSign, !cosSign
	}
	if j > 1 {
		cosSign = !cosSign
	}
	zz := float64(z * z)
	pc := float64(cos0*zz) + cos1
	pc = float64(pc*zz) + cos2
	pc = float64(pc*zz) + cos3
	pc = float64(pc*zz) + cos4
	pc = float64(pc*zz) + cos5
	ps := float64(sin0*zz) + sin1
	ps = float64(ps*zz) + sin2
	ps = float64(ps*zz) + sin3
	ps = float64(ps*zz) + sin4
	ps = float64(ps*zz) + sin5
	cos = (1.0 - float64(0.5*zz)) + float64(float64(zz*zz)*pc)
	sin = z + float64(float64(z*zz)*ps)
	if j == 1 || j == 2 {
		sin, cos = cos, sin
	}
	if cosSign {
		cos = -cos
	}
	if sinSign {
		sin = -sin
	}
	return sin, cos
}

// Sin returns the sine of x, as math.Sin does: Sincos's sine half, NaN
// returned unchanged.
func Sin(x float64) float64 {
	if x != x {
		return x
	}
	s, _ := Sincos(x)
	return s
}

// The float64 layout constants trigReduce takes apart x with.
const (
	fracBits = 52
	expMask  = 0x7FF
	expBias  = 1023
)

// trigReduce is Payne–Hanek reduction by π/4 (math's trigReduce) for
// Sincos's x ≥ 2²⁹: it returns the octant mod 8 (even) and x's
// remainder, scaled back by π/4. The multi-precision product x·(4/π)
// runs in 64-bit integer arithmetic, so no floating-point rounding but
// the final scaling enters.
func trigReduce(x float64) (j uint64, z float64) {
	const pi4 = math.Pi / 4
	ix := math.Float64bits(x)
	exp := int(ix>>fracBits&expMask) - expBias - fracBits
	ix &^= expMask << fracBits
	ix |= 1 << fracBits
	digit, bitshift := uint(exp+61)/64, uint(exp+61)%64
	z0 := (mPi4[digit] << bitshift) | (mPi4[digit+1] >> (64 - bitshift))
	z1 := (mPi4[digit+1] << bitshift) | (mPi4[digit+2] >> (64 - bitshift))
	z2 := (mPi4[digit+2] << bitshift) | (mPi4[digit+3] >> (64 - bitshift))
	z2hi, _ := bits.Mul64(z2, ix)
	z1hi, z1lo := bits.Mul64(z1, ix)
	z0lo := z0 * ix
	lo, c := bits.Add64(z1lo, z2hi, 0)
	hi, _ := bits.Add64(z0lo, z1hi, c)
	j = hi >> 61
	hi = hi<<3 | lo>>61
	lz := uint(bits.LeadingZeros64(hi))
	e := uint64(expBias - (lz + 1))
	hi = (hi << (lz + 1)) | (lo >> (64 - (lz + 1)))
	hi >>= 64 - fracBits
	hi |= e << fracBits
	z = math.Float64frombits(hi)
	if j&1 == 1 {
		j++
		j &= 7
		z--
	}
	return j, float64(z * pi4)
}

// mPi4 holds the binary digits of 4/π: 4/π = Σ mPi4[i]·2^(−64·i).
var mPi4 = [...]uint64{
	0x0000000000000001,
	0x45f306dc9c882a53,
	0xf84eafa3ea69bb81,
	0xb6c52b3278872083,
	0xfca2c757bd778ac3,
	0x6e48dc74849ba5c0,
	0x0c925dd413a32439,
	0xfc3bd63962534e7d,
	0xd1046bea5d768909,
	0xd338e04d68befc82,
	0x7323ac7306a673e9,
	0x3908bf177bf25076,
	0x3ff12fffbc0b301f,
	0xde5e2316b414da3e,
	0xda6cfd9e4f96136e,
	0x9e8c7ecd3cbfd45a,
	0xea4f758fd7cbe2f6,
	0x7a0e73ef14a525d4,
	0xd7f6bf623f1aba10,
	0xac06608df8f6d757,
}
