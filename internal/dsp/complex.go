// Package dsp provides the signal-processing primitives Chronos builds on:
// complex vector arithmetic, phase unwrapping, cubic-spline interpolation,
// and peak detection on multipath profiles.
//
// Everything here is allocation-conscious: the hot-path routines accept
// destination slices so callers can reuse buffers across iterations of the
// sparse-recovery solver.
package dsp

import (
	"math"
	"math/cmplx"
)

// Vec is a complex-valued signal vector.
type Vec []complex128

// NewVec returns a zeroed vector of length n.
func NewVec(n int) Vec { return make(Vec, n) }

// Clone returns a deep copy of v.
func (v Vec) Clone() Vec {
	out := make(Vec, len(v))
	copy(out, v)
	return out
}

// Add stores a+b into dst and returns dst. All three must have equal length.
func Add(dst, a, b Vec) Vec {
	for i := range dst {
		dst[i] = a[i] + b[i]
	}
	return dst
}

// Sub stores a-b into dst and returns dst.
func Sub(dst, a, b Vec) Vec {
	for i := range dst {
		dst[i] = a[i] - b[i]
	}
	return dst
}

// mul returns x·y as Go's complex multiplication computes it,
// (ac−bd, ad+bc), with each partial product rounded before the sum: the
// compiler may otherwise fuse a product and the sum into one multiply-add
// on arm64, which rounds differently from amd64.
func mul(x, y complex128) complex128 {
	a, b, c, d := real(x), imag(x), real(y), imag(y)
	return complex(float64(a*c)-float64(b*d), float64(a*d)+float64(b*c))
}

// Scale stores s*a into dst and returns dst.
func Scale(dst Vec, s complex128, a Vec) Vec {
	for i := range dst {
		dst[i] = mul(s, a[i])
	}
	return dst
}

// AXPY computes dst = dst + s*a in place and returns dst.
func AXPY(dst Vec, s complex128, a Vec) Vec {
	for i := range dst {
		dst[i] += mul(s, a[i])
	}
	return dst
}

// Dot returns the inner product conj(a)·b.
func Dot(a, b Vec) complex128 {
	var sum complex128
	for i := range a {
		sum += mul(cmplx.Conj(a[i]), b[i])
	}
	return sum
}

// Norm2 returns the Euclidean (L2) norm of v.
func Norm2(v Vec) float64 {
	var sum float64
	for _, c := range v {
		re, im := real(c), imag(c)
		sum += float64(re*re) + float64(im*im)
	}
	return math.Sqrt(sum)
}

// Norm1 returns the L1 norm Σ|vᵢ|.
func Norm1(v Vec) float64 {
	var sum float64
	for _, c := range v {
		sum += cmplx.Abs(c)
	}
	return sum
}

// NormInf returns max |vᵢ|, or 0 for an empty vector.
func NormInf(v Vec) float64 {
	var m float64
	for _, c := range v {
		if a := cmplx.Abs(c); a > m {
			m = a
		}
	}
	return m
}

// Abs stores |v| element-wise into dst (which must have len(v)) and
// returns dst.
func Abs(dst []float64, v Vec) []float64 {
	for i, c := range v {
		dst[i] = cmplx.Abs(c)
	}
	return dst
}

// Power stores v[i]^n element-wise into dst and returns dst. It is used to
// normalize channel powers across bands (h̃² from CFO cancellation, h̃⁴
// for the 2.4 GHz firmware quirk).
func Power(dst, v Vec, n int) Vec {
	for i, c := range v {
		p := complex(1, 0)
		for k := 0; k < n; k++ {
			p = mul(p, c)
		}
		dst[i] = p
	}
	return dst
}

// Phases stores the argument of each element into dst and returns dst.
func Phases(dst []float64, v Vec) []float64 {
	for i, c := range v {
		dst[i] = cmplx.Phase(c)
	}
	return dst
}

// FromPolar builds a complex number from magnitude and phase.
func FromPolar(mag, phase float64) complex128 {
	return cmplx.Rect(mag, phase)
}

// SoftThreshold applies the complex soft-thresholding (shrinkage) operator
// from Algorithm 1 of the paper ("SPARSIFY"): elements with magnitude below
// t are zeroed, larger elements are shrunk toward zero by t while keeping
// their phase. The operation is in place on p.
func SoftThreshold(p Vec, t float64) {
	for i, c := range p {
		a := cmplx.Abs(c)
		if a <= t { // "<=" also zeroes a==t==0, avoiding 0/0 below
			p[i] = 0
		} else {
			p[i] = mul(c, complex((a-t)/a, 0))
		}
	}
}

// WrapPhase reduces an angle to (-π, π].
func WrapPhase(ph float64) float64 {
	ph = math.Mod(ph, 2*math.Pi)
	if ph <= -math.Pi {
		ph += 2 * math.Pi
	} else if ph > math.Pi {
		ph -= 2 * math.Pi
	}
	return ph
}

// Unwrap removes 2π discontinuities from a phase sequence in place and
// returns it. The first element is left untouched; each subsequent element
// is shifted by a multiple of 2π so that consecutive differences stay
// within (-π, π].
func Unwrap(ph []float64) []float64 {
	if len(ph) < 2 {
		return ph
	}
	offset := 0.0
	prev := ph[0]
	for i := 1; i < len(ph); i++ {
		raw := ph[i]
		d := raw + offset - prev
		for d > math.Pi {
			offset -= 2 * math.Pi
			d -= 2 * math.Pi
		}
		for d <= -math.Pi {
			offset += 2 * math.Pi
			d += 2 * math.Pi
		}
		ph[i] = raw + offset
		prev = ph[i]
	}
	return ph
}
