// Package dsp provides the signal-processing primitives Chronos builds on:
// complex vector arithmetic, phase unwrapping, cubic-spline interpolation,
// and peak detection on multipath profiles.
//
// Everything here is allocation-conscious: the vector routines accept
// destination slices so callers can reuse buffers.
package dsp

import (
	"math"

	"chronos/internal/detmath"
)

// Vec is a complex-valued signal vector.
type Vec []complex128

// Mul returns x·y as Go's complex multiplication computes it,
// (ac−bd, ad+bc), with each partial product rounded before the sum: the
// compiler may otherwise fuse a product and the sum into one multiply-add
// on arm64, which rounds differently from amd64. Code that must give the
// same bits on every architecture multiplies complex values through it.
func Mul(x, y complex128) complex128 {
	a, b, c, d := real(x), imag(x), real(y), imag(y)
	return complex(float64(a*c)-float64(b*d), float64(a*d)+float64(b*c))
}

// Scale stores s*a into dst and returns dst.
func Scale(dst Vec, s complex128, a Vec) Vec {
	for i := range dst {
		dst[i] = Mul(s, a[i])
	}
	return dst
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

// Power stores v[i]^n element-wise into dst and returns dst. It is used to
// normalize channel powers across bands (h̃² from CFO cancellation, h̃⁴
// for the 2.4 GHz firmware quirk).
func Power(dst, v Vec, n int) Vec {
	for i, c := range v {
		p := complex(1, 0)
		for k := 0; k < n; k++ {
			p = Mul(p, c)
		}
		dst[i] = p
	}
	return dst
}

// FromPolar builds a complex number from magnitude and phase, as
// cmplx.Rect does, through detmath's fusion-free Sincos.
func FromPolar(mag, phase float64) complex128 {
	return detmath.Rect(mag, phase)
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
