package dsp

import (
	"math"
	"math/cmplx"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"
)

const eps = 1e-12

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestNorms(t *testing.T) {
	v := Vec{3 + 4i, 0, -5}
	if got := Norm2(v); !approx(got, math.Sqrt(50), eps) {
		t.Errorf("Norm2 = %v", got)
	}
}

func TestPower(t *testing.T) {
	v := Vec{2i}
	dst := make(Vec, 1)
	Power(dst, v, 2)
	if dst[0] != -4 {
		t.Errorf("Power2 = %v", dst[0])
	}
	Power(dst, v, 4)
	if dst[0] != 16 {
		t.Errorf("Power4 = %v", dst[0])
	}
	Power(dst, v, 0)
	if dst[0] != 1 {
		t.Errorf("Power0 = %v", dst[0])
	}
}

func TestUnwrapLinearRamp(t *testing.T) {
	// A steep linear phase ramp wrapped into [-π, π] must unwrap back to
	// the original line.
	slope := 2.9 // rad per sample, below π so unwrapping is unambiguous
	n := 50
	wrapped := make([]float64, n)
	for i := range wrapped {
		wrapped[i] = math.Remainder(slope*float64(i), 2*math.Pi)
	}
	got := Unwrap(wrapped)
	for i := range got {
		want := slope * float64(i)
		if !approx(got[i], want, 1e-9) {
			t.Fatalf("unwrap[%d] = %v, want %v", i, got[i], want)
		}
	}
}

func TestUnwrapShortInputs(t *testing.T) {
	if got := Unwrap(nil); got != nil {
		t.Errorf("Unwrap(nil) = %v", got)
	}
	one := []float64{1.5}
	if got := Unwrap(one); got[0] != 1.5 {
		t.Errorf("Unwrap(single) = %v", got)
	}
}

func TestUnwrapConsecutiveDiffBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ph := make([]float64, 200)
	for i := range ph {
		ph[i] = (rng.Float64() - 0.5) * 2 * math.Pi
	}
	out := Unwrap(append([]float64(nil), ph...))
	for i := 1; i < len(out); i++ {
		d := out[i] - out[i-1]
		if d > math.Pi+1e-9 || d <= -math.Pi-1e-9 {
			t.Fatalf("diff[%d] = %v outside (-π, π]", i, d)
		}
	}
}

func TestFromPolarRoundTrip(t *testing.T) {
	f := func(mag, ph float64) bool {
		mag = math.Abs(math.Mod(mag, 1e6))
		ph = math.Mod(ph, math.Pi)
		c := FromPolar(mag, ph)
		return approx(cmplx.Abs(c), mag, 1e-6*(1+mag))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestMulMatchesComplexMultiply pins the identities the batched capture
// and fold rest on, on amd64 where the compiler fuses no multiply-add:
// Mul(h, c) is Go's h *= c, and FromPolar is cmplx.Rect, bit for bit.
func TestMulMatchesComplexMultiply(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("the compiler fuses complex multiplies and std's Sincos off amd64")
	}
	rng := rand.New(rand.NewSource(9))
	same := func(a, b complex128) bool {
		return math.Float64bits(real(a)) == math.Float64bits(real(b)) &&
			math.Float64bits(imag(a)) == math.Float64bits(imag(b))
	}
	for i := 0; i < 10000; i++ {
		h := complex(rng.NormFloat64()*math.Pow(10, float64(rng.Intn(20)-10)), rng.NormFloat64())
		c := cmplx.Rect(1, (rng.Float64()*2-1)*1e4)
		want := h
		want *= c
		if got := Mul(h, c); !same(got, want) {
			t.Fatalf("Mul(%v, %v) = %v; h *= c gives %v", h, c, got, want)
		}
		mag, ph := math.Abs(real(h)), (rng.Float64()*2-1)*1e4
		if got, want := FromPolar(mag, ph), cmplx.Rect(mag, ph); !same(got, want) {
			t.Fatalf("FromPolar(%v, %v) = %v; cmplx.Rect gives %v", mag, ph, got, want)
		}
	}
}
