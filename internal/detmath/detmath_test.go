package detmath

import (
	"math"
	"math/cmplx"
	"math/rand"
	"runtime"
	"testing"
)

// requireAmd64 skips a comparison with the math package off amd64: there
// the compiler fuses multiply-adds into std's bodies, so std and the
// ports may differ in the last bit, and the ports are the reference.
func requireAmd64(t testing.TB) {
	t.Helper()
	if runtime.GOARCH != "amd64" {
		t.Skip("std fuses multiply-adds off amd64; the ports are the reference there")
	}
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// nudge returns x moved k ulps up (k > 0) or down (k < 0).
func nudge(x float64, k int) float64 {
	for ; k > 0; k-- {
		x = math.Nextafter(x, math.Inf(1))
	}
	for ; k < 0; k++ {
		x = math.Nextafter(x, math.Inf(-1))
	}
	return x
}

// edgeValues lists the special and boundary inputs of all three
// functions, each with both signs: ±0, subnormals, the extremes, ±Inf,
// NaN, satan's branch points 0.66 and tan(3π/8), the Payne–Hanek
// threshold 2²⁹, and multiples of π/4, each ±3 ulps.
func edgeValues() []float64 {
	base := []float64{
		0, 5e-324, 1e-320, 0x1p-1022, 1e-300, 1e-160, 1e-154, 1e-10,
		0.5, 1, 2, 1e10, 1e154, 1e160, 1e300, math.MaxFloat64,
		math.Inf(1), satanLo, tan3pio8, reduceThreshold,
		float64(reduceThreshold) * 1.5, 1e22,
	}
	for k := 1; k <= 16; k++ {
		base = append(base, float64(k)*math.Pi/4)
	}
	base = append(base, 1e6*math.Pi/4, 123456789*math.Pi/4)
	var out []float64
	for _, v := range base {
		for d := -3; d <= 3; d++ {
			w := v
			if !math.IsInf(v, 0) && v != 0 {
				w = nudge(v, d)
			}
			out = append(out, w, -w)
		}
	}
	return append(out, math.NaN())
}

func checkSincos(t testing.TB, x float64) {
	t.Helper()
	s, c := Sincos(x)
	ws, wc := math.Sincos(x)
	if !sameBits(s, ws) || !sameBits(c, wc) {
		t.Fatalf("Sincos(%v) = %v, %v; std %v, %v", x, s, c, ws, wc)
	}
	if got, want := Sin(x), math.Sin(x); !sameBits(got, want) {
		t.Fatalf("Sin(%v) = %v; std %v", x, got, want)
	}
	if math.IsInf(x, 0) || math.IsNaN(x) {
		return
	}
	// On finite inputs math.Sin and math.Cos are Sincos's two halves,
	// and cmplx.Rect(1, θ) is complex(cos θ, sin θ).
	if !sameBits(math.Sin(x), ws) || !sameBits(math.Cos(x), wc) {
		t.Fatalf("math.Sin/Cos(%v) = %v, %v; Sincos %v, %v", x, math.Sin(x), math.Cos(x), ws, wc)
	}
	if r, w := Rect(1, x), cmplx.Rect(1, x); r != complex(c, s) || !sameBits(real(r), real(w)) || !sameBits(imag(r), imag(w)) {
		t.Fatalf("Rect(1, %v) = %v; cmplx.Rect %v; complex(cos, sin) %v", x, r, w, complex(c, s))
	}
}

func checkAtan2(t testing.TB, y, x float64) {
	t.Helper()
	if got, want := Atan2(y, x), math.Atan2(y, x); !sameBits(got, want) {
		t.Fatalf("Atan2(%v, %v) = %v; std %v", y, x, got, want)
	}
	if got, want := Phase(complex(x, y)), cmplx.Phase(complex(x, y)); !sameBits(got, want) {
		t.Fatalf("Phase(%v) = %v; cmplx.Phase %v", complex(x, y), got, want)
	}
}

func checkHypot(t testing.TB, p, q float64) {
	t.Helper()
	if got, want := Hypot(p, q), math.Hypot(p, q); !sameBits(got, want) {
		t.Fatalf("Hypot(%v, %v) = %v; std %v", p, q, got, want)
	}
}

// TestPortsMatchStdEdges compares each port with the math package on
// every pair of edge values.
func TestPortsMatchStdEdges(t *testing.T) {
	requireAmd64(t)
	vals := edgeValues()
	for _, a := range vals {
		checkSincos(t, a)
		for _, b := range vals {
			checkAtan2(t, a, b)
			checkHypot(t, a, b)
		}
	}
}

// TestAtan2QuotientEdges drives y/x to underflow (±0), overflow (±Inf),
// to the subnormals and onto satan's branch points, in every quadrant.
func TestAtan2QuotientEdges(t *testing.T) {
	requireAmd64(t)
	pairs := [][2]float64{
		{5e-324, 1e300}, {1e-300, 1e300}, {1e-170, 1e170}, {1e-300, 3},
		{1e300, 1e-300}, {1e300, 5e-324}, {1e170, 1e-170}, {math.MaxFloat64, 0.5},
		{0.66, 1}, {2.41421356237309504880, 1}, {1, 1}, {3, 3},
	}
	for _, pq := range pairs {
		for _, d := range []int{-2, -1, 0, 1, 2} {
			y := nudge(pq[0], d)
			for _, sy := range []float64{1, -1} {
				for _, sx := range []float64{1, -1} {
					checkAtan2(t, sy*y, sx*pq[1])
					checkAtan2(t, sx*pq[1], sy*y)
				}
			}
		}
	}
}

// randomArg draws an input from a mix of scales: phases, the
// simulator's passband phases, values near the reduction threshold,
// huge values and tiny ones.
func randomArg(rng *rand.Rand) float64 {
	switch rng.Intn(6) {
	case 0:
		return rng.NormFloat64() * 4
	case 1:
		return (rng.Float64()*2 - 1) * 3000
	case 2:
		return rng.NormFloat64() * reduceThreshold
	case 3:
		return math.Ldexp(rng.Float64()*2-1, rng.Intn(2100)-1074)
	case 4:
		return rng.NormFloat64() * 1e-3
	}
	return math.Float64frombits(rng.Uint64())
}

// TestPortsMatchStdRandom compares the ports with std on random inputs.
func TestPortsMatchStdRandom(t *testing.T) {
	requireAmd64(t)
	rng := rand.New(rand.NewSource(1))
	n := 200000
	if testing.Short() {
		n = 20000
	}
	for i := 0; i < n; i++ {
		a, b := randomArg(rng), randomArg(rng)
		checkSincos(t, a)
		checkAtan2(t, a, b)
		checkHypot(t, a, b)
	}
}

// FuzzPortsMatchStd compares the ports with std on fuzzed inputs.
func FuzzPortsMatchStd(f *testing.F) {
	for _, v := range []float64{0, 1, math.Pi / 4, reduceThreshold, 1e300, 5e-324} {
		f.Add(v, -v)
	}
	f.Fuzz(func(t *testing.T, a, b float64) {
		requireAmd64(t)
		checkSincos(t, a)
		checkSincos(t, b)
		checkAtan2(t, a, b)
		checkHypot(t, a, b)
	})
}
