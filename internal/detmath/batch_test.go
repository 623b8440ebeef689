package detmath

import (
	"math"
	"math/rand"
	"testing"
)

// eachPath runs fn on the scalar ports and, where the build and CPU
// have them, on the AVX2 kernels, restoring the process-wide choice on
// cleanup.
func eachPath(t *testing.T, fn func(t *testing.T)) {
	t.Helper()
	paths := []bool{false}
	if hasAVX2 {
		paths = append(paths, true)
	}
	for _, on := range paths {
		name := "scalar"
		if on {
			name = "avx2"
		}
		t.Run(name, func(t *testing.T) {
			prev := useAVX2
			useAVX2 = on
			t.Cleanup(func() { useAVX2 = prev })
			fn(t)
		})
	}
}

// canary marks the buffer slots outside a batch's range.
var canary = math.Float64frombits(0x7ff4dead0000beef)

// specials are inputs outside some kernel's domain, or on its edge.
var specials = []float64{
	0, math.Copysign(0, -1), 5e-324, -1e-310, math.NaN(), math.Inf(1), math.Inf(-1),
	math.MaxFloat64, -math.MaxFloat64, reduceThreshold, nudge(reduceThreshold, -1),
	-reduceThreshold, 1e300, satanLo, tan3pio8, math.Pi / 4,
}

// batchFunc is one batch form under test with its port.
type batchFunc struct {
	name string
	// run calls the batch form on the given windows; out2 is nil for the
	// single-output forms.
	run func(out1, out2, a, b []float64)
	// ref is the scalar port of element i.
	ref  func(a, b float64) (float64, float64)
	outs int
}

var batchFuncs = []batchFunc{
	{"Atan2", func(o1, _, a, b []float64) { Atan2Batch(o1, a, b) },
		func(a, b float64) (float64, float64) { return Atan2(a, b), 0 }, 1},
	{"Sincos", func(o1, o2, a, _ []float64) { SincosBatch(o1, o2, a) },
		func(a, _ float64) (float64, float64) { return Sincos(a) }, 2},
	{"Hypot", func(o1, _, a, b []float64) { HypotBatch(o1, a, b) },
		func(a, b float64) (float64, float64) { return Hypot(a, b), 0 }, 1},
}

// checkBatch runs bf on a[off:off+n], b[off:off+n] into output buffers
// of the same layout filled with canaries, and compares every element
// with the port and every canary with its value.
func checkBatch(t *testing.T, bf batchFunc, a, b []float64, off, n int) {
	t.Helper()
	size := len(a)
	o1, o2 := make([]float64, size), make([]float64, size)
	for i := range o1 {
		o1[i], o2[i] = canary, canary
	}
	var w2 []float64
	if bf.outs == 2 {
		w2 = o2[off : off+n]
	}
	bf.run(o1[off:off+n], w2, a[off:off+n], b[off:off+n])
	for i := 0; i < size; i++ {
		if i < off || i >= off+n {
			if !sameBits(o1[i], canary) || !sameBits(o2[i], canary) {
				t.Fatalf("%s n=%d off=%d: slot %d outside the batch overwritten", bf.name, n, off, i)
			}
			continue
		}
		w1, w2 := bf.ref(a[i], b[i])
		if !sameBits(o1[i], w1) || (bf.outs == 2 && !sameBits(o2[i], w2)) {
			t.Fatalf("%s n=%d off=%d elem %d (%v, %v): got %v, %v; port %v, %v",
				bf.name, n, off, i-off, a[i], b[i], o1[i], o2[i], w1, w2)
		}
	}
}

// batchArgs fills a and b for bf: phases and passband-scale angles for
// Sincos, channel-like components over many scales for Atan2 and Hypot.
func batchArgs(rng *rand.Rand, size int) (a, b []float64) {
	a, b = make([]float64, size), make([]float64, size)
	for i := range a {
		a[i], b[i] = randomArg(rng), randomArg(rng)
		if rng.Intn(4) == 0 {
			a[i], b[i] = rng.NormFloat64(), rng.NormFloat64()
		}
	}
	return a, b
}

// TestBatchMatchesPorts compares each batch form with its port at every
// length from 0 to 67 and offsets 0–3, with canaries on both sides.
func TestBatchMatchesPorts(t *testing.T) {
	eachPath(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(2))
		for _, bf := range batchFuncs {
			for n := 0; n <= 67; n++ {
				for off := 0; off < 4; off++ {
					a, b := batchArgs(rng, off+n+5)
					checkBatch(t, bf, a, b, off, n)
				}
			}
		}
	})
}

// TestBatchSpecialInEachLane puts each special value in every position
// of batches covering whole quads and every tail length, so a fallback
// quad sits first, in the middle, last and in the masked tail.
func TestBatchSpecialInEachLane(t *testing.T) {
	eachPath(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(3))
		for _, bf := range batchFuncs {
			for _, n := range []int{1, 2, 3, 4, 5, 7, 8, 9, 30} {
				for pos := 0; pos < n; pos++ {
					for _, s := range specials {
						a, b := batchArgs(rng, n+2)
						a[1+pos] = s
						checkBatch(t, bf, a, b, 1, n)
						a, b = batchArgs(rng, n+2)
						b[1+pos] = s
						checkBatch(t, bf, a, b, 1, n)
					}
				}
			}
		}
	})
}

// TestBatchInPlace runs each batch form with its output aliasing its
// first input.
func TestBatchInPlace(t *testing.T) {
	eachPath(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(4))
		a, b := batchArgs(rng, 37)
		want := make([]float64, len(a))
		wantC := make([]float64, len(a))
		for i := range a {
			want[i] = Atan2(a[i], b[i])
		}
		got := append([]float64(nil), a...)
		Atan2Batch(got, got, b)
		for i := range want {
			if !sameBits(got[i], want[i]) {
				t.Fatalf("Atan2Batch in place, elem %d: %v, want %v", i, got[i], want[i])
			}
			want[i], wantC[i] = Sincos(a[i])
		}
		got = append(got[:0], a...)
		cos := make([]float64, len(a))
		SincosBatch(got, cos, got)
		for i := range want {
			if !sameBits(got[i], want[i]) || !sameBits(cos[i], wantC[i]) {
				t.Fatalf("SincosBatch in place, elem %d: %v, %v, want %v, %v", i, got[i], cos[i], want[i], wantC[i])
			}
			want[i] = Hypot(a[i], b[i])
		}
		got = append(got[:0], a...)
		HypotBatch(got, got, b)
		for i := range want {
			if !sameBits(got[i], want[i]) {
				t.Fatalf("HypotBatch in place, elem %d: %v, want %v", i, got[i], want[i])
			}
		}
	})
}

// FuzzBatchMatchesPorts compares each batch form with its port on a
// random batch with two fuzzed values placed in it.
func FuzzBatchMatchesPorts(f *testing.F) {
	f.Add(int64(1), uint8(30), uint8(3), 0.0, math.Inf(1))
	f.Add(int64(2), uint8(7), uint8(6), 1e300, 5e-324)
	f.Add(int64(3), uint8(4), uint8(0), math.NaN(), float64(reduceThreshold))
	f.Fuzz(func(t *testing.T, seed int64, n, pos uint8, x, y float64) {
		size := int(n%68) + 1
		p := int(pos) % size
		eachPath(t, func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			for _, bf := range batchFuncs {
				a, b := batchArgs(rng, size+2)
				a[1+p], b[1+(size-1-p)] = x, y
				checkBatch(t, bf, a, b, 1, size)
			}
		})
	})
}

// BenchmarkBatch times each batch form on a 30-element batch, the
// reported subcarrier count, against a loop over the math package.
func BenchmarkBatch(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	const n = 30
	y, x, out, out2 := make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n)
	for i := range y {
		y[i], x[i] = rng.NormFloat64(), rng.NormFloat64()
	}
	b.Run("Atan2Batch", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			Atan2Batch(out, y, x)
		}
	})
	b.Run("Atan2Std", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for k := range out {
				out[k] = math.Atan2(y[k], x[k])
			}
		}
	})
	b.Run("SincosBatch", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			SincosBatch(out, out2, y)
		}
	})
	b.Run("SincosStd", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for k := range out {
				out[k], out2[k] = math.Sincos(y[k])
			}
		}
	})
	b.Run("HypotBatch", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			HypotBatch(out, y, x)
		}
	})
	b.Run("HypotStd", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for k := range out {
				out[k] = math.Hypot(y[k], x[k])
			}
		}
	})
}

// TestKernelsRunInDomain checks that each AVX2 kernel stores every
// element of in-domain batches itself, the masked tail included, and
// stops at the quad of an out-of-domain lane: a kernel that sent every
// quad to the scalar port would pass the equivalence tests above.
func TestKernelsRunInDomain(t *testing.T) {
	if !hasAVX2 {
		t.Skip("no AVX2 kernels in this build or on this CPU")
	}
	rng := rand.New(rand.NewSource(6))
	for n := 0; n <= 13; n++ {
		a, b := make([]float64, n), make([]float64, n)
		for i := range a {
			a[i], b[i] = rng.NormFloat64()+0.1, rng.NormFloat64()+0.1
		}
		out, out2 := make([]float64, n), make([]float64, n)
		if got := kernAtan2(out, a, b); got != n {
			t.Fatalf("kernAtan2 n=%d stored %d", n, got)
		}
		if got := kernSincos(out, out2, a); got != n {
			t.Fatalf("kernSincos n=%d stored %d", n, got)
		}
		if got := kernHypot(out, a, b); got != n {
			t.Fatalf("kernHypot n=%d stored %d", n, got)
		}
		for bad := 0; bad < n; bad++ {
			a2 := append([]float64(nil), a...)
			a2[bad] = math.Inf(1)
			want := bad &^ 3
			if got := kernAtan2(out, a2, b); got != want {
				t.Fatalf("kernAtan2 n=%d, Inf at %d: stored %d, want %d", n, bad, got, want)
			}
			if got := kernSincos(out, out2, a2); got != want {
				t.Fatalf("kernSincos n=%d, Inf at %d: stored %d, want %d", n, bad, got, want)
			}
			if got := kernHypot(out, a2, b); got != want {
				t.Fatalf("kernHypot n=%d, Inf at %d: stored %d, want %d", n, bad, got, want)
			}
		}
	}
}
