package detmath

// The batch forms run the scalar ports over planar slices. On amd64 with
// AVX2 (and without the ndft_noasm build tag) they take four elements
// per vector: each lane runs its port's operation sequence with the
// branches turned into blends, so it returns the port's bits. A kernel
// handles its input domain only and stops before the first quad with a
// lane outside it; that quad runs the scalar port, and the kernel
// resumes after it. The last len mod 4 elements are one masked quad,
// whose masked-off lanes neither read, write nor leave the domain.
// Everywhere else the batch forms are loops over the ports.

// hasAVX2 reports whether this build and CPU run the AVX2 kernels,
// probed once at init.
var hasAVX2 = detectAVX2()

// useAVX2 selects the kernels. Tests clear it to force the scalar ports;
// it is never set where hasAVX2 is false.
var useAVX2 = hasAVX2

// AVX2 reports whether the CPU and the build support the AVX2 kernels:
// amd64 with AVX2 and the OS-enabled ymm state, and no ndft_noasm build
// tag. internal/ndft picks its solver kernel tier from it too.
func AVX2() bool { return hasAVX2 }

// Atan2Batch stores Atan2(y[i], x[i]) into dst[i] for every i <
// len(dst). dst may alias y or x.
func Atan2Batch(dst, y, x []float64) {
	n := len(dst)
	y, x = y[:n], x[:n]
	i := 0
	for useAVX2 && i < n {
		if i += kernAtan2(dst[i:], y[i:], x[i:]); i < n {
			e := min(i+4, n)
			atan2Ports(dst[i:e], y[i:e], x[i:e])
			i = e
		}
	}
	atan2Ports(dst[i:], y[i:], x[i:])
}

func atan2Ports(dst, y, x []float64) {
	y, x = y[:len(dst)], x[:len(dst)]
	for i := range dst {
		dst[i] = Atan2(y[i], x[i])
	}
}

// SincosBatch stores Sincos(x[i]) into sin[i] and cos[i] for every i <
// len(x). sin or cos may alias x.
func SincosBatch(sin, cos, x []float64) {
	n := len(x)
	sin, cos = sin[:n], cos[:n]
	i := 0
	for useAVX2 && i < n {
		if i += kernSincos(sin[i:], cos[i:], x[i:]); i < n {
			e := min(i+4, n)
			sincosPorts(sin[i:e], cos[i:e], x[i:e])
			i = e
		}
	}
	sincosPorts(sin[i:], cos[i:], x[i:])
}

func sincosPorts(sin, cos, x []float64) {
	sin, cos = sin[:len(x)], cos[:len(x)]
	for i, v := range x {
		sin[i], cos[i] = Sincos(v)
	}
}

// HypotBatch stores Hypot(p[i], q[i]) into dst[i] for every i <
// len(dst). dst may alias p or q.
func HypotBatch(dst, p, q []float64) {
	n := len(dst)
	p, q = p[:n], q[:n]
	i := 0
	for useAVX2 && i < n {
		if i += kernHypot(dst[i:], p[i:], q[i:]); i < n {
			e := min(i+4, n)
			hypotPorts(dst[i:e], p[i:e], q[i:e])
			i = e
		}
	}
	hypotPorts(dst[i:], p[i:], q[i:])
}

func hypotPorts(dst, p, q []float64) {
	p, q = p[:len(dst)], q[:len(dst)]
	for i := range dst {
		dst[i] = Hypot(p[i], q[i])
	}
}
