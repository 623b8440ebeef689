//go:build !amd64 || ndft_noasm

package detmath

// detectAVX2 reports no vector kernels: either the architecture is not
// amd64 or the ndft_noasm build tag turned the assembly off.
func detectAVX2() bool { return false }

// The kernel entry points are never reached without AVX2 (every batch
// form gates on useAVX2 first); the stubs keep the package compiling on
// any architecture.

func kernAtan2(dst, y, x []float64) int { panic("detmath: vector kernel called without AVX2") }

func kernSincos(sin, cos, x []float64) int { panic("detmath: vector kernel called without AVX2") }

func kernHypot(dst, p, q []float64) int { panic("detmath: vector kernel called without AVX2") }
