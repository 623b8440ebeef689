// Package stats provides the descriptive statistics the Chronos evaluation
// harness reports: percentiles, means, RMSE, and running moments. All
// functions are deterministic and allocation-light so they can run inside
// benchmarks.
package stats

import (
	"math"
	"sort"
)

// Median returns the median of xs, or NaN for an empty slice. The input is
// not modified.
func Median(xs []float64) float64 { return Percentile(xs, 50) }

// Percentile returns the p-th percentile (0..100) of xs using linear
// interpolation between order statistics, or NaN for empty input.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return percentileSorted(sorted, p)
}

func percentileSorted(sorted []float64, p float64) float64 {
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo] + frac*(sorted[hi]-sorted[lo])
}

// Mean returns the arithmetic mean, or NaN for empty input.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// StdDev returns the sample standard deviation (n−1 denominator), or NaN
// for fewer than two samples.
func StdDev(xs []float64) float64 {
	if len(xs) < 2 {
		return math.NaN()
	}
	m := Mean(xs)
	var ss float64
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return math.Sqrt(ss / float64(len(xs)-1))
}

// RMSE returns the root-mean-square of xs (typically a slice of errors),
// or NaN for empty input.
func RMSE(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var ss float64
	for _, x := range xs {
		ss += x * x
	}
	return math.Sqrt(ss / float64(len(xs)))
}

// Running accumulates streaming mean/variance via Welford's algorithm.
type Running struct {
	n    int
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add records one observation.
func (r *Running) Add(x float64) {
	r.n++
	if r.n == 1 {
		r.min, r.max = x, x
	} else {
		if x < r.min {
			r.min = x
		}
		if x > r.max {
			r.max = x
		}
	}
	d := x - r.mean
	r.mean += d / float64(r.n)
	r.m2 += d * (x - r.mean)
}

// N returns the number of observations.
func (r *Running) N() int { return r.n }

// Mean returns the running mean (NaN when empty).
func (r *Running) Mean() float64 {
	if r.n == 0 {
		return math.NaN()
	}
	return r.mean
}

// StdDev returns the running sample standard deviation (NaN below 2 samples).
func (r *Running) StdDev() float64 {
	if r.n < 2 {
		return math.NaN()
	}
	return math.Sqrt(r.m2 / float64(r.n-1))
}

// Min and Max return the observed extrema (NaN when empty).
func (r *Running) Min() float64 {
	if r.n == 0 {
		return math.NaN()
	}
	return r.min
}

// Max returns the largest observation (NaN when empty).
func (r *Running) Max() float64 {
	if r.n == 0 {
		return math.NaN()
	}
	return r.max
}
