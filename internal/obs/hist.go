package obs

import (
	"math"
	"sync/atomic"
	"time"
)

// Histogram geometry: positive values are bucketed by their binary
// exponent with histSub linear sub-buckets per octave, so a bucket's
// relative width is at most 1/histSub (12.5%) of its value — quantiles
// read from bucket midpoints land within one bucket width of the exact
// order statistic, the tolerance the correctness suite pins against
// stats.Percentile. Exponents span 2^histMinExp .. 2^histMaxExp, wide
// enough for nanosecond latencies (1 ns .. hours as float ns) and for
// dimensionless ratios (relative noise ~0.05);
// values outside land in the shared under/overflow edge buckets, and
// non-positive or NaN values land in the underflow bucket.
const (
	histSubBits = 3
	histSub     = 1 << histSubBits
	histMinExp  = -64
	histMaxExp  = 64
	// histBuckets = underflow + (octaves × sub-buckets) + overflow.
	histBuckets = (histMaxExp-histMinExp)*histSub + 2
)

// bucketOf maps a value to its bucket index.
func bucketOf(v float64) int {
	if !(v > 0) { // catches 0, negatives, and NaN
		return 0
	}
	bits := math.Float64bits(v)
	exp := int(bits>>52&0x7ff) - 1023
	if exp < histMinExp {
		return 0
	}
	if exp >= histMaxExp {
		return histBuckets - 1
	}
	sub := int(bits >> (52 - histSubBits) & (histSub - 1))
	return 1 + (exp-histMinExp)*histSub + sub
}

// bucketBounds returns bucket i's [lo, hi) value range. The edge
// buckets extend to 0 and +Inf.
func bucketBounds(i int) (lo, hi float64) {
	if i <= 0 {
		return 0, math.Ldexp(1, histMinExp)
	}
	if i >= histBuckets-1 {
		return math.Ldexp(1, histMaxExp), math.Inf(1)
	}
	oct, sub := (i-1)/histSub, (i-1)%histSub
	scale := math.Ldexp(1, histMinExp+oct)
	lo = scale * (1 + float64(sub)/histSub)
	if sub == histSub-1 {
		hi = scale * 2
	} else {
		hi = scale * (1 + float64(sub+1)/histSub)
	}
	return lo, hi
}

// Hist is a log-bucketed histogram safe for concurrent recording:
// Observe is one atomic bucket increment plus a sharded sum update —
// no locks, no allocation. Count is always exactly the sum of the
// bucket counts (the invariant the race hammer test pins), because the
// bucket increment IS the count.
type Hist struct {
	name    string
	buckets [histBuckets]atomic.Int64
	sums    [shards]fcell
	// minBits/maxBits track observed extremes as raw float bits —
	// non-negative floats compare like their bit patterns, so a CAS
	// watermark works without a lock. minBits starts at histMinSentinel
	// (a NaN pattern no finite observation produces).
	minBits atomic.Uint64
	maxBits atomic.Uint64
}

// histMinSentinel marks "no observation yet" in minBits: all-ones is a
// NaN bit pattern, and NaN never reaches the watermark.
const histMinSentinel = ^uint64(0)

// Observe records one value. No-op (one atomic load) when disabled.
func (h *Hist) Observe(v float64) {
	if !enabled.Load() {
		return
	}
	h.buckets[bucketOf(v)].Add(1)
	h.sums[shardIdx()].add(v)
	h.extremes(v)
}

// Since records the elapsed span since a Tick() start, in nanoseconds.
// A start of 0 means the span was opened while the layer was disabled
// (Tick returned 0); nothing is recorded, so callers need no gate.
func (h *Hist) Since(start int64) {
	if start <= 0 || !enabled.Load() {
		return
	}
	h.Observe(float64(int64(time.Since(base)) - start))
}

// extremes folds v into the min/max watermarks with CAS loops. Only
// finite non-negative values participate (matching the bucket domain).
func (h *Hist) extremes(v float64) {
	if !(v >= 0) || math.IsInf(v, 1) {
		return
	}
	bits := math.Float64bits(v)
	for {
		old := h.minBits.Load()
		if bits >= old {
			break
		}
		if h.minBits.CompareAndSwap(old, bits) {
			break
		}
	}
	for {
		old := h.maxBits.Load()
		if bits <= old {
			break
		}
		if h.maxBits.CompareAndSwap(old, bits) {
			break
		}
	}
}

// Name returns the histogram's registered name.
func (h *Hist) Name() string { return h.name }

// Count returns the total number of observations (the exact sum of the
// bucket counts).
func (h *Hist) Count() int64 {
	var n int64
	for i := range h.buckets {
		n += h.buckets[i].Load()
	}
	return n
}

// Sum returns the sum of observed values.
func (h *Hist) Sum() float64 {
	var s float64
	for i := range h.sums {
		s += math.Float64frombits(h.sums[i].v.Load())
	}
	return s
}

// Quantile returns the p-quantile (0 ≤ p ≤ 1) estimated at the midpoint
// of the bucket holding the p-th observation — within one bucket width
// (≤12.5% relative) of the exact order statistic. Returns 0 on an empty
// histogram. The rank convention matches stats.Percentile's linear
// interpolation target: rank = p·(n−1) counted from the smallest.
func (h *Hist) Quantile(p float64) float64 {
	n := h.Count()
	if n == 0 {
		return 0
	}
	rank := p * float64(n-1)
	if rank < 0 {
		rank = 0
	}
	var seen float64
	for i := range h.buckets {
		c := h.buckets[i].Load()
		if c == 0 {
			continue
		}
		seen += float64(c)
		if rank < seen {
			lo, hi := bucketBounds(i)
			if math.IsInf(hi, 1) {
				return lo
			}
			return (lo + hi) / 2
		}
	}
	// Numerically unreachable (rank ≤ n−1 < total); return the top
	// occupied bucket's midpoint for safety.
	for i := histBuckets - 1; i >= 0; i-- {
		if h.buckets[i].Load() > 0 {
			lo, hi := bucketBounds(i)
			if math.IsInf(hi, 1) {
				return lo
			}
			return (lo + hi) / 2
		}
	}
	return 0
}

func (h *Hist) reset() {
	for i := range h.buckets {
		h.buckets[i].Store(0)
	}
	for i := range h.sums {
		h.sums[i].v.Store(0)
	}
	h.minBits.Store(histMinSentinel)
	h.maxBits.Store(0)
}

// snapshot renders the histogram.
func (h *Hist) snapshot() HistSnapshot {
	s := HistSnapshot{Count: h.Count(), Sum: h.Sum()}
	if s.Count == 0 {
		return s
	}
	if bits := h.minBits.Load(); bits != histMinSentinel {
		s.Min = math.Float64frombits(bits)
		s.Max = math.Float64frombits(h.maxBits.Load())
	}
	s.P50 = h.Quantile(0.50)
	s.P95 = h.Quantile(0.95)
	s.P99 = h.Quantile(0.99)
	for i := range h.buckets {
		if c := h.buckets[i].Load(); c > 0 {
			lo, hi := bucketBounds(i)
			s.Buckets = append(s.Buckets, Bucket{Lo: lo, Hi: hi, Count: c})
		}
	}
	return s
}
