package dsp

import "math"

// Peak is a local maximum of a multipath profile: a propagation delay (the
// x-coordinate of the profile grid) and its power.
type Peak struct {
	Index int     // grid index of the maximum
	X     float64 // refined x position (e.g. delay in seconds)
	Power float64 // refined magnitude at the peak
}

// FindPeaks locates local maxima of mag whose height is at least
// threshold·max(mag). xs carries the grid coordinate for each sample and
// must have len(mag). Maxima are refined with three-point parabolic
// interpolation. Results are ordered by ascending x.
//
// Chronos identifies the direct path as the first (smallest-delay)
// dominant peak of the inverse-NDFT profile, so callers typically take
// peaks[0].
func FindPeaks(xs, mag []float64, threshold float64) []Peak {
	return AppendPeaks(nil, xs, mag, threshold)
}

// AppendPeaks is FindPeaks appending to dst, which it returns: a caller
// that scans profile after profile reuses one slice. No two peaks are
// adjacent samples, so at most (len(mag)+1)/2 are appended.
func AppendPeaks(dst []Peak, xs, mag []float64, threshold float64) []Peak {
	n := len(mag)
	if n == 0 || len(xs) != n {
		return dst
	}
	maxV := 0.0
	for _, v := range mag {
		if v > maxV {
			maxV = v
		}
	}
	if maxV == 0 {
		return dst
	}
	floor := threshold * maxV

	peaks := dst
	for i := 0; i < n; i++ {
		v := mag[i]
		if v < floor {
			continue
		}
		left := math.Inf(-1)
		if i > 0 {
			left = mag[i-1]
		}
		right := math.Inf(-1)
		if i < n-1 {
			right = mag[i+1]
		}
		// Use >= on the left so plateaus report their first sample only.
		if v > left && v >= right {
			p := Peak{Index: i, X: xs[i], Power: v}
			if i > 0 && i < n-1 {
				p.X, p.Power = refineParabolic(xs, mag, i)
			}
			peaks = append(peaks, p)
		}
	}
	return peaks
}

// refineParabolic fits a parabola through (i-1, i, i+1) and returns the
// vertex position and height. The grid is assumed locally uniform.
func refineParabolic(xs, mag []float64, i int) (x, y float64) {
	y0, y1, y2 := mag[i-1], mag[i], mag[i+1]
	denom := y0 - 2*y1 + y2
	if denom == 0 {
		return xs[i], y1
	}
	delta := 0.5 * (y0 - y2) / denom
	if delta > 0.5 {
		delta = 0.5
	} else if delta < -0.5 {
		delta = -0.5
	}
	step := xs[i] - xs[i-1]
	if i < len(xs)-1 && delta > 0 {
		step = xs[i+1] - xs[i]
	}
	return xs[i] + float64(delta*step), y1 - float64(0.25*(y0-y2)*delta)
}

// StrongestPeak returns the peak of greatest refined power, the first of
// equals, or false when there is none. Over a FindPeaks scan at
// threshold 0 it is the profile's global maximum.
func StrongestPeak(peaks []Peak) (Peak, bool) {
	if len(peaks) == 0 {
		return Peak{}, false
	}
	best := peaks[0]
	for _, p := range peaks[1:] {
		if p.Power > best.Power {
			best = p
		}
	}
	return best, true
}
