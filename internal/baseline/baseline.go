// Package baseline models the packet-detection delay that the paper's
// time-of-arrival baseline suffers (§5): a per-packet delay drawn from
// the Fig. 7c statistics, and the error it leaves in an uncompensated
// time-of-arrival measurement. The delay ablation (exp.AblationDelay)
// sets that error beside Chronos's zero-subcarrier interpolation.
package baseline

import "math/rand"

// DelayModel abstracts the packet-detection delay distribution so the
// baseline shares the csi radio's statistics without importing it.
type DelayModel struct {
	Med   float64 // median detection delay (s)
	Sigma float64 // spread (s)
}

// DefaultDelayModel matches the Fig. 7c measurement: median 177 ns,
// σ 24.76 ns.
func DefaultDelayModel() DelayModel { return DelayModel{Med: 177e-9, Sigma: 24.76e-9} }

// Draw samples one detection delay.
func (d DelayModel) Draw(rng *rand.Rand) float64 {
	v := d.Med + rng.NormFloat64()*d.Sigma
	if rng.Float64() < 0.1 {
		v += rng.Float64() * 2 * d.Sigma
	}
	if v < 10e-9 {
		v = 10e-9
	}
	return v
}

// Mean returns the approximate mean of the model (median plus the skew
// correction of the 10% heavy shoulder).
func (d DelayModel) Mean() float64 { return d.Med + 0.1*d.Sigma }

// ToAError returns the error (seconds) of an uncompensated time-of-arrival
// measurement against the true time of flight: the per-packet detection
// delay variance leaks straight into the estimate even after subtracting
// the mean delay. This is why §5 exists.
func ToAError(rng *rand.Rand, model DelayModel) float64 {
	return model.Draw(rng) - model.Mean()
}
