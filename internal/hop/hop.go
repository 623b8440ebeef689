// Package hop implements the §4 channel-hopping protocol on the mac
// virtual-time substrate. The transmitter drives the sweep: before
// leaving a band it announces the next band in a control packet; the
// receiver acknowledges and retunes; once the acknowledgment arrives the
// transmitter retunes too. Lost announcements or acknowledgments are
// retransmitted after a timeout, and both sides fall back to the default
// band if a band stays silent too long — the paper's fail-safe.
//
// RunSchedule is the one driver of whole sweeps: devices × sweeps over
// all 35 U.S. bands through the anchor's single radio. One device and
// one sweep is the Fig. 9a sweep (median ≈84 ms); more devices are the
// capacity campaign. The streaming session (internal/track) drives a
// Hopper band by band itself, on the same timing.
package hop

import (
	"math/rand"
	"time"

	"chronos/internal/mac"
)

// Protocol timing. It reproduces the paper's per-band budget: 35 bands
// in a median of ≈84 ms.
const (
	// Dwell is the time spent exchanging CSI packets on each band before
	// the hop announcement: a handful of packet/ACK pairs at microsecond
	// airtimes.
	Dwell = 1100 * time.Microsecond
	// switchTime is the radio retune latency after deciding to hop, the
	// dominant per-band cost on the Intel 5300.
	switchTime = 1150 * time.Microsecond
	// switchJitter is the uniform random spread added to each retune.
	switchJitter = 200 * time.Microsecond
	// ackTimeout is the announce retransmission timeout.
	ackTimeout = 300 * time.Microsecond
	// maxRetries bounds announce retransmissions before the fail-safe
	// aborts the band.
	maxRetries = 8
	// failSafe is the silence window after which both radios revert to
	// the default band.
	failSafe = 20 * time.Millisecond
	// lossProb is the control-frame loss probability.
	lossProb = 0.02
	// latency is the one-way control-frame delay: DIFS + airtime +
	// kernel path, per §11's hrtimer implementation.
	latency = 60 * time.Microsecond
)

// Hopper drives the transmitter-side hop state machine for one device
// pair on an externally owned simulator, so several pairs can interleave
// their hops on one virtual timeline (RunSchedule) and a streaming
// session can hop between its own band captures.
//
// A Hopper is bound to its simulator and RNG and is not safe for
// concurrent use; interleaving is achieved by event ordering on the
// shared Sim, never by goroutines.
type Hopper struct {
	Sim *mac.Sim
	Rng *rand.Rand
	// Link carries the announce and ack frames.
	Link *mac.Link

	// Counters accumulate across every Hop on this pair.
	Announces  int
	FailSafes  int
	RevertTime time.Duration
}

// NewHopper builds a hop driver for one device pair on sim.
func NewHopper(sim *mac.Sim, rng *rand.Rand) *Hopper {
	return &Hopper{
		Sim: sim, Rng: rng,
		Link: &mac.Link{Sim: sim, Latency: latency, Rng: rng, LossProb: lossProb},
	}
}

// switchDelay draws one radio retune time (base switch time plus
// jitter). The anchor's retune between devices (RunSchedule) draws from
// the same model.
func (h *Hopper) switchDelay() time.Duration {
	return switchTime + time.Duration(h.Rng.Int63n(int64(switchJitter)+1))
}

// hopState is the Hop-scoped state shared across announce rounds: an ack
// that lands after its round already timed out (ackTimeout shorter than
// the ack round trip) must still complete the hop exactly once, silence
// every outstanding retry timer, and call off a pending fail-safe revert.
type hopState struct {
	acked  bool
	revert *mac.Timer // pending fail-safe revert, nil when none
}

// Hop announces the next band to the receiver, retrying lost control
// frames and applying the fail-safe on retry exhaustion. done runs
// exactly once, at the virtual instant both radios are on the new band.
func (h *Hopper) Hop(done func()) { h.hop(0, &hopState{}, done) }

// hop runs one announce round.
func (h *Hopper) hop(retries int, st *hopState, done func()) {
	if retries > maxRetries {
		// Fail-safe: after a silent window both radios revert to the
		// default band (one retune) and the transmitter restarts the hop
		// announcement from there. Counters are charged when the revert
		// actually happens — a late in-flight ack cancels it.
		revert := failSafe + h.switchDelay()
		st.revert = h.Sim.Schedule(revert, func() {
			st.revert = nil
			h.FailSafes++
			h.RevertTime += revert
			obsFailSafes.Inc()
			obsRevertNs.Add(int64(revert))
			h.hop(0, st, done)
		})
		return
	}
	h.Announces++
	obsAnnounces.Inc()
	// Announce → receiver; receiver ACKs → transmitter.
	h.Link.Send(func() {
		h.Link.Send(func() {
			if st.acked {
				return
			}
			st.acked = true
			st.revert.Cancel()
			obsHops.Inc()
			obsRetries.Add(int64(retries))
			// Both sides retune; the slower radio gates band entry.
			h.Sim.Schedule(h.switchDelay(), done)
		})
	})
	// Retransmit on silence.
	h.Sim.Schedule(ackTimeout, func() {
		if !st.acked {
			h.hop(retries+1, st, done)
		}
	})
}
