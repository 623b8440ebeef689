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
// shared Sim, never by goroutines. It runs one hop at a time: call Hop
// again only once the previous hop's done has run.
type Hopper struct {
	Sim *mac.Sim
	Rng *rand.Rand
	// Link carries the announce and ack frames.
	Link *mac.Link

	// Counters accumulate across every Hop on this pair.
	Announces  int
	FailSafes  int
	RevertTime time.Duration

	// The hop in flight, shared by its announce rounds: an ack that lands
	// after its round already timed out (ackTimeout shorter than the ack
	// round trip) must still complete the hop exactly once, silence every
	// outstanding retry timer, and call off a pending fail-safe revert.
	// hops numbers the hop; every frame and timer of the hop carries it
	// with the round's retry count (roundArg), so an event left over from
	// an earlier hop finds a later number and does nothing.
	hops     uint64
	acked    bool
	revert   mac.Timer     // pending fail-safe revert; stale once fired or canceled
	revertIn time.Duration // that revert's silence window plus retune
	done     func()

	// The protocol's event handlers, bound once so that a hop schedules
	// no closure: the receiver's announce handler, the transmitter's ack
	// and retry-timeout handlers, the fail-safe revert and the band
	// entry that runs done.
	onAnnounce, onAck, onTimeout, onRevert, onEnter func(uint64)
}

// NewHopper builds a hop driver for one device pair on sim.
func NewHopper(sim *mac.Sim, rng *rand.Rand) *Hopper {
	h := &Hopper{
		Sim: sim, Rng: rng,
		Link: &mac.Link{Sim: sim, Latency: latency, Rng: rng, LossProb: lossProb},
	}
	h.onAnnounce, h.onAck, h.onTimeout, h.onRevert, h.onEnter = h.announced, h.ackReceived, h.timedOut, h.reverted, h.entered
	return h
}

// switchDelay draws one radio retune time (base switch time plus
// jitter). The anchor's retune between devices (RunSchedule) draws from
// the same model.
func (h *Hopper) switchDelay() time.Duration {
	return switchTime + time.Duration(h.Rng.Int63n(int64(switchJitter)+1))
}

// roundBits is the width of the retry count in an event's argument, the
// hop number filling the bits above it; retries never exceed maxRetries.
const roundBits = 8

// roundArg packs the hop in flight and one round's retry count into an
// event argument.
func (h *Hopper) roundArg(retries uint64) uint64 { return h.hops<<roundBits | retries }

// current reports whether an event argument belongs to the hop in flight
// and that hop is not yet acked, and returns the round's retry count.
func (h *Hopper) current(arg uint64) (retries uint64, ok bool) {
	return arg & (1<<roundBits - 1), arg>>roundBits == h.hops && !h.acked
}

// Hop announces the next band to the receiver, retrying lost control
// frames and applying the fail-safe on retry exhaustion. done runs
// exactly once, at the virtual instant both radios are on the new band.
func (h *Hopper) Hop(done func()) {
	h.hops++
	h.acked, h.revert, h.done = false, mac.Timer{}, done
	h.announce(0)
}

// announce runs one announce round of the hop in flight.
func (h *Hopper) announce(retries uint64) {
	if retries > maxRetries {
		// Fail-safe: after a silent window both radios revert to the
		// default band (one retune) and the transmitter restarts the hop
		// announcement from there. Counters are charged when the revert
		// actually happens — a late in-flight ack cancels it.
		h.revertIn = failSafe + h.switchDelay()
		h.revert = h.Sim.Schedule(h.revertIn, h.onRevert, 0)
		return
	}
	h.Announces++
	obsAnnounces.Inc()
	// Announce → receiver; receiver ACKs → transmitter.
	arg := h.roundArg(retries)
	h.Link.Send(h.onAnnounce, arg)
	// Retransmit on silence.
	h.Sim.Schedule(ackTimeout, h.onTimeout, arg)
}

// announced is the receiver's side: it acknowledges every announce it
// hears, a superseded round's included.
func (h *Hopper) announced(arg uint64) { h.Link.Send(h.onAck, arg) }

// ackReceived completes the hop on its first ack.
func (h *Hopper) ackReceived(arg uint64) {
	retries, ok := h.current(arg)
	if !ok {
		return
	}
	h.acked = true
	h.revert.Cancel()
	obsHops.Inc()
	obsRetries.Add(int64(retries))
	// Both sides retune; the slower radio gates band entry.
	h.Sim.Schedule(h.switchDelay(), h.onEnter, 0)
}

// entered runs the hop's done once both radios are on the new band.
func (h *Hopper) entered(uint64) { h.done() }

// timedOut starts the next announce round when the round's ack has not
// arrived.
func (h *Hopper) timedOut(arg uint64) {
	if retries, ok := h.current(arg); ok {
		h.announce(retries + 1)
	}
}

// reverted charges a fail-safe revert and restarts the announcement.
func (h *Hopper) reverted(uint64) {
	h.FailSafes++
	h.RevertTime += h.revertIn
	obsFailSafes.Inc()
	obsRevertNs.Add(int64(h.revertIn))
	h.announce(0)
}
