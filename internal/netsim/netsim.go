// Package netsim reproduces the §12.3 network-impact experiments: an
// access point serving a long-running flow to client-1 goes off-channel
// for one Chronos band sweep when client-2 requests localization, and we
// observe what the absence does to a TCP flow and to a buffered video
// stream (Fig. 9b and 9c).
//
// The flows are modeled at the fluid level on the mac virtual clock: TCP
// as an AIMD congestion window over a fixed RTT, video as a constant-
// bit-rate stream feeding a playout buffer. That level of detail is all
// the figures measure — bytes over time around a service gap.
package netsim

import (
	"math/rand"
	"time"
)

// The §12.3 TCP flow: an AIMD window over an 802.11n link.
const (
	tcpLinkRate   float64 = 24e6                  // bottleneck rate in bits/s (802.11n MCS)
	tcpRTT                = 15 * time.Millisecond // round-trip time
	tcpSegBytes           = 1448                  // segment size in bytes
	tcpTick               = 10 * time.Millisecond // sampling resolution
	tcpWindowInit float64 = 4                     // initial cwnd in segments
)

// Sample is one point of a time series.
type Sample struct {
	At    time.Duration
	Value float64
}

// Outage is a service interruption: the AP is off-channel in [Start,
// Start+Duration).
type Outage struct {
	Start    time.Duration
	Duration time.Duration
}

func inOutage(t time.Duration, outages []Outage) bool {
	for _, o := range outages {
		if t >= o.Start && t < o.Start+o.Duration {
			return true
		}
	}
	return false
}

// TCPTrace simulates an AIMD TCP flow for total duration with the given
// outages and returns throughput samples averaged over windows of
// `window` (Fig. 9c uses 1 s windows). rng adds small service jitter so
// traces look like measurements rather than staircases.
func TCPTrace(rng *rand.Rand, total, window time.Duration, outages []Outage) []Sample {
	// cwnd in segments; capacity in segments per RTT.
	rtt, tick := tcpRTT.Seconds(), tcpTick.Seconds()
	capacity := tcpLinkRate * rtt / float64(tcpSegBytes*8)
	cwnd := tcpWindowInit

	var samples []Sample
	var winBytes float64
	winStart := time.Duration(0)
	outageNow := false

	for t := time.Duration(0); t < total; t += tcpTick {
		wasOutage := outageNow
		outageNow = inOutage(t, outages)
		switch {
		case outageNow:
			// Off-channel: nothing delivered. (Bytes this tick: 0.)
		case wasOutage && !outageNow:
			// Coming back: the gap looks like loss — multiplicative
			// decrease once, then resume.
			cwnd /= 2
			if cwnd < 1 {
				cwnd = 1
			}
			fallthrough
		default:
			// Deliver cwnd segments per RTT, capped by link rate.
			rate := cwnd / rtt * float64(tcpSegBytes*8) // bits/s
			if rate > tcpLinkRate {
				rate = tcpLinkRate
			}
			jitter := 1.0
			if rng != nil {
				jitter = 1 + rng.NormFloat64()*0.01
			}
			winBytes += rate * tick / 8 * jitter
			// Additive increase up to capacity; drop back on overflow
			// (buffer loss), the classic sawtooth.
			cwnd += tick / rtt
			if cwnd > capacity*1.1 {
				cwnd = capacity * 0.55
			}
		}

		if t-winStart+tcpTick >= window {
			elapsed := (t - winStart + tcpTick).Seconds()
			samples = append(samples, Sample{At: t + tcpTick, Value: winBytes * 8 / elapsed})
			winBytes = 0
			winStart = t + tcpTick
		}
	}
	return samples
}

// The CBR video stream of Fig. 9b.
const (
	videoBitRate      float64 = 4e6                   // playback rate in bits/s
	videoDownloadRate float64 = 6e6                   // network download rate in bits/s
	videoPrebuffer            = time.Second           // startup buffering before playback
	videoTick                 = 20 * time.Millisecond // sampling resolution
)

// VideoTrace is the Fig. 9b result: cumulative downloaded and played
// bytes over time, plus stall accounting.
type VideoTrace struct {
	Downloaded []Sample // cumulative bytes fetched
	Played     []Sample // cumulative bytes consumed by the decoder
	Stalls     int      // playback interruptions (0 in the paper's trace)
	StallTime  time.Duration
}

// Video simulates a buffered CBR stream for total duration with outages.
func Video(total time.Duration, outages []Outage) *VideoTrace {
	tick := videoTick.Seconds()
	tr := &VideoTrace{}
	var downloaded, played float64 // bytes
	playing := false
	stalled := false

	for t := time.Duration(0); t < total; t += videoTick {
		if !inOutage(t, outages) {
			// The client downloads only while it is behind a modest
			// buffer target (streaming apps cap their buffer).
			if downloaded-played < videoBitRate*4/8 { // ≤ 4 s of media buffered
				downloaded += videoDownloadRate * tick / 8
			}
		}
		if !playing && t >= videoPrebuffer {
			playing = true
		}
		if playing {
			need := videoBitRate * tick / 8
			if downloaded-played >= need {
				played += need
				if stalled {
					stalled = false
				}
			} else {
				// Buffer underrun: the user sees a stall.
				if !stalled {
					tr.Stalls++
					stalled = true
				}
				tr.StallTime += videoTick
			}
		}
		tr.Downloaded = append(tr.Downloaded, Sample{At: t, Value: downloaded})
		tr.Played = append(tr.Played, Sample{At: t, Value: played})
	}
	return tr
}

// ThroughputDipPercent computes the Fig. 9c headline number: the relative
// throughput drop (percent) of the sample window containing the outage
// versus the median of the windows before it.
func ThroughputDipPercent(samples []Sample, outage Outage) float64 {
	var before []float64
	dipValue := -1.0
	for _, s := range samples {
		switch {
		case s.At <= outage.Start:
			before = append(before, s.Value)
		case dipValue < 0:
			dipValue = s.Value
		}
	}
	if len(before) == 0 || dipValue < 0 {
		return 0
	}
	// Median of the pre-outage windows.
	med := medianOf(before)
	if med == 0 {
		return 0
	}
	return (med - dipValue) / med * 100
}

func medianOf(xs []float64) float64 {
	cp := append([]float64(nil), xs...)
	for i := 1; i < len(cp); i++ {
		for j := i; j > 0 && cp[j] < cp[j-1]; j-- {
			cp[j], cp[j-1] = cp[j-1], cp[j]
		}
	}
	if n := len(cp); n%2 == 1 {
		return cp[n/2]
	} else {
		return (cp[n/2-1] + cp[n/2]) / 2
	}
}
