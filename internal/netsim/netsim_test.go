package netsim

import (
	"math/rand"
	"testing"
	"time"
)

func TestTCPTraceReachesLinkRate(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	samples := TCPTrace(rng, 10*time.Second, time.Second, nil)
	if len(samples) != 10 {
		t.Fatalf("samples = %d", len(samples))
	}
	// After slow ramp, throughput should hover near the link rate.
	last := samples[len(samples)-1].Value
	if last < 0.6*24e6 || last > 1.05*24e6 {
		t.Errorf("steady throughput = %.1f Mbit/s", last/1e6)
	}
}

func TestTCPTraceOutageDip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	outage := Outage{Start: 6 * time.Second, Duration: 84 * time.Millisecond}
	samples := TCPTrace(rng, 15*time.Second, time.Second, []Outage{outage})
	dip := ThroughputDipPercent(samples, outage)
	// Fig. 9c: ≈6.5% dip for an 84 ms absence in a 1 s window.
	if dip < 2 || dip > 20 {
		t.Errorf("dip = %.1f%%, want single-digit-ish", dip)
	}
	// Throughput must recover after the outage window.
	last := samples[len(samples)-1].Value
	if last < 0.6*24e6 {
		t.Errorf("no recovery: %.1f Mbit/s", last/1e6)
	}
}

func TestTCPTraceLongerOutageBiggerDip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	short := Outage{Start: 6 * time.Second, Duration: 84 * time.Millisecond}
	long := Outage{Start: 6 * time.Second, Duration: 500 * time.Millisecond}
	dipShort := ThroughputDipPercent(TCPTrace(rng, 12*time.Second, time.Second, []Outage{short}), short)
	dipLong := ThroughputDipPercent(TCPTrace(rng, 12*time.Second, time.Second, []Outage{long}), long)
	if dipLong <= dipShort {
		t.Errorf("500 ms dip (%.1f%%) not bigger than 84 ms dip (%.1f%%)", dipLong, dipShort)
	}
}

func TestTCPTraceNoRngDeterministic(t *testing.T) {
	a := TCPTrace(nil, 5*time.Second, time.Second, nil)
	b := TCPTrace(nil, 5*time.Second, time.Second, nil)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("nil-rng traces differ")
		}
	}
}

func TestVideoNoStallWithSweepOutage(t *testing.T) {
	// Fig. 9b: an 84 ms localization outage must not stall playback —
	// the playout buffer absorbs it.
	outage := Outage{Start: 6 * time.Second, Duration: 84 * time.Millisecond}
	tr := Video(12*time.Second, []Outage{outage})
	if tr.Stalls != 0 {
		t.Errorf("stalls = %d, want 0", tr.Stalls)
	}
	// Downloaded stays ahead of played throughout.
	for i := range tr.Downloaded {
		if tr.Downloaded[i].Value < tr.Played[i].Value-1 {
			t.Fatalf("played ahead of downloaded at %v", tr.Downloaded[i].At)
		}
	}
}

func TestVideoDownloadPausesDuringOutage(t *testing.T) {
	outage := Outage{Start: 6 * time.Second, Duration: 500 * time.Millisecond}
	tr := Video(10*time.Second, []Outage{outage})
	var before, during float64
	for i := 1; i < len(tr.Downloaded); i++ {
		s := tr.Downloaded[i]
		delta := s.Value - tr.Downloaded[i-1].Value
		if s.At > outage.Start && s.At < outage.Start+outage.Duration {
			during += delta
		} else if s.At > 5*time.Second && s.At <= outage.Start {
			before += delta
		}
	}
	if during != 0 {
		t.Errorf("bytes downloaded during outage: %v", during)
	}
	if before == 0 {
		t.Error("no bytes downloaded before outage")
	}
}

func TestVideoHugeOutageStalls(t *testing.T) {
	// An outage longer than the playout buffer must eventually stall —
	// the §10 caveat about frequent localization requests.
	outage := Outage{Start: 6 * time.Second, Duration: 6 * time.Second}
	tr := Video(15*time.Second, []Outage{outage})
	if tr.Stalls == 0 {
		t.Error("6 s outage did not stall playback")
	}
	if tr.StallTime == 0 {
		t.Error("stall time not accounted")
	}
}

func TestVideoPrebufferDelaysPlayback(t *testing.T) {
	// Playback starts at the 1 s prebuffer, not a tick earlier.
	tr := Video(5*time.Second, nil)
	for _, s := range tr.Played {
		if s.At < time.Second && s.Value > 0 {
			t.Fatalf("playback started at %v, before prebuffer", s.At)
		}
		if s.At == time.Second && s.Value == 0 {
			t.Fatal("playback did not start at the 1 s prebuffer")
		}
	}
	last := tr.Played[len(tr.Played)-1]
	if last.Value == 0 {
		t.Error("playback never started")
	}
}

func TestThroughputDipEdgeCases(t *testing.T) {
	if got := ThroughputDipPercent(nil, Outage{}); got != 0 {
		t.Errorf("empty samples dip = %v", got)
	}
	s := []Sample{{At: time.Second, Value: 10}}
	if got := ThroughputDipPercent(s, Outage{Start: 2 * time.Second}); got != 0 {
		t.Errorf("no post-outage sample dip = %v", got)
	}
}

func TestMedianOfHelper(t *testing.T) {
	if got := medianOf([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v", got)
	}
	if got := medianOf([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
}
