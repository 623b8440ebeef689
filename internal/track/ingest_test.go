package track

import (
	"math/rand"
	"testing"

	"chronos/internal/csi"
	"chronos/internal/sim"
)

// ingestPerPacket is StepIngest with per-packet capture: every pair is
// two Radio.Measure calls, forward then reverse, each rendering the
// channel for its own packet, into fresh pairs. It is the reference for
// the session's dwell rendering and skips the early fixes.
func ingestPerPacket(t *testing.T, s *Session) {
	t.Helper()
	s.acc.Reset()
	start := s.msim.Now()
	for bi, b := range s.bands {
		pos := s.targetAt(s.msim.Now())
		pl := sim.Placement{TX: s.anchor, RX: pos, NLOS: s.cfg.NLOS}
		s.link.Channel = s.office.Channel(pl, 5.5e9)
		s.link.SNRdB = sim.LinkSNR(0, pl.TrueDistance(), s.cfg.NLOS)
		step := s.hcfg.Dwell.Seconds() / float64(pairsPerBand+1)
		pairs := make([]csi.Pair, pairsPerBand)
		for pi := range pairs {
			at := s.msim.Now().Seconds() + float64(float64(pi+1)*step)
			opts := csi.MeasureOptions{SNRdB: s.link.SNRdB, Time: at, TX: s.link.TX}
			pairs[pi].Forward = s.link.RX.Measure(s.rng, s.link.Channel, b, opts)
			opts.Time, opts.TX = at+28e-6, s.link.RX
			pairs[pi].Reverse = s.link.TX.Measure(s.rng, s.link.Channel, b, opts)
		}
		s.msim.Run(s.msim.Now() + s.hcfg.Dwell)
		if err := s.acc.AddBand(b, pairs); err != nil {
			t.Fatal(err)
		}
		if bi+1 < len(s.bands) {
			s.hopper.Hop(func(retries, failsafes int) {})
			s.msim.RunAll()
		}
	}
	s.sweepStart = start
	s.ingested = true
	s.pendEst = nil
}

// TestIngestMatchesPerPacketMeasure pins the session's ingest, which
// renders each band dwell once and reuses its buffers, to per-packet
// Radio.Measure: two sessions from one seed, one stepped by StepIngest
// and one by ingestPerPacket, both solved and tracked by the session's
// own stages, report identical fix tables sweep after sweep.
func TestIngestMatchesPerPacketMeasure(t *testing.T) {
	office, est := sessionFixture()
	cfg := SessionConfig{Speed: 1.5, Sweeps: 3, WarmStart: true, VelocityTranslate: true}
	newSession := func() *Session {
		s, err := NewSession(rand.New(rand.NewSource(23)), office, est, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	dwell, perPacket := newSession(), newSession()
	for !dwell.Done() {
		if err := dwell.StepSweep(); err != nil {
			t.Fatal(err)
		}
		ingestPerPacket(t, perPacket)
		if _, err := perPacket.StepSolve(); err != nil {
			t.Fatal(err)
		}
		if err := perPacket.StepTrack(); err != nil {
			t.Fatal(err)
		}
		if got, want := fixTable(dwell.Result()), fixTable(perPacket.Result()); got != want {
			t.Fatalf("dwell ingest diverged from per-packet Measure:\n%s\nwant\n%s", got, want)
		}
	}
	if len(dwell.Result().Fixes) == 0 {
		t.Fatal("no fixes to compare")
	}
}
