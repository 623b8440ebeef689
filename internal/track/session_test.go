package track

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"chronos/internal/hop"
	"chronos/internal/sim"
	"chronos/internal/stats"
	"chronos/internal/tof"
	"chronos/internal/wifi"
)

// sessionFixture builds the office and a cheap estimator config shared by
// the session tests: 5 GHz-only with a reduced iteration cap keeps a
// full-pipeline sweep fast while exercising every layer.
func sessionFixture() (*sim.Office, *tof.Estimator) {
	office := sim.NewOffice(rand.New(rand.NewSource(42)), sim.OfficeConfig{})
	est := tof.NewEstimator(tof.Config{Mode: tof.Bands5GHzOnly, MaxIter: 400})
	return office, est
}

// TestSessionStreamsFixes runs the full CSI → incremental estimator →
// Kalman pipeline over a walking target and checks the streamed output's
// shape: one fix per sweep, plausible ranges, finite errors.
func TestSessionStreamsFixes(t *testing.T) {
	office, est := sessionFixture()
	res, err := RunSession(rand.New(rand.NewSource(5)), office, est, SessionConfig{
		Speed: 0.8, Sweeps: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Fixes) == 0 {
		t.Fatal("session streamed no fixes")
	}
	if len(res.Fixes) > 4 {
		t.Fatalf("fixes = %d > sweeps", len(res.Fixes))
	}
	for i, f := range res.Fixes {
		if f.TrueRange <= 0 || f.TrueRange > 20 {
			t.Errorf("fix %d truth = %v m, out of office scale", i, f.TrueRange)
		}
		if f.Latency <= 0 || f.At < f.Latency {
			t.Errorf("fix %d has inconsistent timing: at=%v latency=%v", i, f.At, f.Latency)
		}
		if math.Abs(f.Range-f.TrueRange) > 10 {
			t.Errorf("fix %d raw range %v m vs truth %v m — pipeline broken", i, f.Range, f.TrueRange)
		}
		if f.Early {
			t.Errorf("fix %d flagged early in final stream", i)
		}
	}
	if math.IsNaN(res.RawRMSE) || math.IsNaN(res.SmoothedRMSE) {
		t.Error("RMSEs not computed")
	}
	if res.Duration <= 0 {
		t.Error("no virtual time elapsed")
	}
}

// TestScheduleSingleDeviceMatchesHopSweep checks that the two drivers of
// the hop timing agree. A session hops band by band itself, so one
// device's sweep over all 35 bands must take what hop.RunSchedule's lone
// sweep takes: one fix per sweep, one dwell per band, and a sweep time
// in the Fig. 9a neighborhood (≈84 ms) within 10% of the schedule's.
func TestScheduleSingleDeviceMatchesHopSweep(t *testing.T) {
	office := sim.NewOffice(rand.New(rand.NewSource(42)), sim.OfficeConfig{})
	est := tof.NewEstimator(tof.Config{MaxIter: 400})
	res, err := RunSession(rand.New(rand.NewSource(1)), office, est, SessionConfig{Sweeps: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Fixes) == 0 || len(res.Fixes) > 3 {
		t.Fatalf("fixes = %d, want one per sweep (3)", len(res.Fixes))
	}

	rng := rand.New(rand.NewSource(1))
	durs := make([]float64, 25)
	for i := range durs {
		s := hop.RunSchedule(rng, 1, 1)
		if len(s.Fixes) != 1 {
			t.Fatalf("lone schedule fixes = %d, want 1", len(s.Fixes))
		}
		durs[i] = s.Duration.Seconds()
	}
	med := stats.Median(durs)

	capture := time.Duration(len(wifi.USBands())) * hop.Dwell
	for i, f := range res.Fixes {
		d := f.Latency.Seconds()
		if d < 0.060 || d > 0.130 {
			t.Errorf("fix %d: session sweep = %v, want ≈84 ms", i, f.Latency)
		}
		if math.Abs(d-med) > 0.10*med {
			t.Errorf("fix %d: session sweep = %v, lone schedule median = %.1f ms", i, f.Latency, med*1000)
		}
		if u := capture.Seconds() / d; u <= 0 || u >= 1 {
			t.Errorf("fix %d: capture utilization = %v, want in (0,1)", i, u)
		}
	}
}

// TestSessionEarlyFixes checks mid-sweep degraded fixes are emitted at the
// configured checkpoints with fewer bands and shorter latency.
func TestSessionEarlyFixes(t *testing.T) {
	office, est := sessionFixture()
	res, err := RunSession(rand.New(rand.NewSource(6)), office, est, SessionConfig{
		Speed: 0.5, Sweeps: 2, EarlyFixBands: []int{8},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.EarlyFixes) == 0 {
		t.Fatal("no early fixes at checkpoint 8")
	}
	for i, f := range res.EarlyFixes {
		if !f.Early {
			t.Errorf("early fix %d not flagged", i)
		}
		if f.Bands < 8 || f.Bands >= 24 {
			t.Errorf("early fix %d folded %d bands, want ≥8 and < full sweep", i, f.Bands)
		}
	}
	// Early fixes must come in faster than the full-sweep fixes.
	if len(res.Fixes) > 0 && res.EarlyFixes[0].Latency >= res.Fixes[0].Latency {
		t.Errorf("early fix latency %v not below full-sweep %v",
			res.EarlyFixes[0].Latency, res.Fixes[0].Latency)
	}
}

// TestSessionDeterministicPerSeed reruns a session from the same seed on a
// fresh estimator; the streamed fixes must agree exactly.
func TestSessionDeterministicPerSeed(t *testing.T) {
	run := func() *SessionResult {
		office, est := sessionFixture()
		res, err := RunSession(rand.New(rand.NewSource(7)), office, est, SessionConfig{
			Speed: 1.0, Sweeps: 2,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Errorf("same seed produced different sessions:\n%+v\n%+v", a, b)
	}
}

// TestSessionStaticTarget pins the Speed=0 baseline: ground truth must not
// drift between sweeps.
func TestSessionStaticTarget(t *testing.T) {
	office, est := sessionFixture()
	res, err := RunSession(rand.New(rand.NewSource(8)), office, est, SessionConfig{
		Speed: 0, Sweeps: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Fixes) < 2 {
		t.Skip("too few fixes to compare")
	}
	for i := 1; i < len(res.Fixes); i++ {
		if res.Fixes[i].TrueRange != res.Fixes[0].TrueRange {
			t.Errorf("static target moved: %v vs %v", res.Fixes[i].TrueRange, res.Fixes[0].TrueRange)
		}
	}
}

// TestSessionEstimatorReusableAcrossSessions mirrors the sync.Pool
// pattern: one estimator drives two sessions in sequence, and the second
// must behave identically to a fresh-estimator run (the session never
// mutates estimator config; only the matrix cache warms).
func TestSessionEstimatorReusableAcrossSessions(t *testing.T) {
	office := sim.NewOffice(rand.New(rand.NewSource(42)), sim.OfficeConfig{})
	shared := tof.NewEstimator(tof.Config{Mode: tof.Bands5GHzOnly, MaxIter: 400})
	cfg := SessionConfig{Speed: 0.8, Sweeps: 2}

	if _, err := RunSession(rand.New(rand.NewSource(30)), office, shared, cfg); err != nil {
		t.Fatal(err)
	}
	warm, err := RunSession(rand.New(rand.NewSource(31)), office, shared, cfg)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := RunSession(rand.New(rand.NewSource(31)), office,
		tof.NewEstimator(tof.Config{Mode: tof.Bands5GHzOnly, MaxIter: 400}), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(warm, fresh) {
		t.Error("warm pooled estimator diverged from fresh estimator")
	}
}
