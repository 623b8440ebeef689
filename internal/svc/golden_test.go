package svc

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"chronos/internal/obs"
	"chronos/internal/sim"
	"chronos/internal/tof"
	"chronos/internal/track"
)

// goldenEstimator is the fixture estimator config shared by the
// sequential baseline and the daemon.
func goldenEstimator() tof.Config {
	return tof.Config{Mode: tof.BandsFused, Quirk24: true, MaxIter: 1200}
}

// goldenSession is the full session the daemon must reproduce: moving
// target, an early-fix checkpoint.
func goldenSession() track.SessionConfig {
	return track.SessionConfig{
		Speed:         1.2,
		Sweeps:        3,
		EarlyFixBands: []int{8},
	}
}

// svcFixTable renders a session result's fixes at full float precision
// (same schema as the track golden harness) so runs compare
// byte-for-byte.
func svcFixTable(r *track.SessionResult) string {
	var b strings.Builder
	for _, f := range append(append([]track.Fix{}, r.EarlyFixes...), r.Fixes...) {
		fmt.Fprintf(&b, "at=%d lat=%d bands=%d range=%x true=%x early=%v acc=%v work=%d conv=%v\n",
			f.At, f.Latency, f.Bands, f.Range, f.TrueRange, f.Early, f.Accepted, f.Work, f.Converged)
	}
	return b.String()
}

// goldenOffice is the shared multipath world (read-only at run time, so
// one office serves every run in the test).
func goldenOffice() *sim.Office {
	return sim.NewOffice(rand.New(rand.NewSource(3)), sim.OfficeConfig{})
}

// sequentialTraces runs the full devices back to back through
// track.RunSession — the daemon-free reference — and returns fix tables
// keyed by device.
func sequentialTraces(t *testing.T, office *sim.Office, devs map[uint64]DeviceConfig) map[uint64]string {
	t.Helper()
	out := make(map[uint64]string, len(devs))
	for id, dc := range devs {
		est := tof.NewEstimator(dc.Estimator)
		r, err := track.RunSession(rand.New(rand.NewSource(dc.Seed)), office, est, dc.Session)
		if err != nil {
			t.Fatalf("sequential session %d: %v", id, err)
		}
		out[id] = svcFixTable(r)
	}
	return out
}

// counterDeltas runs fn and returns how far it advanced each ndft.* and
// tof.* counter (obs must be on). Those count scheduling-independent
// solver events, so no daemon configuration may move them.
func counterDeltas(fn func()) map[string]int64 {
	before := obs.Capture().Counters
	fn()
	delta := make(map[string]int64)
	for name, v := range obs.Capture().Counters {
		if strings.HasPrefix(name, "ndft.") || strings.HasPrefix(name, "tof.") {
			delta[name] = v - before[name]
		}
	}
	return delta
}

// daemonSessions runs the given full devices through a daemon until it
// quiesces and returns each device's session result.
func daemonSessions(t *testing.T, office *sim.Office, devs map[uint64]DeviceConfig, cfg Config) map[uint64]*track.SessionResult {
	t.Helper()
	cfg.Office = office
	d := NewDaemon(cfg)
	for id, dc := range devs {
		if err := d.Attach(id, dc); err != nil {
			t.Fatalf("attach %d: %v", id, err)
		}
	}
	if err := d.Quiesce(120 * time.Second); err != nil {
		t.Fatal(err)
	}
	results := d.Results()
	if _, err := d.Drain(10 * time.Second); err != nil {
		t.Fatalf("drain: %v", err)
	}
	out := make(map[uint64]*track.SessionResult, len(results))
	for id, r := range results {
		if r.Err != nil {
			t.Fatalf("device %d retired with error: %v", id, r.Err)
		}
		if r.Session == nil {
			t.Fatalf("device %d has no session result", id)
		}
		out[id] = r.Session
	}
	return out
}

// daemonTraces runs full devices through a daemon with the given config
// and returns the fix tables.
func daemonTraces(t *testing.T, office *sim.Office, devs map[uint64]DeviceConfig, cfg Config) map[uint64]string {
	t.Helper()
	out := make(map[uint64]string, len(devs))
	for id, r := range daemonSessions(t, office, devs, cfg) {
		out[id] = svcFixTable(r)
	}
	return out
}

// goldenFleet is the golden devices with the given seeds, all of one
// scheduling class.
func goldenFleet(seeds map[uint64]int64, class Class) map[uint64]DeviceConfig {
	devs := make(map[uint64]DeviceConfig, len(seeds))
	for id, seed := range seeds {
		devs[id] = DeviceConfig{Seed: seed, Class: class,
			Session: goldenSession(), Estimator: goldenEstimator()}
	}
	return devs
}

// TestDaemonGoldenTraceMatchesSequential is the service golden-trace
// gate: a daemon running K full-pipeline devices must produce
// byte-identical fix tables to K sequential track.RunSession calls with
// the same seeds — at 1 shard and at 8 shards (where the fleet
// genuinely interleaves across goroutines), on the wall clock as well
// as on virtual time, on the default pool and on pools of one and of
// eight solve workers, and with bulk-class devices on a two-worker pool
// behind a two-token queue. This is what licenses every later
// scheduling change: the daemon may reorder work however it likes, but
// per-device results are pinned.
func TestDaemonGoldenTraceMatchesSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("full-pipeline fleet")
	}
	office := goldenOffice()
	seeds := map[uint64]int64{1: 11, 2: 12, 3: 13, 4: 14}
	want := sequentialTraces(t, office, goldenFleet(seeds, ClassLatency))
	for id, tab := range want {
		if tab == "" {
			t.Fatalf("device %d: empty sequential fix table", id)
		}
	}

	// The pool's size must not change a byte of any device's fix trace:
	// the _pipeline cases set it against the default of one worker per
	// CPU. Bulk class only changes dequeue order;
	// TestPipelinePreemptionFires covers bulk solves that run latency
	// solves inline.
	for _, tc := range []struct {
		name  string
		cfg   Config
		class Class
	}{
		{"1shard", Config{Shards: 1, Virtual: true}, ClassLatency},
		{"8shards", Config{Shards: 8, Virtual: true}, ClassLatency},
		{"2shards_wall", Config{Shards: 2}, ClassLatency},
		{"1shard_pipeline", Config{Shards: 1, Virtual: true,
			Pipeline: PipelineConfig{SolveWorkers: 1}}, ClassLatency},
		{"8shards_pipeline", Config{Shards: 8, Virtual: true,
			Pipeline: PipelineConfig{SolveWorkers: 8}}, ClassLatency},
		{"8shards_pipeline_bulk", Config{Shards: 8, Virtual: true,
			Pipeline: PipelineConfig{SolveWorkers: 2, QueueDepth: 2}}, ClassBulk},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := daemonTraces(t, office, goldenFleet(seeds, tc.class), tc.cfg)
			if len(got) != len(want) {
				t.Fatalf("daemon retired %d devices, want %d", len(got), len(want))
			}
			for id, tab := range want {
				if got[id] != tab {
					t.Errorf("device %d diverged from sequential run:\ndaemon:\n%s\nsequential:\n%s",
						id, got[id], tab)
				}
			}
		})
	}
}

// fiveGHzDevice is the cheap -short device: a 5 GHz-only session of the
// given sweep count (negative = endless).
func fiveGHzDevice(seed int64, sweeps int) DeviceConfig {
	return DeviceConfig{Seed: seed,
		Session:   track.SessionConfig{Speed: 1.2, Sweeps: sweeps},
		Estimator: tof.Config{Mode: tof.Bands5GHzOnly, MaxIter: 600}}
}

// fiveGHzFleet is the cheap -short fixture: four 5 GHz-only devices of
// the given sweep count (negative = endless).
func fiveGHzFleet(sweeps int) map[uint64]DeviceConfig {
	devs := make(map[uint64]DeviceConfig)
	for id := uint64(1); id <= 4; id++ {
		devs[id] = fiveGHzDevice(int64(10+id), sweeps)
	}
	return devs
}

// TestDaemonShardCountInvariant is the -short multi-shard identity
// check, so the race detector sees several shard goroutines solving at
// once on every race run. Four 5 GHz-only devices run on a virtual
// daemon at 1 shard and at 4 shards: every fix table must match
// byte-for-byte, and with obs on every ndft.* and tof.* counter must
// advance by the same amount — they count scheduling-independent
// events, so the shard count must not move them.
func TestDaemonShardCountInvariant(t *testing.T) {
	office := goldenOffice()
	devs := fiveGHzFleet(2)

	obs.SetEnabled(true)
	defer obs.SetEnabled(false)
	run := func(shards int) (res map[uint64]*track.SessionResult, delta map[string]int64) {
		delta = counterDeltas(func() {
			res = daemonSessions(t, office, devs, Config{Shards: shards, Virtual: true})
		})
		return res, delta
	}
	one, oneCounts := run(1)
	four, fourCounts := run(4)

	if len(one) != len(devs) || len(four) != len(devs) {
		t.Fatalf("retired %d devices at 1 shard and %d at 4, want %d", len(one), len(four), len(devs))
	}
	for id, r := range one {
		if want, got := svcFixTable(r), svcFixTable(four[id]); got != want {
			t.Errorf("device %d: 4-shard fixes diverged:\n4 shards:\n%s\n1 shard:\n%s", id, got, want)
		}
	}
	if oneCounts["ndft.solve.requests"] == 0 {
		t.Fatal("no solves counted")
	}
	if !reflect.DeepEqual(oneCounts, fourCounts) {
		t.Errorf("ndft/tof counter deltas differ:\n1 shard:  %v\n4 shards: %v", oneCounts, fourCounts)
	}
}
