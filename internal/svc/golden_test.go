package svc

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"chronos/internal/sim"
	"chronos/internal/tof"
	"chronos/internal/track"
)

// goldenEstimator is the fixture estimator config shared by the
// sequential baseline and the daemon.
func goldenEstimator() tof.Config {
	return tof.Config{Mode: tof.BandsFused, Quirk24: true, MaxIter: 1200}
}

// goldenSession is the full steady-state session the daemon must
// reproduce: moving target, warm starts, velocity translation, an
// early-fix checkpoint.
func goldenSession() track.SessionConfig {
	return track.SessionConfig{
		Speed:             1.2,
		Sweeps:            3,
		WarmStart:         true,
		VelocityTranslate: true,
		EarlyFixBands:     []int{8},
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

// sequentialTraces runs K sessions back to back through track.RunSession
// — the daemon-free reference — and returns fix tables keyed by device.
func sequentialTraces(t *testing.T, office *sim.Office, seeds map[uint64]int64) map[uint64]string {
	t.Helper()
	out := make(map[uint64]string, len(seeds))
	for id, seed := range seeds {
		est := tof.NewEstimator(goldenEstimator())
		r, err := track.RunSession(rand.New(rand.NewSource(seed)), office, est, goldenSession())
		if err != nil {
			t.Fatalf("sequential session %d: %v", id, err)
		}
		out[id] = svcFixTable(r)
	}
	return out
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

// daemonTraces runs the golden fleet through a daemon with the given
// config and returns the fix tables. Devices attach with the given
// scheduling class (relevant only when cfg arms the staged pipeline).
func daemonTraces(t *testing.T, office *sim.Office, seeds map[uint64]int64, cfg Config, class Class) map[uint64]string {
	t.Helper()
	devs := make(map[uint64]DeviceConfig, len(seeds))
	for id, seed := range seeds {
		devs[id] = DeviceConfig{Seed: seed, Class: class,
			Session: goldenSession(), Estimator: goldenEstimator()}
	}
	out := make(map[uint64]string, len(seeds))
	for id, r := range daemonSessions(t, office, devs, cfg) {
		out[id] = svcFixTable(r)
	}
	return out
}

// TestDaemonGoldenTraceMatchesSequential is the service golden-trace
// gate: a daemon running K full-pipeline devices must produce
// byte-identical fix tables to K sequential track.RunSession calls with
// the same seeds — at 1 shard and at 8 shards (where the fleet
// genuinely interleaves across goroutines, with the shared coalescer
// armed), and on the wall clock as well as on virtual time. This is
// what licenses every later scheduling change: the daemon may reorder
// work however it likes, but per-device results are pinned.
func TestDaemonGoldenTraceMatchesSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("full-pipeline fleet")
	}
	office := goldenOffice()
	seeds := map[uint64]int64{1: 11, 2: 12, 3: 13, 4: 14}
	want := sequentialTraces(t, office, seeds)
	for id, tab := range want {
		if tab == "" {
			t.Fatalf("device %d: empty sequential fix table", id)
		}
	}

	// The staged-pipeline cases pin the tentpole invariant: cutting a
	// sweep into ingest/solve/track stages executed by three different
	// worker pools must not change a single byte of any device's fix
	// trace — at 1 shard, at 8 shards, with the coalescer merging
	// cross-device solves, and regardless of class (bulk class only
	// changes dequeue ORDER; preemption stays off here because
	// park/resume legitimately alters solve trajectories).
	for _, tc := range []struct {
		name  string
		cfg   Config
		class Class
	}{
		{"1shard", Config{Shards: 1, Virtual: true}, ClassLatency},
		{"8shards_coalesced", Config{Shards: 8, Virtual: true, Coalesce: true}, ClassLatency},
		{"2shards_wall_coalesced", Config{Shards: 2, Coalesce: true}, ClassLatency},
		{"1shard_pipeline", Config{Shards: 1, Virtual: true,
			Pipeline: PipelineConfig{Enabled: true}}, ClassLatency},
		{"8shards_pipeline_coalesced", Config{Shards: 8, Virtual: true, Coalesce: true,
			Pipeline: PipelineConfig{Enabled: true}}, ClassLatency},
		{"8shards_pipeline_bulk", Config{Shards: 8, Virtual: true,
			Pipeline: PipelineConfig{Enabled: true, SolveWorkers: 2, QueueDepth: 2}}, ClassBulk},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := daemonTraces(t, office, seeds, tc.cfg, tc.class)
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

// fiveGHzFleet is the cheap -short fixture: four 5 GHz-only full
// devices of the given sweep count (negative = endless).
func fiveGHzFleet(sweeps int) map[uint64]DeviceConfig {
	devs := make(map[uint64]DeviceConfig)
	for id := uint64(1); id <= 4; id++ {
		devs[id] = DeviceConfig{Seed: int64(10 + id),
			Session:   track.SessionConfig{Speed: 1.2, Sweeps: sweeps},
			Estimator: tof.Config{Mode: tof.Bands5GHzOnly, MaxIter: 600}}
	}
	return devs
}

// TestDaemonCoalescedSessionsMatchSolo drives concurrent full sessions
// through the shared coalescer and runs under -short, so the race
// detector sees the coalescer's leader/follower handoff between shard
// goroutines on every race run. Four 5 GHz-only devices run on a
// 4-shard virtual daemon, once with the coalescer off and once with it
// on. Every fix table must match byte-for-byte; a coalesced fix reports
// a batch width in [1, MaxBatch], an uncoalesced one exactly 1.
func TestDaemonCoalescedSessionsMatchSolo(t *testing.T) {
	const maxBatch = 4
	office := goldenOffice()
	devs := fiveGHzFleet(2)
	solo := daemonSessions(t, office, devs, Config{Shards: 4, Virtual: true})
	coalesced := daemonSessions(t, office, devs, Config{Shards: 4, Virtual: true, Coalesce: true,
		CoalescerConfig: tof.CoalescerConfig{MaxBatch: maxBatch, Wait: 5 * time.Millisecond}})

	if len(solo) != len(devs) || len(coalesced) != len(devs) {
		t.Fatalf("retired %d solo and %d coalesced devices, want %d", len(solo), len(coalesced), len(devs))
	}
	fixes, batched := 0, 0
	for id, s := range solo {
		c := coalesced[id]
		if want, got := svcFixTable(s), svcFixTable(c); got != want {
			t.Errorf("device %d: coalesced fixes diverged:\ncoalesced:\n%s\nsolo:\n%s", id, got, want)
		}
		for i, f := range s.Fixes {
			if f.BatchSize != 1 {
				t.Errorf("device %d fix %d: solo batch size %d, want 1", id, i, f.BatchSize)
			}
		}
		for i, f := range c.Fixes {
			if f.BatchSize < 1 || f.BatchSize > maxBatch {
				t.Errorf("device %d fix %d: batch size %d outside [1, %d]", id, i, f.BatchSize, maxBatch)
			}
			if f.BatchSize > 1 {
				batched++
			}
		}
		fixes += len(c.Fixes)
	}
	if fixes == 0 {
		t.Fatal("no fixes produced")
	}
	t.Logf("%d of %d fixes rode coalesced batches", batched, fixes)
}
