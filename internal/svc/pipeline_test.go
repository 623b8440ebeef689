package svc

import (
	"testing"
	"time"

	"chronos/internal/obs"
	"chronos/internal/track"
)

// TestClassQueueOrder pins the solve queue's dequeue discipline: strict
// latency-over-bulk priority, FIFO within a class, and one bulk grant
// after starve consecutive latency grants while bulk work waits.
func TestClassQueueOrder(t *testing.T) {
	q := newClassQueue(64, 2)
	mk := func(c Class, id uint64) *sweepToken {
		return &sweepToken{class: c, ds: &deviceSession{id: id}}
	}
	for i := uint64(1); i <= 5; i++ {
		q.push(mk(ClassLatency, i)) // L1..L5
	}
	for i := uint64(101); i <= 103; i++ {
		q.push(mk(ClassBulk, i)) // B101..B103
	}
	if w := q.latWaiting.Load(); w != 5 {
		t.Fatalf("latWaiting = %d, want 5", w)
	}
	// With starve=2: two latency grants, then one bulk, repeating while
	// both classes are queued; leftovers drain FIFO.
	want := []uint64{1, 2, 101, 3, 4, 102, 5, 103}
	for i, id := range want {
		tok, ok := q.pop()
		if !ok {
			t.Fatalf("pop %d: queue closed early", i)
		}
		if tok.ds.id != id {
			t.Fatalf("pop %d: got device %d, want %d", i, tok.ds.id, id)
		}
	}
	if w := q.latWaiting.Load(); w != 0 {
		t.Fatalf("latWaiting after drain = %d, want 0", w)
	}
	q.close()
	if _, ok := q.pop(); ok {
		t.Fatal("pop on a closed empty queue reported a token")
	}
}

// TestClassQueueParkedResumesFirst pins the parked re-enqueue position:
// a preempted bulk token goes back at the head of the bulk lane, ahead
// of fresh bulk work, so preemption delays at most one half-done solve.
func TestClassQueueParkedResumesFirst(t *testing.T) {
	q := newClassQueue(64, 8)
	a := &sweepToken{class: ClassBulk, ds: &deviceSession{id: 1}}
	b := &sweepToken{class: ClassBulk, ds: &deviceSession{id: 2}}
	q.push(a)
	q.push(b)
	got, _ := q.pop()
	if got != a {
		t.Fatalf("first pop got device %d, want 1", got.ds.id)
	}
	q.pushParked(a) // parked mid-solve; must resume before b
	if got, _ = q.pop(); got != a {
		t.Fatalf("parked token did not resume first (got device %d)", got.ds.id)
	}
	if got, _ = q.pop(); got != b {
		t.Fatalf("tail pop got device %d, want 2", got.ds.id)
	}
}

// TestStageSpansOnePath pins the single instrumentation path: with the
// solve on the shard and on a solve pool alike, every completed full
// sweep records exactly one ingest, solve and track stage span and one
// end-to-end sweep span (preemption off, so no solve parks).
func TestStageSpansOnePath(t *testing.T) {
	for _, tc := range []struct {
		name string
		pipe PipelineConfig
	}{
		{"shard", PipelineConfig{}},
		{"pool", PipelineConfig{Enabled: true, SolveWorkers: 2}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			obs.SetEnabled(true)
			obs.Reset()
			defer obs.SetEnabled(false)
			daemonSessions(t, goldenOffice(), fiveGHzFleet(2),
				Config{Shards: 2, Virtual: true, Pipeline: tc.pipe})
			snap := obs.Capture()
			sweeps := snap.Counters["svc.full_sweeps"]
			if sweeps != 8 {
				t.Fatalf("svc.full_sweeps = %d, want 8", sweeps)
			}
			for _, name := range []string{"svc.stage.ingest_ns", "svc.stage.solve_ns",
				"svc.stage.track_ns", "svc.sweep_ns"} {
				if got := snap.Hists[name].Count; got != sweeps {
					t.Errorf("%s count = %d, want one per sweep (%d)", name, got, sweeps)
				}
			}
		})
	}
}

// TestDrainWithTokensInPool drains a daemon while endless devices keep
// sweep tokens queued on a one-worker solve pool. Tokens that come home
// during shutdown must still be tracked: every device retires cleanly,
// every counted sweep is a fix in some device's result (each sweep of
// this fixture yields one), and every token out at the drain call
// became one.
func TestDrainWithTokensInPool(t *testing.T) {
	obs.SetEnabled(true)
	obs.Reset()
	defer obs.SetEnabled(false)
	d := NewDaemon(Config{Shards: 2, Office: goldenOffice(), Virtual: true,
		Pipeline: PipelineConfig{Enabled: true, SolveWorkers: 1}})
	devs := fiveGHzFleet(-1)
	for id, dc := range devs {
		if err := d.Attach(id, dc); err != nil {
			t.Fatalf("attach %d: %v", id, err)
		}
	}
	// Mid-stream: a few sweeps done and at least two tokens out. Sweeps
	// are read before tokens, so no sweep counts in both.
	var done, out int64
	for deadline := time.Now().Add(60 * time.Second); ; time.Sleep(time.Millisecond) {
		done = obsFullSweeps.Value()
		out = int64(obs.Capture().Gauges["svc.pipe.inflight"])
		if done >= 4 && out >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("fleet never reached mid-stream")
		}
	}
	snap, err := d.Drain(30 * time.Second)
	if err != nil {
		t.Fatalf("drain: %v", err)
	}
	results := d.Results()
	if len(results) != len(devs) {
		t.Fatalf("retired %d devices, want %d", len(results), len(devs))
	}
	fixes := 0
	for id, r := range results {
		if r.Err != nil {
			t.Fatalf("device %d retired with error: %v", id, r.Err)
		}
		fixes += r.Fixes
	}
	if sweeps := snap.Counters["svc.full_sweeps"]; sweeps != int64(fixes) {
		t.Fatalf("svc.full_sweeps = %d, but retired devices hold %d fixes", sweeps, fixes)
	}
	if int64(fixes) < done+out {
		t.Fatalf("retired devices hold %d fixes, want at least %d sweeps done + %d tokens out at drain",
			fixes, done, out)
	}
}

// pipelineFleet attaches n full devices of alternating class to d and
// waits for the whole fleet to retire.
func pipelineFleet(t *testing.T, d *Daemon, n, sweeps int) map[uint64]*DeviceResult {
	t.Helper()
	scfg := track.SessionConfig{Sweeps: sweeps, WarmStart: true}
	for i := 0; i < n; i++ {
		class := ClassLatency
		if i%2 == 1 {
			class = ClassBulk
		}
		err := d.Attach(uint64(i+1), DeviceConfig{
			Seed: int64(40 + i), Class: class,
			Session: scfg, Estimator: goldenEstimator(),
		})
		if err != nil {
			t.Fatalf("attach %d: %v", i+1, err)
		}
	}
	if err := d.Quiesce(120 * time.Second); err != nil {
		t.Fatal(err)
	}
	results := d.Results()
	if _, err := d.Drain(10 * time.Second); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if len(results) != n {
		t.Fatalf("retired %d devices, want %d", len(results), n)
	}
	for id, r := range results {
		if r.Err != nil {
			t.Fatalf("device %d retired with error: %v", id, r.Err)
		}
		if r.Fixes != sweeps {
			t.Fatalf("device %d streamed %d fixes, want %d", id, r.Fixes, sweeps)
		}
	}
	return results
}

// TestPipelineBackpressureCompletes runs a mixed-class fleet with a
// solve queue of one token, one solve worker; the shard blocks on push:
// maximum backpressure. The run must still complete — the bounded queue
// blocks the pushing shard, it never deadlocks or drops.
func TestPipelineBackpressureCompletes(t *testing.T) {
	if testing.Short() {
		t.Skip("full-pipeline fleet")
	}
	d := NewDaemon(Config{
		Shards: 2, Office: goldenOffice(), Virtual: true,
		Pipeline: PipelineConfig{Enabled: true, QueueDepth: 1, SolveWorkers: 1},
	})
	pipelineFleet(t, d, 6, 2)
}

// TestPipelinePreemptionFires runs one latency device against a bulk
// swarm on a single solve worker with preemption armed, and asserts
// that bulk solves actually parked for the latency stream (the
// svc.preemptions counter moved) and that every device still finished
// every sweep — parked solves resume and lose nothing.
func TestPipelinePreemptionFires(t *testing.T) {
	if testing.Short() {
		t.Skip("full-pipeline fleet")
	}
	obs.SetEnabled(true)
	obs.Reset()
	defer obs.SetEnabled(false)

	d := NewDaemon(Config{
		Shards: 2, Office: goldenOffice(), Virtual: true,
		Pipeline: PipelineConfig{
			Enabled: true, SolveWorkers: 1, Preempt: true,
		},
	})
	scfg := track.SessionConfig{Sweeps: 4, WarmStart: true}
	est := goldenEstimator()
	for i := 0; i < 8; i++ {
		class := ClassBulk
		if i == 0 {
			class = ClassLatency
		}
		err := d.Attach(uint64(i+1), DeviceConfig{
			Seed: int64(70 + i), Class: class, Session: scfg, Estimator: est,
		})
		if err != nil {
			t.Fatalf("attach %d: %v", i+1, err)
		}
	}
	if err := d.Quiesce(120 * time.Second); err != nil {
		t.Fatal(err)
	}
	results := d.Results()
	snap, err := d.Drain(10 * time.Second)
	if err != nil {
		t.Fatalf("drain: %v", err)
	}
	for id, r := range results {
		if r.Err != nil {
			t.Fatalf("device %d retired with error: %v", id, r.Err)
		}
		if r.Fixes != 4 {
			t.Fatalf("device %d streamed %d fixes, want 4", id, r.Fixes)
		}
	}
	if snap.Counters["svc.preemptions"] == 0 {
		t.Error("no bulk solve parked despite a contending latency stream on one solve worker")
	}
	if snap.Counters["svc.preemptions"] != snap.Counters["tof.solve.parks"] {
		t.Errorf("svc.preemptions (%d) and tof.solve.parks (%d) disagree",
			snap.Counters["svc.preemptions"], snap.Counters["tof.solve.parks"])
	}
}

// TestPipelineDetachMidFlight covers the deferred-detach path: a detach
// that lands while the device's sweep token is out in the pipeline must
// retire the device when the token comes home, with partial results.
func TestPipelineDetachMidFlight(t *testing.T) {
	if testing.Short() {
		t.Skip("full-pipeline fleet")
	}
	d := NewDaemon(Config{
		Shards: 1, Office: goldenOffice(), Virtual: true,
		Pipeline: PipelineConfig{Enabled: true, SolveWorkers: 1},
	})
	// Endless session: only detach (or drain) retires it.
	scfg := track.SessionConfig{Sweeps: -1, WarmStart: true}
	if err := d.Attach(1, DeviceConfig{Seed: 91, Session: scfg, Estimator: goldenEstimator()}); err != nil {
		t.Fatal(err)
	}
	// Let it stream a few sweeps, then detach whenever — likely while a
	// token is in flight.
	deadline := time.Now().Add(60 * time.Second)
	for d.Sessions() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond)
	if err := d.Detach(1); err != nil {
		t.Fatal(err)
	}
	for d.Sessions() != 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	results := d.Results()
	if _, err := d.Drain(10 * time.Second); err != nil {
		t.Fatalf("drain: %v", err)
	}
	r, ok := results[1]
	if !ok {
		t.Fatal("detached device has no result")
	}
	if r.Err != nil {
		t.Fatalf("detached device retired with error: %v", r.Err)
	}
	if r.Session == nil {
		t.Fatal("detached device has no session result")
	}
}
