package svc

import (
	"maps"
	"reflect"
	"slices"
	"testing"
	"time"

	"chronos/internal/obs"
	"chronos/internal/sim"
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

// TestClassQueuePopLatency pins the non-blocking latency pop that a
// running bulk solve's yield hook uses: nil on an empty latency lane
// with bulk tokens left queued, FIFO within the lane with the waiting
// count kept, pop's starvation bound (a refusal resets the run and
// counts a starve grant: the bulk solve that keeps running is the bulk
// grant owed), and a closed queue still handing out what it holds.
func TestClassQueuePopLatency(t *testing.T) {
	obs.SetEnabled(true)
	obs.Reset()
	defer obs.SetEnabled(false)
	mk := func(c Class, id uint64) *sweepToken {
		return &sweepToken{class: c, ds: &deviceSession{id: id}}
	}
	expect := func(step string, tok *sweepToken, id uint64) {
		t.Helper()
		switch {
		case id == 0 && tok != nil:
			t.Fatalf("%s: got device %d, want nil", step, tok.ds.id)
		case id != 0 && tok == nil:
			t.Fatalf("%s: got nil, want device %d", step, id)
		case id != 0 && tok.ds.id != id:
			t.Fatalf("%s: got device %d, want %d", step, tok.ds.id, id)
		}
	}

	q := newClassQueue(64, 2)
	expect("empty queue", q.popLatency(), 0)
	q.push(mk(ClassBulk, 101))
	expect("bulk only", q.popLatency(), 0)
	for i := uint64(1); i <= 3; i++ {
		q.push(mk(ClassLatency, i)) // L1..L3
	}
	// With starve=2 and bulk waiting, two grants run up to the bound.
	expect("first grant", q.popLatency(), 1)
	expect("second grant", q.popLatency(), 2)
	if w := q.latWaiting.Load(); w != 1 {
		t.Fatalf("latWaiting = %d, want 1", w)
	}
	expect("grant past the bound", q.popLatency(), 0)
	if q.latRun != 0 {
		t.Fatalf("latRun = %d after a refusal, want it reset", q.latRun)
	}
	if n := obsStarveGrants.Value(); n != 1 {
		t.Fatalf("svc.starve_grants = %d, want 1", n)
	}
	expect("grant after the reset", q.popLatency(), 3)
	if w := q.latWaiting.Load(); w != 0 {
		t.Fatalf("latWaiting = %d, want 0", w)
	}
	if lat, bulk := q.depths(); lat != 0 || bulk != 1 {
		t.Fatalf("depths lat=%d bulk=%d, want the bulk token still queued", lat, bulk)
	}

	q.push(mk(ClassLatency, 4))
	q.close()
	expect("closed queue", q.popLatency(), 4)
	expect("closed empty lane", q.popLatency(), 0)
	if tok, ok := q.pop(); !ok || tok.ds.id != 101 {
		t.Fatal("pop on the closed queue did not drain the bulk token")
	}
	if _, ok := q.pop(); ok {
		t.Fatal("pop on a closed empty queue reported a token")
	}
}

// TestStageSpansOnePath pins the single solve path and its
// instrumentation: a daemon built with no Pipeline field solves on its
// pool like one given a pool size, and every completed full sweep
// records exactly one ingest, solve-wait, solve and track stage span and
// one end-to-end sweep span. The inline row runs the preemption fleet
// through inlineSessions, where every latency sweep's solve runs inline
// in a bulk solve: each of those sweeps still records one solve and one
// solve-wait span.
func TestStageSpansOnePath(t *testing.T) {
	for _, tc := range []struct {
		name   string
		devs   map[uint64]DeviceConfig
		cfg    Config
		inline bool
	}{
		{"default", fiveGHzFleet(2), Config{Shards: 2, Virtual: true}, false},
		{"pool", fiveGHzFleet(2), Config{Shards: 2, Virtual: true,
			Pipeline: PipelineConfig{SolveWorkers: 2}}, false},
		{"pool_inline", preemptionFleet(), Config{}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.inline && testing.Short() {
				t.Skip("full-pipeline fleet")
			}
			obs.SetEnabled(true)
			obs.Reset()
			defer obs.SetEnabled(false)
			if tc.inline {
				inlineSessions(t, goldenOffice(), tc.devs)
			} else {
				daemonSessions(t, goldenOffice(), tc.devs, tc.cfg)
			}
			snap := obs.Capture()
			want := int64(0)
			for _, dc := range tc.devs {
				want += int64(dc.Session.Sweeps)
			}
			sweeps := snap.Counters["svc.full_sweeps"]
			if sweeps != want {
				t.Fatalf("svc.full_sweeps = %d, want %d", sweeps, want)
			}
			if tc.inline && snap.Counters["svc.preemptions"] == 0 {
				t.Fatal("no latency solve ran inline")
			}
			for _, name := range []string{"svc.stage.ingest_ns", "svc.stage.solve_wait_ns",
				"svc.stage.solve_ns", "svc.stage.track_ns", "svc.sweep_ns"} {
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
		Pipeline: PipelineConfig{SolveWorkers: 1}})
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
	scfg := track.SessionConfig{Sweeps: sweeps}
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
		Pipeline: PipelineConfig{QueueDepth: 1, SolveWorkers: 1},
	})
	pipelineFleet(t, d, 6, 2)
}

// preemptionFleet is one latency device against seven bulk ones, each
// streaming eight sweeps on the golden estimator.
func preemptionFleet() map[uint64]DeviceConfig {
	devs := make(map[uint64]DeviceConfig, 8)
	for i := 0; i < 8; i++ {
		class := ClassBulk
		if i == 0 {
			class = ClassLatency
		}
		devs[uint64(i+1)] = DeviceConfig{Seed: int64(70 + i), Class: class,
			Session:   track.SessionConfig{Sweeps: 8},
			Estimator: goldenEstimator()}
	}
	return devs
}

// inlineSessions runs devs, at most one of them latency-class, sweep by
// sweep through a worker-less solve pool whose only worker is the test
// goroutine, so that every latency solve runs inline in a bulk solve.
// Each round, every bulk device ingests and queues its sweep token, one
// bulk token is popped, the latency device ingests and queues its token,
// and the popped bulk solve runs: its first gap check finds the latency
// token waiting and runs it inline. The other bulk tokens then run and
// the shard finishes every sweep. Each sweep takes the daemon's own path
// (sweep, pipeline.run, finish); only the timer fires and the pool's
// worker are the test's. It returns each device's session result.
func inlineSessions(t *testing.T, office *sim.Office, devs map[uint64]DeviceConfig) map[uint64]*track.SessionResult {
	t.Helper()
	d := &Daemon{cfg: Config{Office: office, Virtual: true}, results: make(map[uint64]*DeviceResult),
		pipe: &pipeline{solveQ: newClassQueue(len(devs), starveBound)}}
	s := newShard(d, 0)
	ids := slices.Sorted(maps.Keys(devs))
	for _, id := range ids {
		s.attach(id, devs[id])
	}
	fire := func(ds *deviceSession) {
		ds.timer.Cancel()
		ds.sweep()
	}
	q := d.pipe.solveQ
	for s.live.Load() > 0 {
		var lat *deviceSession
		for _, id := range ids {
			switch ds := s.sessions[id]; {
			case ds == nil:
			case ds.cfg.Class == ClassLatency:
				lat = ds
			default:
				fire(ds)
			}
		}
		if _, bulk := q.depths(); bulk == 0 {
			t.Fatal("no bulk sweep token queued")
		}
		tok, _ := q.pop()
		if lat != nil {
			fire(lat)
		}
		d.pipe.run(tok)
		for nl, nb := q.depths(); nl+nb > 0; nl, nb = q.depths() {
			tok, _ := q.pop()
			d.pipe.run(tok)
		}
		s.drainCompletions(false)
	}
	out := make(map[uint64]*track.SessionResult, len(devs))
	for id, r := range d.Results() {
		if r.Err != nil {
			t.Fatalf("device %d retired with error: %v", id, r.Err)
		}
		out[id] = r.Session
	}
	if len(out) != len(devs) {
		t.Fatalf("retired %d devices, want %d", len(out), len(devs))
	}
	return out
}

// TestPipelinePreemptionFires asserts that running latency solves inline
// in bulk solves changes no result. The preemption fleet runs through a
// daemon with one solve worker, where bulk solves run the latency
// device's solves inline at their gap checks whenever the two overlap,
// and through inlineSessions, where every latency solve runs inline
// (svc.preemptions moves once per latency sweep). Both must match
// sequential track.RunSession: every device's fix table byte for byte,
// and every ndft.* and tof.* counter advanced exactly as it does for the
// sequential run.
func TestPipelinePreemptionFires(t *testing.T) {
	if testing.Short() {
		t.Skip("full-pipeline fleet")
	}
	obs.SetEnabled(true)
	obs.Reset()
	defer obs.SetEnabled(false)

	office := goldenOffice()
	devs := preemptionFleet()
	var want, pooled, inline map[uint64]string
	sequential := counterDeltas(func() {
		want = sequentialTraces(t, office, devs)
	})
	pooledCounts := counterDeltas(func() {
		pooled = daemonTraces(t, office, devs, Config{Shards: 2, Virtual: true,
			Pipeline: PipelineConfig{SolveWorkers: 1}})
	})
	t.Logf("%d latency solves ran inline on the daemon's pool", obsPreemptions.Value())
	before := obsPreemptions.Value()
	inlineCounts := counterDeltas(func() {
		inline = make(map[uint64]string, len(devs))
		for id, r := range inlineSessions(t, office, devs) {
			inline[id] = svcFixTable(r)
		}
	})
	if n, sweeps := obsPreemptions.Value()-before, int64(devs[1].Session.Sweeps); n != sweeps {
		t.Errorf("%d latency solves ran inline, want one per latency sweep (%d)", n, sweeps)
	}
	for name, got := range map[string]map[uint64]string{"daemon": pooled, "inline": inline} {
		for id, tab := range want {
			if got[id] != tab {
				t.Errorf("device %d diverged from sequential run:\n%s:\n%s\nsequential:\n%s",
					id, name, got[id], tab)
			}
		}
	}
	for name, got := range map[string]map[string]int64{"daemon": pooledCounts, "inline": inlineCounts} {
		if !reflect.DeepEqual(got, sequential) {
			t.Errorf("ndft/tof counter deltas differ:\n%s: %v\nsequential: %v", name, got, sequential)
		}
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
		Pipeline: PipelineConfig{SolveWorkers: 1},
	})
	// Endless session: only detach (or drain) retires it.
	scfg := track.SessionConfig{Sweeps: -1}
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
