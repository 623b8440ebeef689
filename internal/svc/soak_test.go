package svc

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"chronos/internal/mac"
	"chronos/internal/obs"
	"chronos/internal/tof"
	"chronos/internal/track"
)

// TestDaemonChurnSoak is the service race soak: Poisson attach/detach
// churn from concurrent clients against a live shard set with the
// shared plan registry squeezed to a tiny bound (so LRU eviction fires
// under concurrent solves). After drain it asserts no session was lost
// — every successful Attach is accounted by exactly one DeviceResult —
// and that the obs lifecycle counters cohere with the ground truth. Run
// under -race in CI; -short scales the fleet down so the race lane
// stays fast.
func TestDaemonChurnSoak(t *testing.T) {
	churners, shortEach, rotateEach := 4, 24, 3
	if testing.Short() {
		churners, shortEach, rotateEach = 2, 8, 1
	}

	// Force registry eviction: two resident plans, while the fleet
	// cycles through several distinct geometries (band modes), each
	// needing a main plan and an alias-window plan per band group.
	defer tof.SetSharedPlanCap(tof.SetSharedPlanCap(2))
	evictionsBefore := tof.SharedRegistryStats().Evictions

	obs.SetEnabled(true)
	obs.Reset()
	defer obs.SetEnabled(false)

	d := NewDaemon(Config{
		Shards:  4,
		Office:  goldenOffice(),
		Virtual: true,
	})

	var (
		mu        sync.Mutex
		attached  = map[uint64]bool{} // successful Attach calls
		finite    = map[uint64]int{}  // finite devices → expected fix count
		detached  int64               // successful Detach calls
		endlessMu sync.Mutex
		endless   []uint64 // devices that only retire via detach/drain
	)
	var wg sync.WaitGroup
	for c := 0; c < churners; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(900 + int64(c)))
			base := uint64(c+1) << 32
			mk := func(i int) (uint64, DeviceConfig) {
				id := base + uint64(i)
				if i < rotateEach {
					// Rotating plan geometry; short finite sessions.
					est := goldenEstimator()
					est.Mode = []tof.BandMode{tof.BandsFused, tof.Bands5GHzOnly, tof.Bands24Only}[i%3]
					s := goldenSession()
					s.Sweeps = 2
					return id, DeviceConfig{Seed: rng.Int63(), Session: s, Estimator: est}
				}
				sweeps := -1 // endless: retires only via detach or drain
				if i%3 != 0 {
					sweeps = 1 + rng.Intn(2)
				}
				return id, fiveGHzDevice(rng.Int63(), sweeps)
			}
			for i := 0; i < shortEach+rotateEach; i++ {
				// Poisson arrivals: exponential inter-attach gaps.
				time.Sleep(time.Duration(rng.ExpFloat64() * float64(150*time.Microsecond)))
				id, cfg := mk(i)
				if err := d.Attach(id, cfg); err != nil {
					t.Errorf("attach %d: %v", id, err)
					continue
				}
				mu.Lock()
				attached[id] = true
				if cfg.Session.Sweeps > 0 {
					finite[id] = cfg.Session.Sweeps
				}
				mu.Unlock()
				if cfg.Session.Sweeps < 0 {
					endlessMu.Lock()
					endless = append(endless, id)
					endlessMu.Unlock()
				}
				// Occasionally reap an endless device mid-churn.
				if rng.Intn(4) == 0 {
					endlessMu.Lock()
					var victim uint64
					if len(endless) > 0 {
						victim = endless[0]
						endless = endless[1:]
					}
					endlessMu.Unlock()
					if victim != 0 {
						if err := d.Detach(victim); err != nil {
							t.Errorf("detach %d: %v", victim, err)
						} else {
							mu.Lock()
							detached++
							mu.Unlock()
						}
					}
				}
			}
		}(c)
	}
	wg.Wait()

	// Let every finite device stream to completion before draining (the
	// attach queue may still be deep in session builds when the churners
	// return); the endless devices then ride into the drain, which must
	// retire them with partial results, not lose them.
	deadline := time.Now().Add(300 * time.Second)
	for {
		results := d.Results()
		done := 0
		mu.Lock()
		for id := range finite {
			if results[id] != nil {
				done++
			}
		}
		n := len(finite)
		mu.Unlock()
		if done == n {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d finite devices retired before deadline", done, n)
		}
		time.Sleep(2 * time.Millisecond)
	}
	snap, err := d.Drain(120 * time.Second)
	if err != nil {
		t.Fatal(err)
	}

	results := d.Results()
	mu.Lock()
	nAttached := len(attached)
	nDetached := detached
	for id := range attached {
		r, ok := results[id]
		if !ok {
			t.Errorf("device %d attached but never retired", id)
			continue
		}
		if r.Err != nil {
			t.Errorf("device %d retired with error: %v", id, r.Err)
		}
		// Finite devices completed before drain: exact fix counts.
		if want, fin := finite[id]; fin && ok && r.Fixes != want {
			t.Errorf("device %d retired with %d fixes, want %d", id, r.Fixes, want)
		}
	}
	mu.Unlock()
	if len(results) != nAttached {
		t.Errorf("retired %d devices, attached %d", len(results), nAttached)
	}

	// Counter coherence against ground truth.
	if got := snap.Counters["svc.attaches"]; got != int64(nAttached) {
		t.Errorf("svc.attaches=%d, want %d", got, nAttached)
	}
	if got := snap.Counters["svc.retired"]; got != int64(nAttached) {
		t.Errorf("svc.retired=%d, want %d", got, nAttached)
	}
	if got := snap.Counters["svc.detaches"]; got != nDetached {
		t.Errorf("svc.detaches=%d, want %d", got, nDetached)
	}
	if got := snap.Counters["svc.attach_errors"]; got != 0 {
		t.Errorf("svc.attach_errors=%d, want 0", got)
	}
	if snap.Counters["svc.full_sweeps"] == 0 {
		t.Error("no full sweeps recorded")
	}
	if d.Sessions() != 0 || d.QueueDepth() != 0 {
		t.Errorf("post-drain: %d sessions, %d queued", d.Sessions(), d.QueueDepth())
	}

	// The squeezed registry must actually have evicted under churn.
	if ev := tof.SharedRegistryStats().Evictions; ev <= evictionsBefore {
		t.Errorf("registry evictions %d → %d: bound never forced eviction", evictionsBefore, ev)
	}
}

// TestDaemonTracksEndlessFleet pins the always-on fleet accounting: with
// N endless devices attached, every one is a live session once the
// command queues drain, and Drain retires all N with their partial
// results.
func TestDaemonTracksEndlessFleet(t *testing.T) {
	d := NewDaemon(Config{Shards: 3, Office: goldenOffice(), Virtual: true})
	fleet := fiveGHzFleet(-1)
	for i := uint64(0); i < 8; i++ {
		fleet[100+i] = fiveGHzDevice(int64(100+i), -1)
	}
	for id, dc := range fleet {
		if err := d.Attach(id, dc); err != nil {
			t.Fatalf("attach %d: %v", id, err)
		}
	}
	for deadline := time.Now().Add(60 * time.Second); d.QueueDepth() > 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d commands still queued", d.QueueDepth())
		}
	}
	if got := d.Sessions(); got != len(fleet) {
		t.Errorf("%d live sessions once the queues drained, want %d", got, len(fleet))
	}
	if _, err := d.Drain(60 * time.Second); err != nil {
		t.Fatal(err)
	}
	results := d.Results()
	if len(results) != len(fleet) {
		t.Errorf("drain retired %d devices, fleet is %d", len(results), len(fleet))
	}
	for id := range fleet {
		if r := results[id]; r == nil || r.Err != nil {
			t.Errorf("device %d retired as %+v, want a clean result", id, r)
		}
	}
}

// TestDaemonWallTime runs a small fleet in production (wall-clock)
// mode: the shard loops pace their timers against real time, devices
// complete their sweep quota, and Quiesce/Drain behave exactly as in
// virtual mode — same code path the smoke lane boots.
func TestDaemonWallTime(t *testing.T) {
	d := NewDaemon(Config{Shards: 2, Office: goldenOffice()})
	const sweeps = 2
	fleet := fiveGHzFleet(sweeps)
	for id, dc := range fleet {
		if err := d.Attach(id, dc); err != nil {
			t.Fatal(err)
		}
	}
	// ~60 ms of protocol time; generous wall deadline for loaded CI.
	if err := d.Quiesce(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Drain(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	results := d.Results()
	if len(results) != len(fleet) {
		t.Fatalf("retired %d devices, want %d", len(results), len(fleet))
	}
	for id, r := range results {
		if r.Err != nil || r.Fixes != sweeps {
			t.Errorf("device %d: fixes=%d err=%v, want %d fixes", id, r.Fixes, r.Err, sweeps)
		}
	}
}

// TestDaemonWallLateAttachPaced pins that a device attached to a
// wall-clock shard that sat idle is paced from its attach: it must not
// fire back to back the sweeps it would have owed since the shard's last
// wakeup. The period is a sequential session's fix spacing.
func TestDaemonWallLateAttachPaced(t *testing.T) {
	office := goldenOffice()
	dc := fiveGHzDevice(1, 2)
	seq, err := track.RunSession(rand.New(rand.NewSource(dc.Seed)), office,
		tof.NewEstimator(dc.Estimator), dc.Session)
	if err != nil {
		t.Fatal(err)
	}
	period := seq.Fixes[1].At - seq.Fixes[0].At

	dc.Session.Sweeps = -1
	d := NewDaemon(Config{Shards: 1, Office: office})
	time.Sleep(500 * time.Millisecond)
	start := time.Now()
	if err := d.Attach(1, dc); err != nil {
		t.Fatal(err)
	}
	time.Sleep(350 * time.Millisecond)
	if err := d.Detach(1); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Drain(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	r := d.Results()[1]
	if r == nil || r.Err != nil {
		t.Fatalf("device retired as %+v, want a clean result", r)
	}
	if limit := int(elapsed/period) + 2; r.Fixes > limit {
		t.Errorf("%d fixes in %v at a %v period, want at most %d", r.Fixes, elapsed, period, limit)
	}
}

// TestScheduleNextDue pins the shard timer due times: a session's next
// sweep rounds up to a whole millisecond, and one due at or before the
// shard's now moves to the next millisecond, so it never fires inside
// the Run that scheduled it.
func TestScheduleNextDue(t *testing.T) {
	for _, tc := range []struct {
		name           string
		now, due, want time.Duration
	}{
		{"round_up", 0, 1500 * time.Microsecond, 2 * time.Millisecond},
		{"whole_ms", 0, 2 * time.Millisecond, 2 * time.Millisecond},
		{"past_due", 10 * time.Millisecond, 2 * time.Millisecond, 11 * time.Millisecond},
		{"due_now", 10 * time.Millisecond, 10 * time.Millisecond, 11 * time.Millisecond},
		{"wall_now", 10500 * time.Microsecond, 10200 * time.Microsecond, 11 * time.Millisecond},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := &shard{sim: mac.NewSim()}
			s.sim.Run(tc.now)
			s.scheduleAt(tc.due, func() {})
			if got, ok := s.sim.Next(); !ok || got != tc.want {
				t.Errorf("due %v at now %v scheduled for %v,%v, want %v", tc.due, tc.now, got, ok, tc.want)
			}
		})
	}
}

// TestDaemonLifecycleErrors pins the edge contracts the soak can't hit
// deterministically: attach without an office, duplicate attach, detach
// of an unknown ID, and post-drain rejections. The duplicate attach and
// the unknown detach each count once under svc.attach_errors; the
// synchronously rejected attach does not.
func TestDaemonLifecycleErrors(t *testing.T) {
	obs.SetEnabled(true)
	defer obs.SetEnabled(false)
	errsBefore := obs.Capture().Counters["svc.attach_errors"]
	// Attach without an office is rejected synchronously.
	bare := NewDaemon(Config{Shards: 1, Virtual: true})
	if err := bare.Attach(8, fiveGHzDevice(8, 1)); err == nil {
		t.Error("attach without office succeeded")
	}
	if _, err := bare.Drain(10 * time.Second); err != nil {
		t.Fatal(err)
	}

	d := NewDaemon(Config{Shards: 2, Office: goldenOffice(), Virtual: true})
	if err := d.Attach(7, fiveGHzDevice(7, -1)); err != nil {
		t.Fatal(err)
	}
	// Duplicate attach retires with an error result.
	if err := d.Attach(7, fiveGHzDevice(7, 1)); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		if r := d.Results()[7]; r != nil && r.Err != nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("duplicate attach never retired with an error")
		}
		time.Sleep(time.Millisecond)
	}
	// Detach of an unknown ID is asynchronous and counted, not fatal.
	if err := d.Detach(99); err != nil {
		t.Fatal(err)
	}
	snap, err := d.Drain(10 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if got := snap.Counters["svc.attach_errors"] - errsBefore; got != 2 {
		t.Errorf("svc.attach_errors moved by %d, want 2 (duplicate attach, unknown detach)", got)
	}
	// Device 7 (endless) must have been drained with its partial results.
	if r := d.Results()[7]; r == nil || r.Err != nil || r.Session == nil {
		t.Errorf("endless device drained as %+v, want its partial session", r)
	}
	if err := d.Attach(11, fiveGHzDevice(11, 1)); err != ErrDraining {
		t.Errorf("post-drain Attach err=%v, want ErrDraining", err)
	}
	if err := d.Detach(7); err != ErrDraining {
		t.Errorf("post-drain Detach err=%v, want ErrDraining", err)
	}
	if _, err := d.Drain(time.Second); err != ErrDraining {
		t.Errorf("second Drain err=%v, want ErrDraining", err)
	}
}

// TestCommandRacingDrainNotStranded races Detach against Drain on a
// one-shard daemon. Drain may refuse a racing command, but one it
// accepts must reach a live shard: once the sender has seen the refusal,
// no command may be left queued.
func TestCommandRacingDrainNotStranded(t *testing.T) {
	runs := 2000
	if testing.Short() {
		runs = 500
	}
	for i := 0; i < runs; i++ {
		d := NewDaemon(Config{Shards: 1, Virtual: true})
		started, done := make(chan struct{}), make(chan struct{})
		go func() {
			defer close(done)
			close(started)
			for d.Detach(99) == nil {
			}
		}()
		<-started
		time.Sleep(time.Duration(i%20) * time.Microsecond)
		if _, err := d.Drain(10 * time.Second); err != nil {
			t.Fatal(err)
		}
		<-done
		if n := d.QueueDepth(); n != 0 {
			t.Fatalf("run %d: %d commands stranded after Drain", i, n)
		}
	}
}
