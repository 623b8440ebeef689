package tof

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"chronos/internal/ndft"
	"chronos/internal/wifi"
)

// planFor returns the plan for key, building it via build on first use:
// entryFor for a plan with nothing built beside it.
func (r *planRegistry) planFor(key planKey, build func() (*ndft.Plan, error)) (*ndft.Plan, error) {
	e := r.entryFor(key, func(e *planEntry) { e.plan, e.err = build() })
	return e.plan, e.err
}

func TestPlanKeyDistinguishesGeometries(t *testing.T) {
	freqs := []float64{5.18e9, 5.2e9, 5.22e9}
	base := newPlanKey(freqs, 2)
	if newPlanKey(freqs, 2) != base {
		t.Error("identical geometry produced different keys")
	}
	variants := []planKey{
		newPlanKey(freqs, 8),
		newPlanKey(freqs[:2], 2),
		newPlanKey([]float64{5.18e9, 5.2e9, 5.24e9}, 2),
	}
	for i, k := range variants {
		if k == base {
			t.Errorf("variant %d collided with base key", i)
		}
	}
	window := base
	window.window = true
	if window == base {
		t.Error("window key collided with group key")
	}
}

// TestPlanRegistryConcurrentSingleBuild is the registry acceptance test:
// N goroutines estimating over the same band grid must resolve to one
// shared plan per geometry, built exactly once, with every goroutine
// producing the identical estimate. Run under -race this also proves the
// registry and shared-plan solves are data-race free.
func TestPlanRegistryConcurrentSingleBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	link := testLink(rng, 9, nil, false)
	bands := wifi.Bands5GHz()
	sweep := link.Sweep(rng, bands, 2)

	reg := newPlanRegistry(0)
	cfg := Config{Mode: Bands5GHzOnly, MaxIter: 600}.withDefaults()

	const workers = 16
	var wg sync.WaitGroup
	tofs := make([]float64, workers)
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Each goroutine gets its own Estimator (the public contract),
			// all sharing one registry — the exp worker-pool shape.
			est := &Estimator{cfg: cfg, plans: reg}
			r, err := est.Estimate(bands, sweep)
			if err != nil {
				errs[w] = err
				return
			}
			tofs[w] = r.ToF
		}(w)
	}
	wg.Wait()
	for w := 0; w < workers; w++ {
		if errs[w] != nil {
			t.Fatal(errs[w])
		}
		if tofs[w] != tofs[0] {
			t.Errorf("worker %d ToF %v != worker 0 ToF %v", w, tofs[w], tofs[0])
		}
	}
	// One 5 GHz group geometry plus its alias-disambiguation window.
	if n := reg.size(); n != 2 {
		t.Errorf("registry holds %d plans, want 2 (group + alias window)", n)
	}
	if b := reg.buildCount(); b != 2 {
		t.Errorf("registry built %d plans for %d workers, want 2", b, workers)
	}
}

func TestPlanRegistryCachesErrors(t *testing.T) {
	reg := newPlanRegistry(0)
	key := newPlanKey([]float64{1e9}, 2)
	build := func() (*ndft.Plan, error) { return ndft.NewPlan(nil, nil) }
	if _, err := reg.planFor(key, build); err == nil {
		t.Fatal("invalid build succeeded")
	}
	if _, err := reg.planFor(key, build); err == nil {
		t.Fatal("cached error lost")
	}
	if b := reg.buildCount(); b != 1 {
		t.Errorf("failed build ran %d times, want 1", b)
	}
}

// TestPlanRegistryLRUEviction exercises the occupancy bound: filling a
// small registry past maxPlans evicts the least-recently-used geometry,
// stats reflect it, and an evicted geometry is rebuilt correctly on the
// next request. The registry only keys the plans; each power here stands
// for one geometry, built on its own delay span.
func TestPlanRegistryLRUEviction(t *testing.T) {
	reg := newPlanRegistry(3)
	build := func(maxTau float64) func() (*ndft.Plan, error) {
		return func() (*ndft.Plan, error) {
			return ndft.NewPlan([]float64{5.18e9, 5.2e9, 5.22e9}, ndft.TauGrid(maxTau, 1e-9))
		}
	}
	keys := make([]planKey, 5)
	for i := range keys {
		maxTau := float64(i+1) * 10e-9
		keys[i] = newPlanKey([]float64{5.18e9, 5.2e9, 5.22e9}, i+1)
		if _, err := reg.planFor(keys[i], build(maxTau)); err != nil {
			t.Fatal(err)
		}
	}
	st := reg.stats()
	if st.Plans != 3 || st.MaxPlans != 3 {
		t.Errorf("stats plans = %d (max %d), want 3", st.Plans, st.MaxPlans)
	}
	if st.Builds != 5 || st.Evictions != 2 {
		t.Errorf("builds = %d evictions = %d, want 5 and 2", st.Builds, st.Evictions)
	}
	if st.Bytes <= 0 {
		t.Errorf("resident bytes = %d, want > 0", st.Bytes)
	}
	// keys[0] was evicted (least recently used): requesting it again
	// must rebuild a correct plan, not resurrect stale state.
	plan, err := reg.planFor(keys[0], build(10e-9))
	if err != nil {
		t.Fatal(err)
	}
	if got := plan.Taus[len(plan.Taus)-1]; got > 10e-9+1e-12 {
		t.Errorf("rebuilt plan has wrong grid end %v", got)
	}
	if b := reg.buildCount(); b != 6 {
		t.Errorf("builds after re-request = %d, want 6", b)
	}
	// Touch keys[3] (making keys[2] the LRU), insert a new geometry, and
	// confirm recency was honored.
	if _, err := reg.planFor(keys[3], build(40e-9)); err != nil {
		t.Fatal(err)
	}
	k5 := newPlanKey([]float64{5.18e9, 5.2e9, 5.22e9}, 6)
	if _, err := reg.planFor(k5, build(70e-9)); err != nil {
		t.Fatal(err)
	}
	reg.mu.RLock()
	_, lruGone := reg.entries[keys[2]]
	_, kept3 := reg.entries[keys[3]]
	reg.mu.RUnlock()
	if lruGone || !kept3 {
		t.Errorf("LRU order not honored: keys[2] present=%v keys[3] present=%v", lruGone, kept3)
	}
}

// TestSetCapRebounds pins the runtime rebound lever the service soak
// leans on: shrinking the cap evicts down to the new bound immediately,
// the previous bound is returned for restore, and growing it back does
// not resurrect evicted entries.
func TestSetCapRebounds(t *testing.T) {
	reg := newPlanRegistry(4)
	build := func(maxTau float64) func() (*ndft.Plan, error) {
		return func() (*ndft.Plan, error) {
			return ndft.NewPlan([]float64{5.18e9, 5.2e9, 5.22e9}, ndft.TauGrid(maxTau, 1e-9))
		}
	}
	for i := 0; i < 4; i++ {
		maxTau := float64(i+1) * 10e-9
		k := newPlanKey([]float64{5.18e9, 5.2e9, 5.22e9}, i+1)
		if _, err := reg.planFor(k, build(maxTau)); err != nil {
			t.Fatal(err)
		}
	}
	if prev := reg.setCap(2); prev != 4 {
		t.Errorf("setCap returned %d, want previous bound 4", prev)
	}
	st := reg.stats()
	if st.Plans != 2 || st.MaxPlans != 2 || st.Evictions != 2 {
		t.Errorf("after shrink: plans=%d max=%d evictions=%d, want 2/2/2", st.Plans, st.MaxPlans, st.Evictions)
	}
	if prev := reg.setCap(0); prev != 2 {
		t.Errorf("setCap(0) returned %d, want 2", prev)
	}
	if st = reg.stats(); st.MaxPlans != defaultMaxPlans || st.Plans != 2 {
		t.Errorf("after restore: plans=%d max=%d, want 2 resident at default bound", st.Plans, st.MaxPlans)
	}
}

// TestSetSharedPlanCap exercises the exported lever on the process-wide
// registry, restoring the bound afterward so other tests are unaffected.
func TestSetSharedPlanCap(t *testing.T) {
	prev := SetSharedPlanCap(7)
	defer SetSharedPlanCap(prev)
	if got := SharedRegistryStats().MaxPlans; got != 7 {
		t.Errorf("shared MaxPlans = %d, want 7", got)
	}
	if back := SetSharedPlanCap(prev); back != 7 {
		t.Errorf("restore returned %d, want 7", back)
	}
	SetSharedPlanCap(prev)
}

// TestPlanRegistryEvictionUnderRace hammers a bound-1 registry from many
// goroutines over more geometries than it can hold: every caller must
// still get a plan with its own geometry (an in-flight holder of an
// evicted entry keeps using it safely), and under -race this doubles as
// the eviction data-race check.
func TestPlanRegistryEvictionUnderRace(t *testing.T) {
	reg := newPlanRegistry(1)
	const workers, geoms = 8, 4
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				g := (w + i) % geoms
				maxTau := float64(g+1) * 10e-9
				key := newPlanKey([]float64{5.18e9, 5.2e9}, g+1)
				plan, err := reg.planFor(key, func() (*ndft.Plan, error) {
					return ndft.NewPlan([]float64{5.18e9, 5.2e9}, ndft.TauGrid(maxTau, 1e-9))
				})
				if err != nil {
					errs[w] = err
					return
				}
				if got := plan.Taus[len(plan.Taus)-1]; math.Abs(got-maxTau) > 1e-9+1e-12 {
					errs[w] = fmt.Errorf("geometry mismatch: grid end %v for maxTau %v", got, maxTau)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	st := reg.stats()
	if st.Plans > 1 {
		t.Errorf("bound-1 registry holds %d plans", st.Plans)
	}
	if st.Evictions == 0 {
		t.Error("no evictions recorded under churn")
	}
}

func TestSharedRegistryStats(t *testing.T) {
	// Resolve a plan through the shared registry so the snapshot must
	// report activity regardless of test ordering. No estimator inverts
	// in channel power 3, so the test plan cannot shadow a real one.
	key := newPlanKey([]float64{5.19e9, 5.21e9, 5.23e9}, 3)
	if _, err := sharedPlans.planFor(key, func() (*ndft.Plan, error) {
		return ndft.NewPlan([]float64{5.19e9, 5.21e9, 5.23e9}, ndft.TauGrid(12e-9, 1e-9))
	}); err != nil {
		t.Fatal(err)
	}
	st := SharedRegistryStats()
	if st.MaxPlans <= 0 {
		t.Errorf("shared registry has no bound: %+v", st)
	}
	if st.Plans < 1 || st.Builds < 1 || st.Bytes <= 0 {
		t.Errorf("shared registry reports no activity: %+v", st)
	}
}
