package tof

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"sync"
	"sync/atomic"

	"chronos/internal/ndft"
)

// planKey is the fixed-size signature of one inversion geometry: the
// channel power (which fixes the delay-domain scaling) and the frequency
// list (hashed, plus its length so unequal-length collisions are
// impossible); the τ lattice is the package's fixed grid. A comparable
// struct costs one FNV pass over the frequency bits and no heap traffic.
type planKey struct {
	power    int
	nFreq    int
	freqHash uint64
	// window marks the fixed-width alias-disambiguation geometry, which
	// shares its frequencies and power with the group's main grid.
	window bool
}

func newPlanKey(freqs []float64, power int) planKey {
	h := fnv.New64a()
	var b [8]byte
	for _, f := range freqs {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(f))
		h.Write(b[:])
	}
	return planKey{power: power, nFreq: len(freqs), freqHash: h.Sum64()}
}

// defaultMaxPlans bounds the shared registry. The fixed evaluation
// geometries use a handful of plans; a long-running multi-tenant service
// sweeping many configurations is what the bound protects. At the
// evaluation dimensions a plan is a few hundred kilobytes of planar
// dictionary, so 64 resident geometries cap the registry around tens of
// megabytes.
const defaultMaxPlans = 64

// planRegistry shares ndft.Plans across every Estimator that uses it:
// the exp worker pool, Sweep accumulators, and the multi-device track
// schedulers all resolve the same band-group signature to one plan
// instead of rebuilding identical dictionaries per worker. Lookups take
// a read lock; each key's plan is built exactly once (a sync.Once per
// entry), with concurrent requesters blocking on the build rather than
// duplicating it. Plans are immutable and their solves are internally
// synchronized, so handing one plan to many goroutines is safe.
//
// Occupancy is LRU-bounded: each hit stamps the entry with a logical
// clock tick, and an insert that exceeds maxPlans evicts the
// least-recently-stamped entries. Eviction is safe under races — a
// goroutine still holding an evicted entry finishes (or awaits) its
// build and uses the plan normally; the plan is simply no longer cached,
// and the next request for that geometry rebuilds it.
type planRegistry struct {
	mu        sync.RWMutex
	entries   map[planKey]*planEntry
	maxPlans  int
	clock     atomic.Int64 // logical recency clock
	builds    atomic.Int64 // dictionary constructions actually performed
	evictions atomic.Int64 // entries dropped by the LRU bound
}

type planEntry struct {
	once sync.Once
	plan *ndft.Plan
	err  error
	// Built with the plan from the frequencies and the power that key it:
	// a main plan's delay grid in true τ (planForGroup), and a window
	// plan's alias-discrimination weights (aliasWeights). Each is nil on
	// the other kind of plan.
	taus, weights []float64
	lastUsed      atomic.Int64
	bytes         atomic.Int64
}

// newPlanRegistry builds a registry bounded to maxPlans resident
// geometries (0 means the default bound).
func newPlanRegistry(maxPlans int) *planRegistry {
	if maxPlans <= 0 {
		maxPlans = defaultMaxPlans
	}
	return &planRegistry{entries: make(map[planKey]*planEntry), maxPlans: maxPlans}
}

// sharedPlans is the process-wide default registry. Every Estimator
// built by NewEstimator resolves plans here.
var sharedPlans = newPlanRegistry(0)

// entryFor returns key's entry, filled by build on first use: build sets
// the plan or the error, and anything derived alongside the plan.
func (r *planRegistry) entryFor(key planKey, build func(*planEntry)) *planEntry {
	obsRegistryLookups.Inc()
	r.mu.RLock()
	e := r.entries[key]
	r.mu.RUnlock()
	if e == nil {
		r.mu.Lock()
		if e = r.entries[key]; e == nil {
			e = &planEntry{}
			// Stamp before publishing so a racing insert cannot see this
			// entry at recency zero and evict it immediately.
			e.lastUsed.Store(r.clock.Add(1))
			r.entries[key] = e
			r.evictLocked(e)
		}
		r.mu.Unlock()
	}
	e.lastUsed.Store(r.clock.Add(1))
	e.once.Do(func() {
		r.builds.Add(1)
		build(e)
		if e.plan != nil {
			e.bytes.Store(e.plan.MemoryBytes())
		}
	})
	return e
}

// evictLocked drops least-recently-used entries until the bound holds,
// sparing keep (the entry just inserted). Callers hold r.mu.
func (r *planRegistry) evictLocked(keep *planEntry) {
	for len(r.entries) > r.maxPlans {
		var victimKey planKey
		var victim *planEntry
		for k, e := range r.entries {
			if e == keep {
				continue
			}
			if victim == nil || e.lastUsed.Load() < victim.lastUsed.Load() {
				victim, victimKey = e, k
			}
		}
		if victim == nil {
			return
		}
		delete(r.entries, victimKey)
		r.evictions.Add(1)
	}
}

// RegistryStats is a point-in-time snapshot of a plan registry's
// occupancy and lifetime counters — the observability surface for
// long-running services sweeping many estimator configurations.
type RegistryStats struct {
	Plans     int   // resident geometries
	MaxPlans  int   // LRU bound on resident geometries
	Builds    int64 // dictionary builds performed over the lifetime
	Evictions int64 // entries dropped by the LRU bound
	Bytes     int64 // approximate resident bytes across built plans
}

// stats snapshots the registry.
func (r *planRegistry) stats() RegistryStats {
	r.mu.RLock()
	defer r.mu.RUnlock()
	s := RegistryStats{
		Plans:     len(r.entries),
		MaxPlans:  r.maxPlans,
		Builds:    r.builds.Load(),
		Evictions: r.evictions.Load(),
	}
	for _, e := range r.entries {
		s.Bytes += e.bytes.Load()
	}
	return s
}

// SharedRegistryStats reports the process-wide plan registry every
// NewEstimator-built estimator resolves plans from.
func SharedRegistryStats() RegistryStats { return sharedPlans.stats() }

// setCap rebounds the registry to maxPlans (0 restores the default) and
// evicts down to the new bound immediately. Returns the previous bound.
func (r *planRegistry) setCap(maxPlans int) int {
	if maxPlans <= 0 {
		maxPlans = defaultMaxPlans
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	prev := r.maxPlans
	r.maxPlans = maxPlans
	r.evictLocked(nil)
	return prev
}

// SetSharedPlanCap rebounds the process-wide plan registry and returns
// the previous bound, evicting least-recently-used plans immediately if
// the new bound is tighter. Shrinking the cap is an operational lever
// (and a test lever: the service soak pins registry-eviction behavior
// under churn by forcing a tiny bound); correctness is unaffected either
// way — an evicted geometry simply rebuilds on next use. Callers should
// restore the previous bound when done:
//
//	defer tof.SetSharedPlanCap(tof.SetSharedPlanCap(8))
func SetSharedPlanCap(maxPlans int) int { return sharedPlans.setCap(maxPlans) }

// size reports how many distinct geometries the registry holds.
func (r *planRegistry) size() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.entries)
}

// buildCount reports how many dictionary builds actually ran.
func (r *planRegistry) buildCount() int64 { return r.builds.Load() }
