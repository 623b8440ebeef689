package exp

import (
	"math/rand"
	"reflect"
	"testing"

	"chronos/internal/tof"
)

func TestTrialSeedSplits(t *testing.T) {
	seen := map[int64]bool{}
	for _, id := range []string{"fig7a/LOS", "fig7a/NLOS", "fig8b/LOS"} {
		for trial := 0; trial < 50; trial++ {
			s := trialSeed(7, id, trial)
			if seen[s] {
				t.Fatalf("seed collision at %s trial %d", id, trial)
			}
			seen[s] = true
		}
	}
	if got := trialSeed(7, "fig7a/LOS", 3); got != trialSeed(7, "fig7a/LOS", 3) {
		t.Errorf("trialSeed not stable: %d", got)
	}
}

func TestWorkerCountResolution(t *testing.T) {
	if n := (Options{Workers: 3}).workerCount(); n != 3 {
		t.Errorf("explicit workers = %d, want 3", n)
	}
	if n := (Options{}).workerCount(); n < 1 {
		t.Errorf("default workers = %d, want >= 1", n)
	}
}

// TestRunTrialsOrderAndCompaction checks the engine's core contract: the
// result order matches trial-index order regardless of worker count, and
// dropped trials compact without reordering survivors.
func TestRunTrialsOrderAndCompaction(t *testing.T) {
	run := func(workers int) []int {
		o := Options{Seed: 11, Workers: workers}
		return runTrials(o, "order", 64, func(trial int, rng *rand.Rand) (int, bool) {
			_ = rng.Int63() // consume the per-trial stream
			return trial, trial%5 != 0
		})
	}
	serial := run(1)
	if len(serial) != 64-13 {
		t.Fatalf("kept %d trials, want 51", len(serial))
	}
	for i := 1; i < len(serial); i++ {
		if serial[i] <= serial[i-1] {
			t.Fatalf("results out of trial order: %v", serial)
		}
	}
	for _, workers := range []int{2, 8, 100} {
		if got := run(workers); !reflect.DeepEqual(got, serial) {
			t.Errorf("workers=%d diverged from serial: %v vs %v", workers, got, serial)
		}
	}
}

// TestRunTrialsRNGIsPerTrial checks that a trial's random draws depend
// only on (seed, campaign, index) — the property the whole determinism
// story rests on.
func TestRunTrialsRNGIsPerTrial(t *testing.T) {
	draw := func(workers, trials int) []int64 {
		o := Options{Seed: 5, Workers: workers}
		return runTrials(o, "rng", trials, func(trial int, rng *rand.Rand) (int64, bool) {
			return rng.Int63(), true
		})
	}
	a, b := draw(1, 16), draw(7, 16)
	if !reflect.DeepEqual(a, b) {
		t.Errorf("per-trial draws depend on worker count:\n%v\n%v", a, b)
	}
	// A prefix of a longer campaign must match the shorter one: trial
	// seeds do not depend on the campaign size.
	c := draw(3, 8)
	if !reflect.DeepEqual(a[:8], c) {
		t.Errorf("trial streams depend on campaign size:\n%v\n%v", a[:8], c)
	}
}

// TestToFCampaignParallelSmoke runs a real (if tiny) ToF campaign with
// concurrent workers and compares it against a serial run. Unlike the
// figure-scale determinism tests it is NOT skipped in short mode: it is
// the one test that drives one shared estimator (every worker calibrates
// and estimates on it), the solver's sync.Pool and the shared read-only
// office through runTrials under the -race CI lane.
func TestToFCampaignParallelSmoke(t *testing.T) {
	cfg := tof.Config{Mode: tof.Bands5GHzOnly, MaxIter: 300}
	run := func(workers int) []tofTrial {
		o := Options{Seed: 2, Workers: workers}
		return runToFCampaign(o, "smoke", newOffice(o), cfg, 4, false, 12)
	}
	serial, pooled := run(1), run(4)
	if len(serial) == 0 {
		t.Fatal("smoke campaign produced no trials")
	}
	if !reflect.DeepEqual(serial, pooled) {
		t.Errorf("parallel ToF campaign diverged from serial:\n%v\n%v", serial, pooled)
	}
}

// resultEqual compares two campaign results down to every rendered cell.
func resultEqual(t *testing.T, name string, a, b *Result) {
	t.Helper()
	if a.String() != b.String() {
		t.Errorf("%s tables differ across worker counts:\n--- workers=1:\n%s--- workers=8:\n%s", name, a, b)
	}
	if !reflect.DeepEqual(a.Metrics, b.Metrics) {
		t.Errorf("%s metrics differ: %v vs %v", name, a.Metrics, b.Metrics)
	}
}

// TestFigureDeterministicAcrossWorkers runs a representative figure
// campaign serially and with an oversubscribed pool; the Result tables
// must be bit-identical (the ISSUE's acceptance criterion).
func TestFigureDeterministicAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign experiment")
	}
	serial := Fig7a(Options{Seed: 3, Trials: 4, Workers: 1})
	pooled := Fig7a(Options{Seed: 3, Trials: 4, Workers: 8})
	resultEqual(t, "fig7a", serial, pooled)
}

// TestAblationDeterministicAcrossWorkers does the same for an ablation.
func TestAblationDeterministicAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign experiment")
	}
	serial := AblationCFO(Options{Seed: 3, Trials: 3, Workers: 1})
	pooled := AblationCFO(Options{Seed: 3, Trials: 3, Workers: 8})
	resultEqual(t, "ablate-cfo", serial, pooled)
}

// TestLocalizationDeterministicAcrossWorkers covers the array-campaign
// path (per-trial redraw loops included).
func TestLocalizationDeterministicAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign experiment")
	}
	serial := Fig8b(Options{Seed: 3, Trials: 2, Workers: 1})
	pooled := Fig8b(Options{Seed: 3, Trials: 2, Workers: 8})
	resultEqual(t, "fig8b", serial, pooled)
}

// TestFig10aDeterministicAcrossWorkers covers the drone flights: each
// trial calibrates its own full-pipeline sensor, and the sensors'
// estimators share the plan registry concurrently. It runs in short mode
// too, so the race lane sees that sharing.
func TestFig10aDeterministicAcrossWorkers(t *testing.T) {
	serial := Fig10a(Options{Seed: 3, Trials: 2, Workers: 1})
	pooled := Fig10a(Options{Seed: 3, Trials: 2, Workers: 8})
	resultEqual(t, "fig10a", serial, pooled)
}
