package track

import (
	"testing"

	"chronos/internal/obs"
)

// TestObsDoesNotChangeResults is the golden-trace guard for the
// observability layer: one full session with metrics
// disabled and one with metrics enabled must produce byte-identical
// fixes — instrumentation observes the pipeline, it never steers it.
func TestObsDoesNotChangeResults(t *testing.T) {
	cfg := goldenSessionConfig()

	obs.SetEnabled(false)
	plain := fixTable(runGolden(t, 9, cfg))

	obs.Reset()
	obs.SetEnabled(true)
	defer func() { obs.SetEnabled(false); obs.Reset() }()
	instrumented := fixTable(runGolden(t, 9, cfg))

	if plain != instrumented {
		t.Fatalf("instrumentation changed session results\nplain:\n%s\ninstrumented:\n%s", plain, instrumented)
	}

	// And the instrumented run actually recorded the pipeline.
	s := obs.Capture()
	for _, name := range []string{"track.fixes", "ndft.solve.requests", "tof.estimates", "hop.hops"} {
		if s.Counters[name] == 0 {
			t.Errorf("counter %s = 0 after an instrumented session", name)
		}
	}
	if got, want := s.Counters["track.fixes"], int64(cfg.Sweeps); got != want {
		t.Errorf("track.fixes = %d, want %d (one per sweep)", got, want)
	}
	if fl := s.Hists["track.fix_latency_ns"]; fl.Count != int64(cfg.Sweeps) {
		t.Errorf("fix latency count = %d, want %d", fl.Count, cfg.Sweeps)
	}
}
