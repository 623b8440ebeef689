package track

import (
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"testing"

	"chronos/internal/sim"
	"chronos/internal/tof"
)

// goldenSessionConfig is the fixture session: a moving target tracked
// with warm starts and velocity-translated seeds — the full steady-state
// pipeline this PR locks down.
func goldenSessionConfig() SessionConfig {
	return SessionConfig{
		Speed:             1.2,
		Sweeps:            5,
		WarmStart:         true,
		VelocityTranslate: true,
		EarlyFixBands:     []int{8},
	}
}

// fixTable renders a session's fixes (early and final) at full float
// precision, with each fix's solver cost and convergence, so two runs
// compare byte-for-byte.
func fixTable(r *SessionResult) string {
	var b strings.Builder
	for _, f := range append(append([]Fix{}, r.EarlyFixes...), r.Fixes...) {
		fmt.Fprintf(&b, "at=%d lat=%d bands=%d range=%x true=%x early=%v acc=%v work=%d conv=%v\n",
			f.At, f.Latency, f.Bands, f.Range, f.TrueRange, f.Early, f.Accepted, f.Work, f.Converged)
	}
	return b.String()
}

func runGolden(t *testing.T, seed int64, cfg SessionConfig) *SessionResult {
	t.Helper()
	office := sim.NewOffice(rand.New(rand.NewSource(3)), sim.OfficeConfig{})
	est := tof.NewEstimator(tof.Config{Mode: tof.BandsFused, Quirk24: true, MaxIter: 1200})
	r, err := RunSession(rand.New(rand.NewSource(seed)), office, est, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Fixes) == 0 {
		t.Fatal("session produced no fixes")
	}
	return r
}

// TestSessionGoldenTraceDeterministic pins the warm, velocity-translated
// session's full fix table: two runs from the same seed must agree
// byte-for-byte (warm-start state, translation, and alias refits are all
// deterministic for a given measurement stream).
func TestSessionGoldenTraceDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("full-pipeline session")
	}
	a := fixTable(runGolden(t, 11, goldenSessionConfig()))
	b := fixTable(runGolden(t, 11, goldenSessionConfig()))
	if a != b {
		t.Errorf("same-seed sessions diverged:\n%s\nvs\n%s", a, b)
	}
	if a == "" {
		t.Error("empty fix table")
	}
}

// goldenFixture is the committed fix table of the golden session for
// seeds 11–14. Regenerate it with `go test ./internal/track -run
// TestSessionGoldenTraceFixture -update` only when a change is meant to
// move fixes, and say so in the change.
const goldenFixture = "testdata/golden_fixes.txt"

var update = flag.Bool("update", false, "rewrite "+goldenFixture+" from this build")

// TestSessionGoldenTraceFixture pins the golden session's fixes across
// commits: the determinism tests compare two runs of one build, so a
// refactor that moved every fix alike would pass them; this one compares
// against a table recorded by an earlier build. The table holds on every
// amd64 kernel tier (avx2, scalar).
func TestSessionGoldenTraceFixture(t *testing.T) {
	if testing.Short() {
		t.Skip("full-pipeline sessions")
	}
	if runtime.GOARCH != "amd64" {
		t.Skipf("fixture recorded on amd64; Go fuses multiply-adds on %s, which moves the low bits of a fix", runtime.GOARCH)
	}
	var b strings.Builder
	for seed := int64(11); seed <= 14; seed++ {
		fmt.Fprintf(&b, "seed=%d\n%s", seed, fixTable(runGolden(t, seed, goldenSessionConfig())))
	}
	got := b.String()
	if *update {
		if err := os.WriteFile(goldenFixture, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(goldenFixture)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("fix table moved from %s:\ngot:\n%s\nwant:\n%s", goldenFixture, got, want)
	}
}

// TestSessionWarmTranslatedMatchesCold pins the accuracy contract of the
// fast path: warm starts with velocity translation must reproduce the
// cold session's raw ranges within solver tolerance, fix for fix.
func TestSessionWarmTranslatedMatchesCold(t *testing.T) {
	if testing.Short() {
		t.Skip("full-pipeline session")
	}
	warmCfg := goldenSessionConfig()
	coldCfg := warmCfg
	coldCfg.WarmStart, coldCfg.VelocityTranslate = false, false
	warm := runGolden(t, 11, warmCfg)
	cold := runGolden(t, 11, coldCfg)
	if len(warm.Fixes) != len(cold.Fixes) {
		t.Fatalf("fix counts differ: warm %d cold %d", len(warm.Fixes), len(cold.Fixes))
	}
	for i := range warm.Fixes {
		if d := math.Abs(warm.Fixes[i].Range - cold.Fixes[i].Range); d > 0.05 {
			t.Errorf("fix %d: warm range %.4f differs from cold %.4f by %.4f m",
				i, warm.Fixes[i].Range, cold.Fixes[i].Range, d)
		}
	}
	if math.Abs(warm.RawRMSE-cold.RawRMSE) > 0.05 {
		t.Errorf("warm RawRMSE %.4f vs cold %.4f", warm.RawRMSE, cold.RawRMSE)
	}
}

// TestSessionVelocityTranslateRequiresWarm checks the config contract:
// translation without warm starts is a no-op session that still runs.
func TestSessionVelocityTranslateRequiresWarm(t *testing.T) {
	if testing.Short() {
		t.Skip("full-pipeline session")
	}
	cfg := goldenSessionConfig()
	cfg.WarmStart = false // VelocityTranslate left on; must be ignored
	cfg.Sweeps = 2
	r := runGolden(t, 7, cfg)
	if len(r.Fixes) != 2 {
		t.Errorf("fixes = %d, want 2", len(r.Fixes))
	}
}
