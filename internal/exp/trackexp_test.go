package exp

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"chronos/internal/tof"
	"chronos/internal/track"
)

// TestTrackCapacityDeterministicAcrossWorkers is the tracking acceptance
// criterion at the cheap (protocol-level) campaign: the rendered table
// must be byte-identical for Workers=1 and Workers=8. Not skipped in
// short mode — it is fast and covers the new campaign under -race.
func TestTrackCapacityDeterministicAcrossWorkers(t *testing.T) {
	serial := TrackCapacity(Options{Seed: 3, Trials: 3, Workers: 1})
	pooled := TrackCapacity(Options{Seed: 3, Trials: 3, Workers: 8})
	resultEqual(t, "track-capacity", serial, pooled)
}

// TestTrackSpeedDeterministicAcrossWorkers covers the full-pipeline
// streaming campaign (one estimator per session, sessions concurrent).
func TestTrackSpeedDeterministicAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign experiment")
	}
	serial := TrackSpeed(Options{Seed: 3, Trials: 2, Workers: 1})
	pooled := TrackSpeed(Options{Seed: 3, Trials: 2, Workers: 8})
	resultEqual(t, "track-speed", serial, pooled)
}

// TestTrackCapacityShape checks the capacity trends the scheduler must
// show: per-device fix latency grows with contention while aggregate
// throughput stays within the same order.
func TestTrackCapacityShape(t *testing.T) {
	r := TrackCapacity(Options{Trials: 4})
	if r.Metrics["fix_latency_n16_ms"] <= r.Metrics["fix_latency_n1_ms"] {
		t.Errorf("16-device fix latency (%v ms) not above single-device (%v ms)",
			r.Metrics["fix_latency_n16_ms"], r.Metrics["fix_latency_n1_ms"])
	}
	if f1 := r.Metrics["fixes_per_sec_n1"]; f1 < 5 || f1 > 20 {
		t.Errorf("single-device fix rate = %v/s, want ≈12 (84 ms sweeps)", f1)
	}
	if r.Metrics["util_n16"] >= r.Metrics["util_n1"] {
		t.Errorf("airtime utilization did not drop under contention")
	}
}

// TestTrackLatencyShape checks the early-fix trade-off on the first
// early row (the first checkpoint's folded bands): fewer bands mean
// strictly lower latency, and the full-sweep fix is the most accurate.
func TestTrackLatencyShape(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign experiment")
	}
	r := TrackLatency(Options{Trials: 2})
	if len(r.Rows) < 2 {
		t.Fatalf("%d rows, want early rows before the full sweep's", len(r.Rows))
	}
	early := r.Rows[0][0] + "bands"
	if lat := r.Metrics["median_latency_"+early+"_ms"]; lat >= r.Metrics["median_latency_full_ms"] {
		t.Errorf("%s latency (%v ms) not below full-sweep (%v ms)", early, lat, r.Metrics["median_latency_full_ms"])
	}
	if full := r.Metrics["median_err_full_m"]; full > 1.5 {
		t.Errorf("full-sweep median error = %v m, want sub-meter-ish", full)
	}
	if e := r.Metrics["median_err_"+early+"_m"]; e <= r.Metrics["median_err_full_m"] {
		t.Errorf("%s early fixes (%v m) should be less accurate than full sweeps (%v m)",
			early, e, r.Metrics["median_err_full_m"])
	}
}

// TestTrackSpeedSmoothingHelps checks the campaign's headline: at walking
// speed the Kalman-smoothed RMSE must not exceed the raw per-sweep RMSE.
func TestTrackSpeedSmoothingHelps(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign experiment")
	}
	r := TrackSpeed(Options{Trials: 2})
	for _, key := range []string{"v0.0", "v1.0"} {
		raw, smooth := r.Metrics["raw_rmse_"+key+"_m"], r.Metrics["smooth_rmse_"+key+"_m"]
		if !(raw > 0) || !(smooth > 0) {
			t.Fatalf("%s RMSEs not computed: raw=%v smooth=%v", key, raw, smooth)
		}
		if smooth > raw*1.25 {
			t.Errorf("%s smoothed RMSE (%v m) well above raw (%v m)", key, smooth, raw)
		}
	}
}

// TestWriteJSONRoundTrips renders results as JSON and checks the schema
// the -json flag promises.
func TestWriteJSONRoundTrips(t *testing.T) {
	in := []*Result{{
		ID: "demo", Title: "Demo", Header: []string{"a"},
		Rows: [][]string{{"1"}}, Metrics: map[string]float64{"m": 2.5},
	}}
	var buf bytes.Buffer
	if err := WriteJSON(&buf, in); err != nil {
		t.Fatal(err)
	}
	var out []struct {
		ID      string             `json:"id"`
		Title   string             `json:"title"`
		Header  []string           `json:"header"`
		Rows    [][]string         `json:"rows"`
		Metrics map[string]float64 `json:"metrics"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}
	if len(out) != 1 || out[0].ID != "demo" || out[0].Metrics["m"] != 2.5 {
		t.Errorf("round trip lost data: %+v", out)
	}
}

// TestTrackGoldenTraceAcrossWorkers is the golden-trace acceptance test
// for moving-target sessions: a fixed-seed campaign must produce
// byte-identical per-fix tables at Workers=1 and Workers=8 (session
// state is per-session, so worker scheduling must not leak into fixes).
func TestTrackGoldenTraceAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign experiment")
	}
	office := newOffice(Options{Seed: 5})
	trace := func(workers int) []string {
		o := Options{Seed: 5, Workers: workers}
		return runTrials(o, "golden-trace", 4, func(trial int, rng *rand.Rand) (string, bool) {
			est := tof.NewEstimator(defaultToFConfig())
			r, err := track.RunSession(rng, office, est, track.SessionConfig{Speed: 1.2, Sweeps: 4})
			if err != nil || len(r.Fixes) == 0 {
				return "", false
			}
			var b strings.Builder
			for _, f := range r.Fixes {
				fmt.Fprintf(&b, "t%d at=%d bands=%d range=%x true=%x acc=%v\n",
					trial, f.At, f.Bands, f.Range, f.TrueRange, f.Accepted)
			}
			return b.String(), true
		})
	}
	serial := trace(1)
	if len(serial) == 0 {
		t.Fatal("no trial produced fixes")
	}
	if pooled := trace(8); strings.Join(serial, "") != strings.Join(pooled, "") {
		t.Errorf("fix tables differ across worker counts:\n%v\nvs\n%v", serial, pooled)
	}
}
