package main

import (
	"encoding/json"
	"math"
	"os"
	"slices"
	"testing"
)

// TestWorkloadsSmoke runs every workload at its smallest size in check
// mode, untraced and traced: exact fix accounting, finite ranges,
// error-free retirement and byte-for-byte agreement with sequential
// sessions, plus every metric of the mode present and finite. A change to
// the exported APIs the harness drives fails here (or fails to build)
// before it breaks a benchmark run.
func TestWorkloadsSmoke(t *testing.T) {
	for name := range workloads {
		for _, traced := range []bool{false, true} {
			o := options{workload: name, seed: 1, seconds: 1, check: true, traced: traced}
			r, err := measure(o, false)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			for _, p := range r.Problems {
				t.Errorf("%s traced=%v: %s", name, traced, p)
			}
			if r.Attempted == 0 || r.Failed != 0 {
				t.Errorf("%s traced=%v: attempted %d, failed %d", name, traced, r.Attempted, r.Failed)
			}
			specs := endToEnd
			if traced {
				specs = perLayer
			}
			for _, s := range specs {
				if s.name == "setup_s" || s.name == "trace_overhead_pct" {
					continue // added by the parent process
				}
				v, ok := r.Metrics[s.name]
				if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("%s traced=%v: metric %s = %v, present %v", name, traced, s.name, v, ok)
				}
			}
		}
	}
}

// TestBenchmarkFileMatchesHarness keeps BENCHMARK.json and the harness's
// metric tables and workloads in step.
func TestBenchmarkFileMatchesHarness(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	for name := range workloads {
		if !slices.Contains(names, name) {
			t.Errorf("workload %s missing from BENCHMARK.json", name)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, harness has %d", len(names), len(workloads))
	}
	for _, tc := range []struct {
		file    []struct{ Name, Unit string }
		harness []metricSpec
	}{{spec.EndToEnd, endToEnd}, {spec.PerLayer, perLayer}} {
		if len(tc.file) != len(tc.harness) {
			t.Errorf("BENCHMARK.json lists %d metrics, harness %d", len(tc.file), len(tc.harness))
			continue
		}
		for i, m := range tc.file {
			if m.Name != tc.harness[i].name || m.Unit != tc.harness[i].unit {
				t.Errorf("metric %d: BENCHMARK.json %s (%s), harness %s (%s)",
					i, m.Name, m.Unit, tc.harness[i].name, tc.harness[i].unit)
			}
		}
	}
}
