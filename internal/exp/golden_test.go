package exp

import (
	"bytes"
	"flag"
	"os"
	"runtime"
	"testing"

	"chronos/internal/obs"
)

// campaignGolden is the committed JSON of every registered campaign but
// the wall-clock ones, at seed 1 and default trials: what `chronos-bench
// -json`, `chronos-bench -ablate all -json` and `chronos-bench -fig
// speed,latency,capacity -json` print, as one array. Regenerate it with
// `go test ./internal/exp -run TestCampaignGolden -update` only when a
// change is meant to move a figure, say so in the change, and update
// the rows it moved in EXPERIMENTS.md.
const campaignGolden = "testdata/campaigns.json"

var update = flag.Bool("update", false, "rewrite "+campaignGolden+" from this build")

// TestCampaignGolden pins every figure, ablation and tracking campaign
// across commits. The determinism tests compare two
// runs of one build; this one compares against tables recorded by an
// earlier build, on every amd64 kernel tier.
func TestCampaignGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size campaigns")
	}
	if runtime.GOARCH != "amd64" {
		t.Skipf("fixture recorded on amd64; Go fuses multiply-adds on %s, which moves the low bits of a figure", runtime.GOARCH)
	}
	// WriteJSON appends an obs snapshot while the layer is on.
	defer obs.SetEnabled(obs.Enabled())
	obs.SetEnabled(false)

	var results []*Result
	for _, list := range registry {
		for _, c := range list {
			if !c.WallClock {
				results = append(results, c.Run(Options{Seed: 1}))
			}
		}
	}
	var got bytes.Buffer
	if err := WriteJSON(&got, results); err != nil {
		t.Fatal(err)
	}
	if *update {
		if err := os.WriteFile(campaignGolden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(campaignGolden)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	// Name the first line that moved and the campaign it belongs to;
	// `git diff` after -update shows the rest.
	gotLines, wantLines := bytes.Split(got.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(gotLines) && i < len(wantLines); i++ {
		if bytes.Equal(gotLines[i], wantLines[i]) {
			continue
		}
		id := []byte("?")
		for j := i; j >= 0; j-- {
			if l := bytes.TrimSpace(wantLines[j]); bytes.HasPrefix(l, []byte(`"id":`)) {
				id = l
				break
			}
		}
		t.Fatalf("campaigns moved from %s at line %d (%s):\ngot:  %s\nwant: %s", campaignGolden, i+1, id, gotLines[i], wantLines[i])
	}
	t.Fatalf("campaigns moved from %s: %d lines, want %d", campaignGolden, len(gotLines), len(wantLines))
}
