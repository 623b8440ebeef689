package exp

import (
	"strings"
	"testing"
)

// TestSelect pins how chronos-bench's -fig and -ablate values resolve:
// both flags together run both sets, keys mix across figures and
// tracking campaigns, the result follows registry order whatever the
// order named, and a typo is refused with the key list.
func TestSelect(t *testing.T) {
	const paper = "3,4,7a,7b,7c,8a,8b,8c,9a,9b,9c,10a,10b"
	for _, tc := range []struct {
		name, fig, ablate string
		want              string // selected keys, comma-joined; "" with err
		err               string // substring of the error
	}{
		{name: "default runs the paper figures", want: paper},
		{name: "one figure", fig: "7a", want: "7a"},
		{name: "both flags run both sets", fig: "3", ablate: "delay", want: "3,delay"},
		{name: "figure and tracking keys mix", fig: "latency, 9b,alias,speed", want: "9b,alias,speed,latency"},
		{name: "tracking keys alone", fig: "speed,latency,capacity", want: "speed,latency,capacity"},
		{name: "ablate all", ablate: "all", want: "bands,delay,cfo,sparsity,separation"},
		{name: "ablate list", ablate: "cfo,bands", want: "bands,cfo"},
		{name: "ablate all with figures", fig: "capacity,4", ablate: "all", want: "4,bands,delay,cfo,sparsity,separation,capacity"},
		{name: "repeated key runs once", fig: "3,3", want: "3"},
		{name: "unknown figure", fig: "3,7z", err: `unknown -fig key(s) "7z" (have: ` + paper + ",alias,pipeline,speed,latency,capacity)"},
		{name: "ablation key under -fig", fig: "delay", err: `unknown -fig key(s) "delay"`},
		{name: "figure key under -ablate", ablate: "3", err: `unknown -ablate key(s) "3" (have: bands,delay,cfo,sparsity,separation,all)`},
		{name: "all is not a figure", fig: "all", err: `unknown -fig key(s) "all"`},
		{name: "commas and spaces only", fig: " , ,", err: `no campaign selected by -fig " , ,"`},
		{name: "spaces only", fig: " ", err: "no campaign selected by -fig"},
		{name: "empty ablate list", fig: "3", ablate: ",", err: `no campaign selected by -ablate ","`},
		{name: "unknown key fails with a good one", fig: "3", ablate: "cfo,nope", err: `unknown -ablate key(s) "nope"`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sel, err := Select(tc.fig, tc.ablate)
			if tc.err != "" {
				if err == nil || !strings.Contains(err.Error(), tc.err) {
					t.Fatalf("Select(%q, %q) = %s, %v; want error containing %q", tc.fig, tc.ablate, Keys(sel), err, tc.err)
				}
				if sel != nil {
					t.Errorf("Select(%q, %q) returned campaigns %s with its error", tc.fig, tc.ablate, Keys(sel))
				}
				return
			}
			if err != nil {
				t.Fatalf("Select(%q, %q): %v", tc.fig, tc.ablate, err)
			}
			if got := Keys(sel); got != tc.want {
				t.Errorf("Select(%q, %q) = %s, want %s", tc.fig, tc.ablate, got, tc.want)
			}
		})
	}
}

// TestCampaignKeysUnique pins what Select relies on: a key names one
// campaign across Figures, Ablations and TrackCampaigns, and none is
// "all", which -ablate reserves. The default run reads no wall clock.
func TestCampaignKeysUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, list := range registry {
		for _, c := range list {
			if c.Key == "" || c.Key == "all" || strings.ContainsAny(c.Key, ", ") {
				t.Errorf("campaign key %q cannot be selected", c.Key)
			}
			if seen[c.Key] {
				t.Errorf("campaign key %q registered twice", c.Key)
			}
			seen[c.Key] = true
			if c.WallClock && !c.ExplicitOnly {
				t.Errorf("wall-clock campaign %q runs by default", c.Key)
			}
		}
	}
}
