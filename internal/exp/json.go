package exp

import (
	"encoding/json"
	"io"

	"chronos/internal/obs"
)

// jsonResult decorates one Result with an optional observability
// snapshot. Embedding keeps the existing BENCH fields byte-for-byte
// unchanged (the wrapper promotes them at the same JSON keys); the
// "obs" object is additive and appears only on the element that
// carries the snapshot.
type jsonResult struct {
	*Result
	Obs *obs.Snapshot `json:"obs,omitempty"`
}

// WriteJSON renders campaign results as an indented JSON array so the
// tables the binaries print are also machine-readable (the BENCH_*.json
// trajectory). The encoding is the Result struct verbatim: id, title,
// header, rows and the headline metrics map. When the observability
// layer is enabled (obs.SetEnabled), the last element additionally
// carries the process-wide obs.Snapshot — counters, gauges, and stage
// latency histograms accumulated across every campaign in the run —
// under an "obs" key; the schema change is purely additive.
func WriteJSON(w io.Writer, results []*Result) error {
	out := make([]jsonResult, len(results))
	for i, r := range results {
		out[i] = jsonResult{Result: r}
	}
	if obs.Enabled() && len(out) > 0 {
		out[len(out)-1].Obs = obs.Capture()
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}
