//go:build race

package track

// raceEnabled reports that this test binary was built with the race
// detector, under which sync.Pool deliberately drops items, so the
// solver's pooled workspaces are rebuilt and steady-state allocation
// counts cannot be observed.
const raceEnabled = true
