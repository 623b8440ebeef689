//go:build !race

package track

const raceEnabled = false
