//go:build !race

package tof

const raceEnabled = false
