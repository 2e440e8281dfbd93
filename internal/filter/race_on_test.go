//go:build race

package filter

const raceEnabled = true
