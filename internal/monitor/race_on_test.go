//go:build race

package monitor

const raceEnabled = true
