//go:build race

package store

const raceEnabled = true
