//go:build race

package upcxx

const raceEnabled = true
