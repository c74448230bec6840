//go:build race

package task

const raceEnabled = true
