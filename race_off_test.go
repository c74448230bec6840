//go:build !race

package upcxx_test

const raceEnabled = false
