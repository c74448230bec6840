//go:build !race

package xproc

const raceEnabled = false
