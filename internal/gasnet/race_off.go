//go:build !race

package gasnet

const raceEnabled = false
