//go:build race

package gasnet

const raceEnabled = true // a released receive body is poisoned (recvBody.release)
