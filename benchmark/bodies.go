package main

import (
	"encoding/binary"
	"sync"
	"time"

	"upcxx"
)

// Functions that execute at the target rank. They are registered by name
// so the same bodies run in sibling rank processes on shm/tcp; in-process
// worlds share this package's globals between their goroutine ranks, so
// anything a body mutates is keyed by rank.

// rankState is what the bench's bodies mutate at one rank. Bodies run on
// the goroutine that drives that rank's progress, which is also the only
// reader, so the fields need no further synchronisation.
type rankState struct {
	ffCount, ffSum uint64
	spinStop       bool
}

var states sync.Map // *upcxx.Rank → *rankState

func stateOf(rk *upcxx.Rank) *rankState {
	if v, ok := states.Load(rk); ok {
		return v.(*rankState)
	}
	v, _ := states.LoadOrStore(rk, &rankState{})
	return v.(*rankState)
}

// echoMask makes the RPC reply differ from the argument, so an echo that
// returns its input unchanged fails the check.
const echoMask = 0x5bd1e9955bd1e995

// wordSum is the payload checksum: the wrapping sum of the little-endian
// 64-bit words (and trailing bytes). One add per word keeps the target's
// cost small against a 64 KiB transfer.
func wordSum(b []byte) uint64 {
	var s uint64
	for ; len(b) >= 8; b = b[8:] {
		s += binary.LittleEndian.Uint64(b)
	}
	for _, c := range b {
		s += uint64(c)
	}
	return s
}

func echoI64(_ *upcxx.Rank, x int64) int64 { return x ^ echoMask }

func echoView(_ *upcxx.Rank, v upcxx.View[byte]) uint64 { return wordSum(v.Elements()) }

func ffI64(trk *upcxx.Rank, x int64) {
	st := stateOf(trk)
	st.ffCount++
	st.ffSum += uint64(x)
}

func ffView(trk *upcxx.Rank, v upcxx.View[byte]) {
	st := stateOf(trk)
	st.ffCount++
	st.ffSum += wordSum(v.Elements())
}

// ffTotals is the rpc_ff counter read back by the closing RPC.
type ffTotals struct{ Count, Sum uint64 }

func ffRead(trk *upcxx.Rank, _ uint8) ffTotals {
	st := stateOf(trk)
	return ffTotals{st.ffCount, st.ffSum}
}

// sigBump is the signaling put's remote completion: one counter increment
// after the payload is visible at the target.
func sigBump(trk *upcxx.Rank, c upcxx.GPtr[uint64]) { upcxx.Local(trk, c, 1)[0]++ }

// stopSpin ends the target's busy-progress loop of the wake-cost phase.
func stopSpin(trk *upcxx.Rank, _ uint8) { stateOf(trk).spinStop = true }

func taskI64(_ *upcxx.Rank, x int64) int64 { return x ^ echoMask }

func taskBytes(_ *upcxx.Rank, b []byte) uint64 { return wordSum(b) }

func nopTask(_ *upcxx.Rank, _ int64) {}

// grainTask is sleep-shaped work: parked, not CPU-bound, so a thief on a
// 2-core host can overlap it.
func grainTask(_ *upcxx.Rank, us int64) { time.Sleep(time.Duration(us) * time.Microsecond) }

func init() {
	upcxx.RegisterRPC(echoI64)
	upcxx.RegisterRPC(echoView)
	upcxx.RegisterRPC(ffRead)
	upcxx.RegisterRPCFF(ffI64)
	upcxx.RegisterRPCFF(ffView)
	upcxx.RegisterRPCFF(sigBump)
	upcxx.RegisterRPCFF(stopSpin)
	upcxx.RegisterTask(taskI64)
	upcxx.RegisterTask(taskBytes)
	upcxx.RegisterTaskFF(nopTask)
	upcxx.RegisterTaskFF(grainTask)
}
