package upcxx

import (
	"math/bits"
	"runtime"
	"unsafe"
)

// Goroutine identity: a persona is held by a goroutine, so every ownership
// check and every persona lookup asks which goroutine is running. Go exposes
// no goroutine id, but the runtime keeps the one runtime.Stack prints in the
// running goroutine's g, and getg (goid_amd64.s, goid_arm64.s) returns that
// g. Calibration, once at package init, finds the word of g holding the id:
// probe goroutines each parse their id from runtime.Stack and mark the words
// of their own g that equal it, and an offset is taken only when exactly one
// word agrees across every probe. curGID is then one load. Go never reuses an
// id, not even when it recycles a g. Where getg has no stub, or calibration
// finds no single word (a runtime whose g changed), curGID parses the
// traceback header instead — the parse the calibration trusts.

// goidScan bounds calibration's scan of a g, in 8-byte words.
const goidScan = 32

// goidOff is the byte offset of the goroutine id in the runtime's g; 0: none
// was found, and curGID parses.
var goidOff = calibrateGoid()

// curGID returns the calling goroutine's id.
func curGID() uint64 {
	if goidOff == 0 {
		return stackGID()
	}
	return *(*uint64)(unsafe.Add(getg(), goidOff))
}

// stackGID parses the calling goroutine's id from the runtime.Stack header
// ("goroutine N [status]:"): about 420 ns per frame above it.
func stackGID() uint64 {
	var buf [32]byte
	n := runtime.Stack(buf[:], false)
	var id uint64
	for _, c := range buf[len("goroutine "):n] {
		if c < '0' || c > '9' {
			break
		}
		id = id*10 + uint64(c-'0')
	}
	return id
}

// calibrateGoid returns the one offset in g at which every probe goroutine
// finds its own id, or 0.
func calibrateGoid() uintptr {
	if getg() == nil {
		return 0
	}
	const probes = 4
	found := make(chan uint32, probes)
	for range probes {
		go func() {
			id, g := stackGID(), getg()
			var at uint32
			for i := range goidScan {
				if *(*uint64)(unsafe.Add(g, i*8)) == id {
					at |= 1 << i
				}
			}
			found <- at
		}()
	}
	agree := ^uint32(0)
	for range probes {
		agree &= <-found
	}
	if bits.OnesCount32(agree) != 1 {
		return 0
	}
	return uintptr(bits.TrailingZeros32(agree)) * 8
}
