package main

import (
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"
)

// The reference clock. The host this benchmark runs on is a small VM on
// shared hardware whose speed, for code like the runtime's (branchy, many
// small allocations, locks, tracebacks), drops by a factor of 1.2 to 1.9
// for anything from a tenth of a second to hours while a neighbour is busy
// — measured, README "Host noise". So wall-clock time is measured against a
// fixed piece of work: the reference kernel below is timed just before and
// just after every phase, and the phase's times are multiplied by
// refNominalUS ÷ (the kernel's time then), rates divided by it. A value so
// scaled is what the host would have shown undisturbed; the raw value is
// kept beside it.

// refNominalUS is what one call of refKernel takes on this class of host
// when nothing disturbs it (the floor over several thousand readings on
// the 2-vCPU build host). It only fixes the scale: on an undisturbed host
// of that class scaled and raw values agree.
const refNominalUS = 6.8

var ref struct {
	buf  [64]byte
	mu   sync.Mutex
	m    map[uint64]*[4]uint64
	keep [16][]byte
	ch   chan int
	sink int
}

//go:noinline
func refDeep(n int) {
	if n > 0 {
		refDeep(n - 1)
		ref.sink++
		return
	}
	runtime.Stack(ref.buf[:], false)
}

// refKernel is the fixed work: what the runtime under test spends its time
// on, from the standard library only — formatting a goroutine traceback (the
// runtime does that on every blocking call, to learn which goroutine it is
// on), small allocations, a map, a mutex, a buffered channel and the clock.
// It must not change: every scaled number is relative to it.
func refKernel() {
	refDeep(12)
	for i := uint64(0); i < 16; i++ {
		ref.mu.Lock()
		p := new([4]uint64)
		p[0] = i
		ref.m[i&7] = p
		b := make([]byte, 96)
		b[0] = byte(i)
		ref.keep[i] = b
		ref.mu.Unlock()
		ref.ch <- int(i)
		ref.sink += <-ref.ch + time.Now().Nanosecond()
	}
}

func init() {
	ref.m = map[uint64]*[4]uint64{}
	ref.ch = make(chan int, 1)
}

// refReading times the kernel for about a millisecond and returns the
// median call, in µs. It runs on a goroutine of its own, so that the
// traceback is as deep whoever asks.
func refReading() float64 {
	out := make(chan float64)
	go func() {
		var ns [128]int64
		n := 0
		for start := time.Now(); n < len(ns) && (n < 16 || time.Since(start) < time.Millisecond); n++ {
			t0 := time.Now()
			refKernel()
			ns[n] = int64(time.Since(t0))
		}
		s := ns[:n]
		sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
		out <- float64(s[n/2]) / 1e3
	}()
	return <-out
}

// scaled applies a phase's reference reading to one value of the given
// unit: times shrink and rates grow by how much slower than nominal the
// host was; counts, bytes and ratios are left alone.
func scaled(v float64, unit string, refUS float64) float64 {
	switch {
	case unit == "s" || unit == "ms" || unit == "us" || unit == "ns":
		return v * refNominalUS / refUS
	case strings.HasSuffix(unit, "/s"):
		return v * refUS / refNominalUS
	}
	return v
}
