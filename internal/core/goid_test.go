package upcxx

import (
	"runtime"
	"sync"
	"testing"
	"time"
)

// atDepth calls fn n frames below the caller.
func atDepth(n int, fn func()) {
	if n <= 1 {
		fn()
		return
	}
	atDepth(n-1, fn)
}

// onGoroutine runs fn on a new goroutine and waits for it.
func onGoroutine(fn func()) {
	done := make(chan struct{})
	go func() {
		defer close(done)
		fn()
	}()
	<-done
}

// TestGoroutineIDMatchesStack: the id curGID reads is the one runtime.Stack
// prints — on goroutines of different parents, at depths 1 and 64, on
// goroutines that reuse the g of one that exited, on the progress thread and
// inside an AM handler — and no two goroutines share one.
func TestGoroutineIDMatchesStack(t *testing.T) {
	var mu sync.Mutex
	seen := map[uint64]string{}
	check := func(where string) {
		fast, slow := curGID(), stackGID()
		mu.Lock()
		defer mu.Unlock()
		if fast != slow {
			t.Errorf("%s: curGID %d, runtime.Stack %d", where, fast, slow)
		}
		if prev, dup := seen[fast]; dup {
			t.Errorf("%s: goroutine id %d already seen at %s", where, fast, prev)
		}
		seen[fast] = where
	}
	check("test goroutine")
	onGoroutine(func() {
		check("child, depth 1")
		onGoroutine(func() { atDepth(64, func() { check("grandchild, depth 64") }) })
	})
	atDepth(64, func() {
		onGoroutine(func() { check("child of a depth-64 parent, depth 1") })
	})

	// Exited goroutines leave their g on the runtime's free list; the next
	// ones reuse them under new ids.
	for range 100 {
		var wg sync.WaitGroup
		for range 100 {
			wg.Add(1)
			go wg.Done()
		}
		wg.Wait()
	}
	for i := range 64 {
		onGoroutine(func() { atDepth(1+i%2*63, func() { check("after 10 000 exits") }) })
	}

	RunConfig(Config{Ranks: 2, ProgressThread: true}, func(rk *Rank) {
		done := make(chan struct{})
		LPCTo(rk.ProgressPersona(), func() {
			check("progress thread")
			close(done)
		})
		<-done
	})
	Run(2, func(rk *Rank) {
		if rk.Me() == 0 {
			RPC(rk, 1, func(trk *Rank, _ Unit) Unit {
				check("AM handler")
				return Unit{}
			}, Unit{}).Wait()
		}
		rk.Barrier()
	})
}

// TestGoroutineIDFastPath fails where getg has a stub but calibration fell
// back: a toolchain whose g no longer holds the id in one word is caught here,
// not by every blocking call getting slower.
func TestGoroutineIDFastPath(t *testing.T) {
	if runtime.GOARCH != "amd64" && runtime.GOARCH != "arm64" {
		t.Skipf("no getg stub on %s: curGID parses runtime.Stack", runtime.GOARCH)
	}
	if goidOff == 0 {
		t.Fatalf("calibration found no single word of g holding the goroutine id (%s): curGID parses runtime.Stack", runtime.Version())
	}
}

// TestBlockingOpDepthIndependent: a blocking put issued 64 frames down costs
// what one issued at depth 1 costs (min of many each), so no per-operation
// step walks the caller's stack.
func TestBlockingOpDepthIndependent(t *testing.T) {
	Run(1, func(rk *Rank) {
		dst := MustNewArray[uint64](rk, 1)
		src := make([]uint64, 1)
		best := func(d *time.Duration) {
			for range 500 {
				t0 := time.Now()
				RPut(rk, src, dst).Wait()
				*d = min(*d, time.Since(t0))
			}
		}
		shallow, deep := time.Hour, time.Hour
		for range 4 {
			best(&shallow)
			atDepth(64, func() { best(&deep) })
		}
		if r := float64(deep) / float64(shallow); r > 1.5 {
			t.Errorf("a blocking put costs %v from depth 64 and %v from depth 1: ratio %.2f, want <= 1.5", deep, shallow, r)
		}
	})
}

// BenchmarkCurGID is one goroutine-id lookup.
func BenchmarkCurGID(b *testing.B) {
	for range b.N {
		curGID()
	}
}
