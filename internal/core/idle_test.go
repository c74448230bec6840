package upcxx

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// idleWorld is a one-rank world for driving Rank.idle directly; asDist
// marks it multi-process for the rule's purposes — its messages arriving by
// socket, unless shm (idle reads nothing else of a dist world).
func idleWorld(t *testing.T, asDist, shm bool) *Rank {
	w := NewWorld(Config{Ranks: 1})
	w.dist, w.sock = asDist, asDist && !shm
	t.Cleanup(func() { w.dist, w.sock = false, false; w.Close() })
	return w.Rank(0)
}

// TestIdleRule pins the rule itself: which empty pass yields, which parks,
// and what finding work does to the budget.
func TestIdleRule(t *testing.T) {
	const park = time.Microsecond
	// yieldsThenParks runs empty passes until one parks and returns how
	// many yielded first.
	yieldsThenParks := func(rk *Rank, id *idler) int {
		for n := 0; n <= 2*idleSpins; n++ {
			if rk.idle(id, park) {
				return n
			}
		}
		t.Fatalf("no park within %d empty passes", 2*idleSpins)
		return -1
	}
	for _, tc := range []struct {
		name       string
		dist, shm  bool
		procs      int
		budget     int // yields before the first park
		afterFound int // yields before the next park once the rank found work
	}{
		{"in-process/1P", false, false, 1, idleSpins, idleSpins},
		{"in-process/2P", false, false, 2, idleSpins, idleSpins},
		{"shm/1P", true, true, 1, idleSpins, idleSpins}, // a yield can see the next message: the waiter polls the ring
		{"shm/2P", true, true, 2, idleSpins, idleSpins},
		{"multi-process/2P", true, false, 2, idleSpins, 0}, // messages arrive by socket
		{"multi-process/1P", true, false, 1, 0, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(tc.procs))
			rk := idleWorld(t, tc.dist, tc.shm)
			var id idler
			if got := yieldsThenParks(rk, &id); got != tc.budget {
				t.Errorf("fresh wait yielded %d times before parking, want %d", got, tc.budget)
			}
			if !rk.idle(&id, park) {
				t.Error("a wait that has parked yielded again without finding work")
			}
			// Any pass of the rank that finds work counts, the waiter's
			// own or not.
			rk.LPC(func() {})
			if rk.Progress() != 1 {
				t.Fatal("the progress pass did not find the LPC")
			}
			if got := yieldsThenParks(rk, &id); got != tc.afterFound {
				t.Errorf("after a pass that found work: %d yields before parking, want %d", got, tc.afterFound)
			}
		})
	}
	t.Run("budget is read when the wait goes idle", func(t *testing.T) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
		rk := idleWorld(t, true, false)
		var before, after idler
		rk.idle(&before, park) // goes idle with two Ps
		runtime.GOMAXPROCS(1)
		if !rk.idle(&after, park) {
			t.Error("a wait that went idle on one P yielded: the budget predates the GOMAXPROCS change")
		}
		if rk.idle(&before, park) {
			t.Error("a wait already idle re-read its budget")
		}
	})
}

// TestIdleEveryWakeSourceRings pins the invariant parking rests on:
// whatever can end a wait rings the waiter's doorbell. (The conduit's own
// failure path, wire.fail, is pinned in gasnet's hostile-frame test.)
func TestIdleEveryWakeSourceRings(t *testing.T) {
	w := NewWorld(Config{Ranks: 2})
	defer w.Close()
	r0, r1 := w.Rank(0), w.Rank(1)
	sc := AcquirePersona(r0.master)
	defer sc.Release()
	sc1 := AcquirePersona(r1.master)
	defer sc1.Release()
	other := NewPersona(r0, "other")
	buf := MustNewArray[uint64](r1, 1)

	for _, src := range []struct {
		name  string
		rings *Rank
		fire  func()
	}{
		{"conduit completion", r0, func() { RPut(r0, []uint64{7}, buf) }},
		{"active message", r1, func() { RPCFF(r0, 1, func(*Rank, Unit) {}, Unit{}) }},
		{"persona LPC", r0, func() { LPCTo(other, func() {}) }},
		{"persona LPC batch", r0, func() { other.LPCBatch([]func(){func() {}, func() {}}) }},
		{"refused peer", r0, func() { r0.failPeer(1, errors.New("test")) }},
	} {
		for _, rk := range []*Rank{r0, r1} { // settle: nothing queued, doorbell empty
			for rk.Progress() > 0 || rk.ep.WaitPending(time.Microsecond) {
			}
		}
		src.fire()
		if !src.rings.ep.WaitPending(10 * time.Second) {
			t.Errorf("%s did not ring rank %d's doorbell", src.name, src.rings.me)
		}
	}
}

// TestBlockingOpsOnOneP blocks three ranks' masters, and on each rank a
// second goroutine holding its own persona, on RPCs at the same time with
// one P. Each body outlasts every waiter's spin budget, so all the other
// five are parked on their rank's one-slot doorbell when a reply arrives
// and two waiters share each doorbell: a reply can wake the goroutine it
// is not for, which must pass it on. No wait may be left to its timeout.
func TestBlockingOpsOnOneP(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const rounds = 20
	slow := func(trk *Rank, x int) int {
		for i := 0; i < 2*idleSpins; i++ {
			runtime.Gosched() // every other waiter runs a pass per yield
		}
		return x + 1
	}
	cfg := Config{Ranks: 3, Stats: true, WaitTimeout: 20 * time.Second}
	var worst time.Duration
	var mu sync.Mutex
	blocked := func(rk *Rank, who string) {
		peer := (rk.Me() + 1) % rk.N()
		for i := 0; i < rounds; i++ {
			t0 := time.Now()
			if got := RPC(rk, peer, slow, i).Wait(); got != i+1 {
				t.Errorf("rank %d %s: rpc(%d) = %d", rk.Me(), who, i, got)
			}
			mu.Lock()
			worst = max(worst, time.Since(t0))
			mu.Unlock()
		}
	}
	var wakeups uint64
	RunConfig(cfg, func(rk *Rank) {
		var secondDone atomic.Bool
		go func() {
			defer secondDone.Store(true)
			defer DetachDefaultPersonas()
			sc := AcquirePersona(NewPersona(rk, "second"))
			defer sc.Release()
			blocked(rk, "second persona")
		}()
		blocked(rk, "master")
		// Bodies run on the master: it stays attentive until the second
		// goroutine has its last reply.
		for !secondDone.Load() {
			rk.ProgressWait(idlePark)
		}
		rk.Barrier()
		if rk.Me() == 0 {
			wakeups = rk.World().StatsMerged().Wakeups
		}
	})
	if worst > cfg.WaitTimeout/10 {
		t.Errorf("slowest blocked RPC took %v, want well inside WaitTimeout %v", worst, cfg.WaitTimeout)
	}
	if wakeups == 0 {
		t.Error("no waiter was ever woken through the doorbell: the test did not park")
	}
}

// TestQuiesceOneP: Quiesce waits by the idle rule like every other waiter.
// On a one-P rank of a multi-process world the reply it waits for can only
// be produced while it is off the processor, so it must park at its first
// empty pass; a Quiesce that loops over progress passes makes them by the
// thousand until the scheduler preempts it.
func TestQuiesceOneP(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	w := NewWorld(Config{Ranks: 2, Stats: true, WaitTimeout: 20 * time.Second})
	w.dist, w.sock = true, true // for the idle rule only: the conduit stays in-process
	defer func() { w.dist, w.sock = false, false; w.Close() }()
	rk0, rk1 := w.Rank(0), w.Rank(1)
	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // rank 1: attentive, whenever it gets the processor
		defer wg.Done()
		defer DetachDefaultPersonas()
		for !stop.Load() {
			rk1.ProgressWait(idlePark)
		}
	}()
	f := RPC(rk0, 1, func(_ *Rank, x int) int { return x + 1 }, 41)
	rk0.Quiesce() // the request is in flight: its reply needs rank 1 to run
	stop.Store(true)
	wg.Wait()
	if !f.Ready() || f.Wait() != 42 {
		t.Errorf("Quiesce returned with the RPC unanswered (ready %v)", f.Ready())
	}
	if n := rk0.Stats().EmptyPasses; n > 64 {
		t.Errorf("Quiesce made %d empty progress passes: it spun instead of parking", n)
	}
}

// TestPollingMasterDoesNotStarveInjectors: four goroutines block in
// RPC(...).Wait() behind a master that polls bare Progress() in a loop, on
// one P. Progress does not park, so unless a pass that found nothing gives
// the processor to the waiters counted in Rank.idle, each of them runs once
// per forced preemption of the master — ten milliseconds an operation, four
// seconds for this test.
func TestPollingMasterDoesNotStarveInjectors(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const injectors, calls = 4, 100
	t0 := time.Now()
	RunConfig(Config{Ranks: 2, WaitTimeout: 20 * time.Second}, func(rk *Rank) {
		peer := (rk.Me() + 1) % rk.N()
		var done atomic.Bool
		var wg sync.WaitGroup
		for u := 0; u < injectors; u++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer DetachDefaultPersonas()
				for i := 0; i < calls; i++ {
					if got := RPC(rk, peer, func(_ *Rank, x int) int { return x + 1 }, i).Wait(); got != i+1 {
						t.Errorf("rank %d: rpc(%d) = %d", rk.Me(), i, got)
					}
				}
			}()
		}
		go func() { wg.Wait(); done.Store(true) }()
		for !done.Load() {
			rk.Progress() // the master polls; incoming bodies run here
		}
		rk.Barrier()
	})
	if el := time.Since(t0); el > time.Second {
		t.Errorf("%d injectors x %d blocking RPCs behind a polling master took %v, want under 1s", injectors, calls, el)
	}
}
