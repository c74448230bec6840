package upcxx

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"upcxx/internal/gasnet"
	"upcxx/internal/obs"
)

// idleRank returns a rank for driving Rank.idle directly: of a one-rank
// in-process world (backend ""), or rank 0 of a two-rank job over a real
// conduit ("tcp", "shm") built by wireWorlds.
func idleRank(t *testing.T, backend string) *Rank {
	if backend == "" {
		w := NewWorld(Config{Ranks: 1})
		t.Cleanup(w.Close)
		return w.Rank(0)
	}
	return wireWorlds(t, backend, false)[0].Rank(0)
}

// wireWorlds returns a two-rank job over a real conduit ("tcp", "shm") whose
// two ranks are worlds of this test process, closed at the test's end, with
// Config.Stats as stats says.
func wireWorlds(t *testing.T, backend string, stats bool) []*World {
	dir := t.TempDir()
	ws := make([]*World, 2)
	var wg sync.WaitGroup
	for r := range ws {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ws[r] = newWorld(&World{cfg: Config{Ranks: 2, SegmentSize: 1 << 16, Stats: stats}, dist: true, self: Intrank(r)}, gasnet.Config{
				Real: &gasnet.RealConduit{Backend: backend, Rank: r, BootDir: dir, Timeout: 20 * time.Second},
				Aux:  new(distAuxCodec),
			})
		}()
	}
	wg.Wait()
	t.Cleanup(func() {
		var wg sync.WaitGroup
		for _, w := range ws {
			wg.Add(1)
			go func() { defer wg.Done(); w.Close() }() // peers wait for each other's bye
		}
		wg.Wait()
	})
	return ws
}

// TestIdleRule pins the rule itself: which empty pass yields, which parks,
// and what finding work does to the budget. The conduit decides which
// yields can see the next message: on tcp none can.
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
		backend    string
		procs      int
		budget     int // yields before the first park
		afterFound int // yields before the next park once the rank found work
	}{
		{"in-process/1P", "", 1, idleSpins, idleSpins},
		{"in-process/2P", "", 2, idleSpins, idleSpins},
		{"shm/1P", "shm", 1, idleSpins, idleSpins}, // a yield can see the next message: the waiter polls the ring
		{"shm/2P", "shm", 2, idleSpins, idleSpins},
		{"multi-process/2P", "tcp", 2, 0, 0}, // messages arrive by socket: the reader runs once a P runs dry
		{"multi-process/1P", "tcp", 1, 0, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(tc.procs))
			rk := idleRank(t, tc.backend)
			var id idler
			if got := yieldsThenParks(rk, &id); got != tc.budget {
				t.Errorf("fresh wait yielded %d times before parking, want %d", got, tc.budget)
			}
			if !rk.idle(&id, park) {
				t.Error("a wait that has parked yielded again without finding work")
			}
			// Any pass of the rank that finds work counts, the waiter's
			// own or not.
			LPCTo(rk.CurrentPersona(), func() {})
			if rk.Progress() != 1 {
				t.Fatal("the progress pass did not find the LPC")
			}
			if got := yieldsThenParks(rk, &id); got != tc.afterFound {
				t.Errorf("after a pass that found work: %d yields before parking, want %d", got, tc.afterFound)
			}
		})
	}
}

// TestIdleYieldHandsOffOnce pins when a yield between processes also gives
// the CPU to the OS: exactly when no progress pass of the rank found work
// while the waiter stood aside in Gosched. On one P a second goroutine of the
// rank, whose every pass finds work, runs a pass in nearly every such Gosched
// (Go's scheduler sometimes hands the P straight back); an in-process rank has
// no peer process to hand the CPU to.
func TestIdleYieldHandsOffOnce(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const yields = idleSpins / 2 // all inside one budget: none parks
	for _, tc := range []struct {
		name    string
		backend string
		busy    bool // a second goroutine's passes find work meanwhile
	}{
		{"shm/lone", "shm", false},
		{"shm/beside-a-busy-pass", "shm", true},
		{"in-process/beside-a-busy-pass", "", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var rk *Rank
			if tc.backend == "" {
				w := NewWorld(Config{Ranks: 1, Stats: true})
				defer w.Close()
				rk = w.Rank(0)
			} else {
				rk = wireWorlds(t, tc.backend, true)[0].Rank(0)
			}
			var stop atomic.Bool
			var wg sync.WaitGroup
			defer wg.Wait()
			defer stop.Store(true)
			if tc.busy {
				started := make(chan struct{})
				wg.Add(1)
				go func() {
					defer wg.Done()
					defer DetachDefaultPersonas()
					sc := AcquirePersona(NewPersona(rk, "busy"))
					defer sc.Release()
					close(started)
					for !stop.Load() {
						LPCTo(rk.CurrentPersona(), func() {})
						if rk.Progress() != 1 {
							t.Error("the busy goroutine's pass did not find its LPC")
						}
						runtime.Gosched() // back to the waiter, which stood aside for this pass
					}
				}()
				<-started
			}
			var id idler
			aside := 0 // yields during which a pass found work
			for i := 0; i < yields; i++ {
				w, y, o := rk.worked.Load(), rk.ro.Load(obs.IdleYields), rk.ro.Load(obs.OSYields)
				if rk.idle(&id, time.Microsecond) || rk.ro.Load(obs.IdleYields) != y+1 {
					t.Fatalf("empty pass %d did not yield", i)
				}
				found, toOS := rk.worked.Load() != w, rk.ro.Load(obs.OSYields) != o
				if found {
					aside++
				}
				if want := tc.backend != "" && !found; toOS != want {
					t.Errorf("yield %d (a pass found work meanwhile: %v) went to the OS: %v, want %v", i, found, toOS, want)
				}
			}
			if busy := aside >= yields/2; busy != tc.busy {
				t.Errorf("a pass found work during %d of %d yields", aside, yields)
			}
		})
	}
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
		// An in-process RPut completes in its call and queues nothing; the
		// callback-taking conduit put queues its completion, which must ring.
		{"conduit completion", r0, func() { r0.ep.Put(1, buf.Off, make([]byte, 8), func() {}) }},
		{"active message", r1, func() { RPCFF(r0, 1, func(*Rank, Unit) {}, Unit{}) }},
		{"off-owner fulfilment", r0, func() { NewPromiseOn[Unit](r0, other).FulfillResult(Unit{}) }},
		{"LPCTo", r0, func() { LPCTo(other, func() {}) }},
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
			wakeups = rk.World().StatsMerged().Counters[obs.Wakeups]
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
// On one P the reply it waits for can only be produced while it is off the
// processor, so it must give the processor up at its empty passes; a
// Quiesce that loops over progress passes makes them by the thousand until
// the scheduler preempts it.
func TestQuiesceOneP(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	w := NewWorld(Config{Ranks: 2, Stats: true, WaitTimeout: 20 * time.Second})
	defer w.Close()
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
	if n := rk0.Stats().Counters[obs.EmptyPasses]; n > 64 {
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

// TestModelTimeBareProgressLoop: under a LogGP model a bare Progress loop
// waits like Wait does. Its empty passes at a clock that stands still pass
// model time (stillPass), so `for !f.Ready() { rk.Progress() }` on an RPC
// finishes, at the model time Wait reads.
func TestModelTimeBareProgressLoop(t *testing.T) {
	model := &gasnet.LogGP{O: time.Microsecond, L: 5 * time.Microsecond, Gp: 2 * time.Microsecond}
	roundTrip := func(bare bool) (rt time.Duration) {
		RunConfig(Config{Ranks: 2, RanksPerNode: 1, Model: model}, func(rk *Rank) {
			if rk.Me() == 0 {
				t0 := rk.Clock()
				f := RPC(rk, 1, func(trk *Rank, x int) int { return -x }, 7)
				if bare {
					for !f.Ready() {
						rk.Progress()
					}
				}
				if got := f.Wait(); got != -7 {
					t.Errorf("rpc = %d", got)
				}
				rt = rk.Clock() - t0
			}
			rk.Barrier()
		})
		return rt
	}
	waited, polled := roundTrip(false), roundTrip(true)
	if waited <= 0 || polled != waited {
		t.Fatalf("rpc round trip: %v by a bare Progress loop, %v by Wait; want equal and positive", polled, waited)
	}
}

// TestModelTimeFloodProgressThread: a progress thread does not move the
// clock of a rank its master drives, so a put flood waited on through one
// promise reads the same model time with a progress thread as without.
func TestModelTimeFloodProgressThread(t *testing.T) {
	model := &gasnet.LogGP{O: time.Microsecond, L: 5 * time.Microsecond, Gp: 2 * time.Microsecond}
	flood := func(progressThread bool) time.Duration {
		w := NewWorld(Config{Ranks: 2, RanksPerNode: 1, Model: model, ProgressThread: progressThread})
		defer w.Close()
		rk := w.Rank(0)
		sc := AcquirePersona(rk.MasterPersona())
		defer sc.Release()
		dst := MustNewArray[uint64](w.Rank(1), 1)
		src := []uint64{1}
		t0 := rk.Clock()
		prom := NewPromise[Unit](rk)
		for i := 0; i < 400; i++ {
			RPutWith(rk, src, dst, OpCxAsPromise(prom))
		}
		prom.Finalize().Wait()
		return rk.Clock() - t0
	}
	want := flood(false)
	for i := 0; i < 5; i++ {
		if got := flood(true); got != want {
			t.Fatalf("run %d: flood took %v of model time with a progress thread, %v without", i, got, want)
		}
	}
}
