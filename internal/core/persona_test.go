package upcxx

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"upcxx/internal/gasnet"
)

// Tests for the persona subsystem: current/master personas, scope
// nesting, cross-thread LPC FIFO delivery, persona-owned completion
// routing, and the dedicated progress-thread mode. Run with -race: the
// whole point of personas is safe multithreaded sharing of one rank.

func TestPersonaCurrentIsMasterInsideRun(t *testing.T) {
	Run(2, func(rk *Rank) {
		if rk.CurrentPersona() != rk.MasterPersona() {
			t.Error("Run goroutine's current persona is not the master persona")
		}
		if rk.MasterPersona().Rank() != rk {
			t.Error("master persona rank mismatch")
		}
		rk.Barrier()
	})
}

func TestPersonaScopeNesting(t *testing.T) {
	Run(1, func(rk *Rank) {
		a := NewPersona(rk, "a")
		b := NewPersona(rk, "b")

		sa := AcquirePersona(a)
		if rk.CurrentPersona() != a {
			t.Fatal("inner scope a not current")
		}
		sb := AcquirePersona(b)
		if rk.CurrentPersona() != b {
			t.Fatal("inner scope b not current")
		}
		// Re-acquiring a persona this goroutine already holds nests.
		sa2 := AcquirePersona(a)
		if rk.CurrentPersona() != a {
			t.Fatal("re-acquired a not current")
		}
		sa2.Release()
		if rk.CurrentPersona() != b {
			t.Fatal("release did not restore b")
		}
		sb.Release()
		if rk.CurrentPersona() != a {
			t.Fatal("release did not restore a")
		}
		sa.Release()
		if rk.CurrentPersona() != rk.MasterPersona() {
			t.Fatal("release did not restore master")
		}
	})
}

func TestPersonaScopeLIFOEnforced(t *testing.T) {
	Run(1, func(rk *Rank) {
		a := NewPersona(rk, "a")
		b := NewPersona(rk, "b")
		sa := AcquirePersona(a)
		sb := AcquirePersona(b)
		func() {
			defer func() {
				if recover() == nil {
					t.Error("out-of-order Release should panic")
				}
			}()
			sa.Release()
		}()
		sb.Release()
		sa.Release()
		func() {
			defer func() {
				if recover() == nil {
					t.Error("double Release should panic")
				}
			}()
			sa.Release()
		}()
	})
}

func TestPersonaAcquireHeldElsewherePanics(t *testing.T) {
	Run(1, func(rk *Rank) {
		p := NewPersona(rk, "contested")
		sc := AcquirePersona(p)
		defer sc.Release()
		done := make(chan bool)
		go func() {
			defer func() { done <- recover() != nil }()
			AcquirePersona(p)
		}()
		if !<-done {
			t.Error("acquiring a persona held by another goroutine should panic")
		}
	})
}

func TestPersonaLPCFIFOCrossThread(t *testing.T) {
	// A producer goroutine floods LPCs at the master persona while the
	// owner drains concurrently; delivery must be FIFO in enqueue order.
	Run(1, func(rk *Rank) {
		const n = 20000
		var got []int
		master := rk.MasterPersona()
		go func() {
			for i := 0; i < n; i++ {
				i := i
				LPCTo(master, func() { got = append(got, i) })
			}
		}()
		for len(got) < n {
			rk.Progress()
		}
		for i, v := range got {
			if v != i {
				t.Fatalf("LPC order broken at %d: got %d", i, v)
			}
		}
	})
}

func TestPersonaLPCFIFOManyProducers(t *testing.T) {
	// With several producers, global order is the CAS linearization, but
	// each producer's own sequence must stay FIFO.
	Run(1, func(rk *Rank) {
		const producers, per = 4, 5000
		type item struct{ who, seq int }
		var got []item
		master := rk.MasterPersona()
		for w := 0; w < producers; w++ {
			w := w
			go func() {
				for i := 0; i < per; i++ {
					i := i
					LPCTo(master, func() { got = append(got, item{w, i}) })
				}
			}()
		}
		for len(got) < producers*per {
			rk.Progress()
		}
		next := make([]int, producers)
		for _, it := range got {
			if it.seq != next[it.who] {
				t.Fatalf("producer %d out of order: got %d want %d", it.who, it.seq, next[it.who])
			}
			next[it.who]++
		}
	})
}

func TestPersonaDefaultBoundPerGoroutine(t *testing.T) {
	// A plain goroutine touching the rank gets its own default persona,
	// distinct from the master and stable across calls.
	Run(1, func(rk *Rank) {
		var p1, p2 *Persona
		done := make(chan struct{})
		go func() {
			defer close(done)
			p1 = rk.CurrentPersona()
			p2 = rk.CurrentPersona()
		}()
		<-done
		if p1 == nil || p1 != p2 {
			t.Error("default persona not stable within a goroutine")
		}
		if p1 == rk.MasterPersona() {
			t.Error("spawned goroutine must not get the master persona")
		}
	})
}

func TestPersonaCompletionDeliveredToInitiator(t *testing.T) {
	// Communication initiated from a non-master goroutine completes on
	// that goroutine's own persona: its future readies via its own
	// Progress, with the continuation running on the initiating persona.
	Run(2, func(rk *Rank) {
		dst := MustNewArray[uint64](rk, 4)
		_ = NewDistObject(rk, dst)
		rk.Barrier()
		if rk.Me() == 0 {
			remote := FetchDist[GPtr[uint64]](rk, 0, 1).Wait()
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				mine := rk.CurrentPersona()
				var onPersona *Persona
				f := ThenDo(RPut(rk, []uint64{7}, remote), func(Unit) {
					onPersona = rk.CurrentPersona()
				})
				f.Wait()
				if onPersona != mine {
					t.Errorf("continuation ran on %v, want initiator persona %v", onPersona, mine)
				}
				sum := RPC(rk, 1, func(trk *Rank, x uint64) uint64 { return x * 2 }, 21).Wait()
				if sum != 42 {
					t.Errorf("rpc from user goroutine = %d", sum)
				}
			}()
			// The master goroutine sits in wg.Wait without progressing:
			// the user goroutine's own Wait harvests the reply AM and
			// drains its persona, and rank 1 executes the RPC inside
			// its barrier progress.
			wg.Wait()
		}
		rk.Barrier()
	})
}

func TestPersonaCollectivesFromAnyPersona(t *testing.T) {
	// Collectives no longer pin to the master persona: any persona may
	// initiate, entry is handed off to the rank's execution persona, and
	// the completion routes back to the initiating persona. The master
	// keeps progressing (in non-progress-thread mode the engine advances
	// on the master persona, same attentiveness rule as incoming RPCs).
	Run(1, func(rk *Rank) {
		var done atomic.Bool
		go func() {
			defer done.Store(true)
			rk.Barrier()
			got := AllReduce(rk.WorldTeam(), int64(41),
				func(a, b int64) int64 { return a + b }).Wait()
			if got != 41 {
				t.Errorf("off-master allreduce = %d, want 41", got)
			}
		}()
		for !done.Load() {
			if rk.Progress() == 0 {
				runtime.Gosched()
			}
		}
	})
}

func TestPersonaProgressThreadServesInattentiveRank(t *testing.T) {
	// With Config.ProgressThread, a rank that never calls Progress still
	// executes incoming RPCs — the paper's motivation for a dedicated
	// progress thread.
	release := make(chan struct{})
	RunConfig(Config{Ranks: 2, ProgressThread: true}, func(rk *Rank) {
		if rk.Me() == 0 {
			got := RPC(rk, 1, func(trk *Rank, x int) int { return x + 1 }, 41).Wait()
			if got != 42 {
				t.Errorf("rpc to inattentive rank = %d", got)
			}
			close(release)
		} else {
			// Simulated compute phase: no Progress calls at all until
			// rank 0 has its answer.
			<-release
		}
		rk.Barrier()
	})
}

func TestPersonaProgressThreadRPCBodyRunsOnProgressPersona(t *testing.T) {
	release := make(chan struct{})
	RunConfig(Config{Ranks: 2, ProgressThread: true}, func(rk *Rank) {
		if rk.Me() == 0 {
			ok := RPC(rk, 1, func(trk *Rank, _ int) bool {
				return trk.CurrentPersona() == trk.ProgressPersona()
			}, 0).Wait()
			if !ok {
				t.Error("RPC body did not run on the target's progress persona")
			}
			close(release)
		} else {
			<-release
		}
		rk.Barrier()
	})
}

func TestPersonaProgressThreadManyUserGoroutines(t *testing.T) {
	// Several user goroutines share each rank: every goroutine initiates
	// RPCs and RPuts on its own (default) persona and waits for its own
	// completions, while the progress threads keep all ranks attentive.
	RunConfig(Config{Ranks: 2, ProgressThread: true}, func(rk *Rank) {
		const users, ops = 4, 50
		slab := MustNewArray[uint64](rk, users*ops)
		_ = NewDistObject(rk, slab)
		rk.Barrier()
		peer := (rk.Me() + 1) % rk.N()
		remote := FetchDist[GPtr[uint64]](rk, 0, peer).Wait()
		var wg sync.WaitGroup
		for u := 0; u < users; u++ {
			u := u
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer DetachDefaultPersonas()
				for i := 0; i < ops; i++ {
					val := uint64(rk.Me())<<32 | uint64(u)<<16 | uint64(i)
					RPut(rk, []uint64{val}, remote.Add(u*ops+i)).Wait()
					got := RPC(rk, peer, func(trk *Rank, x uint64) uint64 { return x ^ 0xff }, val).Wait()
					if got != val^0xff {
						t.Errorf("user %d op %d: rpc = %#x", u, i, got)
					}
				}
			}()
		}
		wg.Wait()
		rk.Barrier()
		for u := 0; u < users; u++ {
			for i := 0; i < ops; i++ {
				want := uint64(peer)<<32 | uint64(u)<<16 | uint64(i)
				if got := Local(rk, slab, users*ops)[u*ops+i]; got != want {
					t.Errorf("slab[%d,%d] = %#x want %#x", u, i, got, want)
				}
			}
		}
		rk.Barrier()
	})
}

func TestPersonaProgressThreadQuiesceAndReuse(t *testing.T) {
	// Progress-thread worlds support repeated epochs like plain worlds.
	w := NewWorld(Config{Ranks: 2, ProgressThread: true})
	defer w.Close()
	for epoch := 0; epoch < 3; epoch++ {
		w.Run(func(rk *Rank) {
			got := RPC(rk, (rk.Me()+1)%rk.N(), func(trk *Rank, x int) int { return x * 3 }, epoch).Wait()
			if got != epoch*3 {
				t.Errorf("epoch %d: rpc = %d", epoch, got)
			}
		})
	}
}

func TestPersonaProgressThreadWithRealtimeModel(t *testing.T) {
	// Progress threads and the LogGP delivery engine coexist: the engine
	// goroutine times deliveries while progress goroutines harvest them.
	model := &gasnet.LogGP{O: time.Microsecond, L: 5 * time.Microsecond, Gp: time.Microsecond}
	RunConfig(Config{Ranks: 2, ProgressThread: true, Model: model}, func(rk *Rank) {
		got := RPC(rk, (rk.Me()+1)%rk.N(), func(trk *Rank, x int) int { return -x }, 9).Wait()
		if got != -9 {
			t.Errorf("rpc over modeled conduit = %d", got)
		}
		rk.Barrier()
	})
}

func TestPersonaAddressedRPCBodyProgressThread(t *testing.T) {
	// RPCBodyOn conformance in progress-thread mode: the progress thread
	// harvests the request AM but must NOT execute the body itself — it
	// lands in the named worker persona's LPC queue and runs when the
	// worker goroutine makes progress, with the worker persona current.
	var workerP atomic.Pointer[Persona]
	ready := make(chan struct{})
	release := make(chan struct{})
	var ffOnWorker atomic.Int32 // 0 pending, 1 worker persona, -1 other
	RunConfig(Config{Ranks: 2, ProgressThread: true}, func(rk *Rank) {
		if rk.Me() == 1 {
			var done atomic.Bool
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer DetachDefaultPersonas()
				worker := NewPersona(rk, "worker")
				sc := AcquirePersona(worker)
				defer sc.Release()
				workerP.Store(worker)
				close(ready)
				for !done.Load() {
					if rk.Progress() == 0 {
						runtime.Gosched()
					}
				}
			}()
			<-release
			done.Store(true)
			wg.Wait()
		} else {
			<-ready
			worker := workerP.Load()
			// Round-trip body executes on the named worker persona, not
			// the target's progress persona.
			f, _ := RPCWith(rk, 1, func(trk *Rank, _ int) bool {
				return trk.CurrentPersona() == workerP.Load() &&
					trk.CurrentPersona() != trk.ProgressPersona()
			}, 0, RPCBodyOn(worker))
			if !f.Wait() {
				t.Error("RPCWith body did not run on the named worker persona")
			}
			// Fire-and-forget body routes the same way.
			RPCFFWith(rk, 1, func(trk *Rank, _ int) {
				if trk.CurrentPersona() == workerP.Load() {
					ffOnWorker.Store(1)
				} else {
					ffOnWorker.Store(-1)
				}
			}, 0, RPCBodyOn(worker))
			for ffOnWorker.Load() == 0 {
				rk.Progress()
				runtime.Gosched()
			}
			if ffOnWorker.Load() != 1 {
				t.Error("RPCFFWith body did not run on the named worker persona")
			}
			close(release)
		}
		rk.Barrier()
	})
}

func TestPersonaAddressedRPCBodyValidation(t *testing.T) {
	Run(2, func(rk *Rank) {
		if rk.Me() == 0 {
			mine := NewPersona(rk, "local")
			// The body executes at the target, so the named persona must
			// belong to the target rank.
			expectPanic(t, "RPCBodyOn persona of the wrong rank", func() {
				RPCWith(rk, 1, func(*Rank, int) int { return 0 }, 0, RPCBodyOn(mine))
			})
			expectPanic(t, "RPCBodyOn(nil)", func() { RPCBodyOn(nil) })
			// Only RPC entry points carry a body; everything else rejects
			// the pseudo-descriptor at plan resolution.
			expectPanic(t, "RPCBodyOn on a put plan", func() {
				(&cxPlan{rk: rk, remotePeer: 1}).add(opPut, RPCBodyOn(mine))
			})
		}
		rk.Barrier()
	})
}

func TestPersonaDeferredDistFetchSurvivesHandlerGoroutine(t *testing.T) {
	// A fetch that arrives before the target constructs its
	// representative defers the reply. The deferral is pinned to the
	// master persona, so it survives whichever goroutine happened to
	// execute the fetch RPC (here: rank 1's progress thread).
	RunConfig(Config{Ranks: 2, ProgressThread: true}, func(rk *Rank) {
		if rk.Me() == 0 {
			got := FetchDist[int](rk, 0, 1).Wait()
			if got != 123 {
				t.Errorf("deferred fetch = %d", got)
			}
		} else {
			// Let the fetch arrive (and defer) before constructing.
			time.Sleep(20 * time.Millisecond)
			_ = NewDistObject(rk, 123)
		}
		rk.Barrier()
	})
}

func TestPersonaDetachDefaultPersonas(t *testing.T) {
	Run(1, func(rk *Rank) {
		done := make(chan struct{})
		go func() {
			defer close(done)
			p := rk.CurrentPersona()
			// Re-acquiring and releasing the default persona must keep
			// it held by this goroutine (regression: a released default
			// persona livelocked every later fulfill on the goroutine).
			sc := AcquirePersona(p)
			sc.Release()
			if got := RPC(rk, 0, func(*Rank, Unit) int { return 5 }, Unit{}).Wait(); got != 5 {
				t.Errorf("rpc after default re-acquire/release = %d", got)
			}
			DetachDefaultPersonas()
			if rk.CurrentPersona() == p {
				t.Error("detach did not discard the default persona")
			}
			DetachDefaultPersonas()
		}()
		for {
			select {
			case <-done:
				return
			default:
				rk.Progress()
			}
		}
	})
}
