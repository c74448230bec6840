package upcxx

import (
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"upcxx/internal/gasnet"
)

// Tests for the paper's semantic fine print: attentiveness, restricted
// context, queue lifecycle, and failure behaviour.

func TestRPCStallsWithoutAttentiveness(t *testing.T) {
	// Paper §III: "if the target enters intensive, protracted computation
	// without calls to progress, incoming RPCs will stall."
	stopBusy := make(chan struct{})
	Run(2, func(rk *Rank) {
		if rk.Me() == 0 {
			executed := false
			RPCFF(rk, 1, func(trk *Rank, _ int) {}, 0)
			f := RPC(rk, 1, func(trk *Rank, _ Unit) bool { return true }, Unit{})
			// Target is computing (not progressing): however much progress
			// the initiator makes, the RPC cannot complete.
			for i := 0; i < 1000; i++ {
				rk.Progress()
			}
			if f.Ready() || executed {
				t.Error("RPC completed while target was inattentive")
			}
			// Signal the busy loop to stop via shared memory (test-only
			// channel outside the PGAS model).
			close(stopBusy)
			if !f.Wait() {
				t.Error("rpc result")
			}
		} else {
			// Busy compute phase without progress.
			<-stopBusy
		}
		rk.Barrier()
	})
}

func TestSegmentExhaustionSurfacesAsError(t *testing.T) {
	RunConfig(Config{Ranks: 1, SegmentSize: 1 << 12}, func(rk *Rank) {
		if _, err := NewArray[float64](rk, 1<<20); err == nil {
			t.Fatal("oversized allocation should fail")
		}
		// The segment remains usable after a failed allocation.
		p, err := NewArray[float64](rk, 16)
		if err != nil {
			t.Fatal(err)
		}
		if err := Delete(rk, p); err != nil {
			t.Fatal(err)
		}
	})
}

func TestDeleteRemotePointerRejected(t *testing.T) {
	Run(2, func(rk *Rank) {
		p := MustNewArray[uint64](rk, 1)
		_ = NewDistObject(rk, p)
		rk.Barrier()
		if rk.Me() == 0 {
			remote := FetchDist[GPtr[uint64]](rk, 0, 1).Wait()
			if err := Delete(rk, remote); err == nil {
				t.Error("deleting remote memory should fail")
			}
		}
		rk.Barrier()
	})
}

func TestLocalOnRemotePanics(t *testing.T) {
	Run(2, func(rk *Rank) {
		p := MustNewArray[uint64](rk, 1)
		_ = NewDistObject(rk, p)
		rk.Barrier()
		if rk.Me() == 0 {
			remote := FetchDist[GPtr[uint64]](rk, 0, 1).Wait()
			func() {
				defer func() {
					if recover() == nil {
						t.Error("Local on a remote pointer should panic")
					}
				}()
				Local(rk, remote, 1)
			}()
		}
		rk.Barrier()
	})
}

func TestToGlobalOutsideSegmentPanics(t *testing.T) {
	Run(1, func(rk *Rank) {
		private := make([]float64, 4)
		defer func() {
			if recover() == nil {
				t.Error("ToGlobal of private memory should panic")
			}
		}()
		ToGlobal(rk, private)
	})
}

// TestInjectOrderPerGoroutine: one goroutine's operations reach the conduit
// in the order it issued them (DESIGN §10, per-pair FIFO) while another
// goroutine of its rank makes progress at the same time — the progress
// thread, or a second persona polling. Put i writes i to slot i of the
// target, and rpc_ff i, issued right after it, checks there that it is the
// i-th to arrive and that put i has landed.
func TestInjectOrderPerGoroutine(t *testing.T) {
	const n = 2000
	for _, pt := range []bool{true, false} {
		t.Run(map[bool]string{true: "ProgressThread", false: "PollingPersona"}[pt], func(t *testing.T) {
			var (
				slots GPtr[uint64] // rank 1's, published by the first barrier
				seen  atomic.Uint64
				fault atomic.Pointer[string]
			)
			arrive := func(trk *Rank, i uint64) {
				k := seen.Add(1)
				if v := Local(trk, slots.Add(int(i)), 1)[0]; k != i || v != i {
					msg := fmt.Sprintf("rpc_ff %d arrived %d-th, slot %d holding %d", i, k, i, v)
					fault.CompareAndSwap(nil, &msg)
				}
			}
			RunConfig(Config{Ranks: 2, ProgressThread: pt}, func(rk *Rank) {
				if rk.Me() == 1 {
					slots = MustNewArray[uint64](rk, n+1)
				}
				rk.Barrier()
				if rk.Me() == 1 {
					for seen.Load() < n && fault.Load() == nil {
						rk.ProgressWait(time.Millisecond)
					}
					return
				}
				if !pt {
					stop, done := make(chan struct{}), make(chan struct{})
					go func() {
						defer close(done)
						sc := AcquirePersona(NewPersona(rk, "poller"))
						defer sc.Release()
						for {
							select {
							case <-stop:
								return
							default:
								rk.Progress()
							}
						}
					}()
					defer func() { close(stop); <-done }()
				}
				for i := uint64(1); i <= n; i++ {
					RPut(rk, []uint64{i}, slots.Add(int(i)))
					RPCFF(rk, 1, arrive, i)
				}
				rk.Quiesce()
			})
			if f := fault.Load(); f != nil {
				t.Fatal(*f)
			}
			if got := seen.Load(); got != n {
				t.Fatalf("%d of %d rpc_ffs arrived", got, n)
			}
		})
	}
}

func TestCompQDrainedOnlyByUserProgress(t *testing.T) {
	Run(1, func(rk *Rank) {
		ran := false
		LPCTo(rk.CurrentPersona(), func() { ran = true })
		rk.InternalProgress()
		if ran {
			t.Fatal("internal progress must not run compQ actions")
		}
		rk.Progress()
		if !ran {
			t.Fatal("user progress must drain compQ")
		}
	})
}

func TestCallbackChainingDepth(t *testing.T) {
	// Long Then chains must neither stack-overflow nor reorder.
	Run(1, func(rk *Rank) {
		f := ReadyFuture(rk, 0)
		const depth = 10000
		for i := 0; i < depth; i++ {
			f = Then(f, func(v int) int { return v + 1 })
		}
		if got := f.Wait(); got != depth {
			t.Fatalf("chain result = %d", got)
		}
	})
}

func TestPutOrderingSameDestination(t *testing.T) {
	// Conduit FIFO: puts from one source to one destination complete in
	// order, so the last write wins.
	Run(2, func(rk *Rank) {
		p := MustNewArray[uint64](rk, 1)
		_ = NewDistObject(rk, p)
		rk.Barrier()
		if rk.Me() == 0 {
			dst := FetchDist[GPtr[uint64]](rk, 0, 1).Wait()
			pr := NewPromise[Unit](rk)
			for i := uint64(1); i <= 100; i++ {
				RPutPromise(rk, []uint64{i}, dst, pr)
			}
			pr.Finalize().Wait()
			if got := GetValue(rk, dst).Wait(); got != 100 {
				t.Errorf("last write = %d", got)
			}
		}
		rk.Barrier()
	})
}

func TestWorldsAreIsolated(t *testing.T) {
	// Two worlds in one process must not share segments or teams.
	w1 := NewWorld(Config{Ranks: 2})
	w2 := NewWorld(Config{Ranks: 2})
	defer w1.Close()
	defer w2.Close()
	var p1, p2 GPtr[uint64]
	w1.Run(func(rk *Rank) {
		if rk.Me() == 0 {
			p1 = MustNewArray[uint64](rk, 1)
			Local(rk, p1, 1)[0] = 111
		}
	})
	w2.Run(func(rk *Rank) {
		if rk.Me() == 0 {
			p2 = MustNewArray[uint64](rk, 1)
			Local(rk, p2, 1)[0] = 222
		}
	})
	w1.Run(func(rk *Rank) {
		if rk.Me() == 0 {
			if got := Local(rk, p1, 1)[0]; got != 111 {
				t.Errorf("world 1 segment = %d", got)
			}
		}
	})
}

func TestTeamSplitSingletons(t *testing.T) {
	Run(3, func(rk *Rank) {
		sub := rk.WorldTeam().Split(int(rk.Me()), 0) // all different colors
		if sub.RankN() != 1 || sub.RankMe() != 0 {
			t.Errorf("singleton team: n=%d me=%d", sub.RankN(), sub.RankMe())
		}
		// Collectives on singleton teams are immediate.
		if got := AllReduce(sub, int64(7), func(a, b int64) int64 { return a + b }).Wait(); got != 7 {
			t.Errorf("singleton allreduce = %d", got)
		}
		rk.Barrier()
	})
}

func TestNestedTeamSplit(t *testing.T) {
	Run(8, func(rk *Rank) {
		half := rk.WorldTeam().Split(int(rk.Me())/4, int(rk.Me()))
		quarter := half.Split(int(half.RankMe())/2, int(half.RankMe()))
		if quarter.RankN() != 2 {
			t.Errorf("quarter size = %d", quarter.RankN())
		}
		total := AllReduce(quarter, int64(1), func(a, b int64) int64 { return a + b }).Wait()
		if total != 2 {
			t.Errorf("quarter allreduce = %d", total)
		}
		rk.Barrier()
	})
}

func TestGPtrSerializationRoundTrip(t *testing.T) {
	// Global pointers travel through RPC intact (the DHT landing-zone
	// pattern depends on it).
	Run(2, func(rk *Rank) {
		if rk.Me() == 0 {
			sent := GPtr[float64]{Owner: 1, Off: 1024}
			got := RPC(rk, 1, func(trk *Rank, p GPtr[float64]) GPtr[float64] {
				return p.Add(2)
			}, sent).Wait()
			if got.Owner != 1 || got.Off != 1024+16 {
				t.Errorf("round-tripped gptr = %+v", got)
			}
		}
		rk.Barrier()
	})
}

// Property: promise dependency algebra — for any interleaving of
// require/fulfill with matching totals, the future readies exactly at the
// last fulfillment.
func TestQuickPromiseAlgebra(t *testing.T) {
	f := func(steps []bool) bool {
		ok := true
		Run(1, func(rk *Rank) {
			p := NewPromise[Unit](rk)
			outstanding := 0
			fut := p.Future()
			for _, require := range steps {
				if require {
					p.RequireAnonymous(1)
					outstanding++
				} else if outstanding > 0 {
					p.FulfillAnonymous(1)
					outstanding--
				}
				if fut.Ready() {
					ok = false // initial dep still held
					return
				}
			}
			for outstanding > 0 {
				p.FulfillAnonymous(1)
				outstanding--
				if fut.Ready() {
					ok = false
					return
				}
			}
			p.Finalize()
			if !fut.Ready() {
				ok = false
			}
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: WhenAll over random subsets readies exactly when all inputs
// have.
func TestQuickWhenAll(t *testing.T) {
	f := func(n uint8) bool {
		count := int(n%16) + 1
		ok := true
		Run(1, func(rk *Rank) {
			proms := make([]*Promise[Unit], count)
			futs := make([]AnyFuture, count)
			for i := range proms {
				proms[i] = NewPromise[Unit](rk)
				futs[i] = proms[i].Future()
			}
			all := WhenAll(rk, futs...)
			for i, p := range proms {
				if all.Ready() {
					ok = false
					return
				}
				_ = i
				p.FulfillResult(Unit{})
			}
			if !all.Ready() {
				ok = false
			}
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestWaitTimeoutDiagnosesDeadlock(t *testing.T) {
	// A future that can never complete must panic with a diagnostic
	// rather than hang forever, and WaitTimeout is kept by the clock: the
	// panic comes no earlier than the timeout and at most one park plus
	// scheduling slack after it — with one P and with several, and also
	// when every idle pass parks, as on a one-P rank of a tcp job (where a
	// timeout counted in passes came many seconds late).
	const timeout, slack = 150 * time.Millisecond, 50 * time.Millisecond
	for _, asDist := range []bool{false, true} {
		for _, procs := range []int{1, 2} {
			t.Run(fmt.Sprintf("dist=%v/%dP", asDist, procs), func(t *testing.T) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				backend := ""
				if asDist {
					backend = "tcp"
				}
				rk := idleRank(t, backend)
				rk.w.cfg.WaitTimeout = timeout
				sc := AcquirePersona(rk.master)
				defer sc.Release()
				var recovered any
				t0 := time.Now()
				func() {
					defer func() { recovered = recover() }()
					NewPromise[Unit](rk).Future().Wait() // never fulfilled
				}()
				waited := time.Since(t0)
				if recovered == nil {
					t.Fatal("expected deadlock panic")
				}
				if msg := fmt.Sprint(recovered); !strings.Contains(msg, "Wait exceeded") {
					t.Fatalf("panic message %q does not name the exceeded Wait", msg)
				}
				if waited < timeout || waited > timeout+slack {
					t.Errorf("Wait gave up after %v, want within [%v, %v]", waited, timeout, timeout+slack)
				}
			})
		}
	}
}

// TestQuiesceDiagnosesDeadlock: Quiesce waits through Future.Wait's loop, so
// an operation that can never complete — an RPC whose target never makes
// progress — ends it with Wait's WaitTimeout diagnosis, not a hang. When the
// panic comes is TestWaitTimeoutDiagnosesDeadlock's to pin; this test has no
// upper bound on it.
func TestQuiesceDiagnosesDeadlock(t *testing.T) {
	const timeout = 100 * time.Millisecond
	w := NewWorld(Config{Ranks: 2, WaitTimeout: timeout})
	defer w.Close()
	rk0 := w.Rank(0)
	defer DetachDefaultPersonas()
	RPC(rk0, 1, func(_ *Rank, x int) int { return x }, 1) // rank 1 never runs it
	var recovered any
	t0 := time.Now()
	func() {
		defer func() { recovered = recover() }()
		rk0.Quiesce()
	}()
	if msg := fmt.Sprint(recovered); !strings.Contains(msg, "Quiesce exceeded") || !strings.Contains(msg, "(deadlock?)") {
		t.Fatalf("Quiesce with an RPC that is never answered: panic %q, want its WaitTimeout diagnosis", msg)
	}
	if waited := time.Since(t0); waited < timeout {
		t.Errorf("Quiesce gave up after %v, before its WaitTimeout of %v", waited, timeout)
	}
}

func TestRealtimeWorldSmoke(t *testing.T) {
	// The full runtime over the LogGP conduit with several ranks per
	// node: a sanity pass for the model-time path.
	model := &gasnet.LogGP{O: time.Microsecond, L: 2 * time.Microsecond, Gp: time.Microsecond}
	RunConfig(Config{Ranks: 4, RanksPerNode: 2, Model: model}, func(rk *Rank) {
		sum := AllReduce(rk.WorldTeam(), int64(rk.Me()), func(a, b int64) int64 { return a + b }).Wait()
		if sum != 6 {
			t.Errorf("allreduce = %d", sum)
		}
		got := RPC(rk, (rk.Me()+1)%4, func(trk *Rank, x int32) int32 { return x * 2 }, int32(21)).Wait()
		if got != 42 {
			t.Errorf("rpc = %d", got)
		}
		rk.Barrier()
	})
}

func TestQuiesce(t *testing.T) {
	Run(2, func(rk *Rank) {
		p := MustNewArray[uint64](rk, 64)
		_ = NewDistObject(rk, p)
		rk.Barrier()
		if rk.Me() == 0 {
			dst := FetchDist[GPtr[uint64]](rk, 0, 1).Wait()
			// Fire many operations without retaining their futures.
			for i := 0; i < 64; i++ {
				_ = RPut(rk, []uint64{uint64(i)}, dst.Add(i))
			}
			rk.Quiesce()
			if rk.PendingOps() != 0 {
				t.Errorf("PendingOps = %d after Quiesce", rk.PendingOps())
			}
			buf := make([]uint64, 64)
			RGet(rk, dst, buf).Wait()
			for i, v := range buf {
				if v != uint64(i) {
					t.Errorf("elem %d = %d", i, v)
				}
			}
		}
		rk.Barrier()
	})
}

// TestDischarge (upcxx::discharge): after a burst of puts whose
// completions wait as LPCs, Discharge returns at once — each initiating call
// handed its put to the conduit — without running a user-level delivery.
func TestDischarge(t *testing.T) {
	Run(2, func(rk *Rank) {
		p := MustNewArray[uint64](rk, 64)
		_ = NewDistObject(rk, p)
		rk.Barrier()
		if rk.Me() == 0 {
			dst := FetchDist[GPtr[uint64]](rk, 0, 1).Wait()
			delivered := 0
			for i := 0; i < 64; i++ {
				RPutWith(rk, []uint64{uint64(i) + 1}, dst.Add(i), OpCxAsLPC(nil, func() { delivered++ }))
			}
			rk.Discharge()
			if delivered != 0 {
				t.Errorf("Discharge ran %d user-level deliveries; it is internal progress only", delivered)
			}
			rk.Quiesce()
			buf := make([]uint64, 64)
			RGet(rk, dst, buf).Wait()
			for i, v := range buf {
				if v != uint64(i)+1 {
					t.Errorf("elem %d = %d", i, v)
				}
			}
			if delivered != 64 {
				t.Errorf("%d of 64 deliveries ran", delivered)
			}
		}
		rk.Barrier()
	})
}
