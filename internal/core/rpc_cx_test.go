package upcxx

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// RPC completion conformance matrix:
//
//	{rpc, rpc_ff} × {future, promise, LPC} × {initiator-persona,
//	named-persona} × {self, cross-rank}
//
// plus persona-targeted variants of the RMA and collective rows. Every
// cell issues one RPC (or put/collective) whose operation completion is
// delivered through exactly that method to exactly that persona, blocks
// until the delivery demonstrably happened on the right context, and
// proves the body/transfer took effect. The matrix runs under -race in
// CI (make race): named-persona deliveries cross the persona LPC queues
// from whichever goroutine harvests the conduit, which is precisely the
// machinery the race gate exists to watch.

// cxWorker is a goroutine holding a named persona and executing
// submitted jobs with that persona current — the test stand-in for an
// application worker thread that consumes persona-addressed completions.
type cxWorker struct {
	p    *Persona
	jobs chan func()
	done chan struct{}
}

func startCxWorker(rk *Rank, name string) *cxWorker {
	w := &cxWorker{p: NewPersona(rk, name), jobs: make(chan func()), done: make(chan struct{})}
	ready := make(chan struct{})
	go func() {
		defer close(w.done)
		sc := AcquirePersona(w.p)
		defer sc.Release()
		close(ready)
		for fn := range w.jobs {
			fn()
		}
	}()
	<-ready
	return w
}

// run hands fn to the worker goroutine (executed with the worker persona
// current); it returns once the worker has accepted the job, not when the
// job finishes — the caller keeps progressing its own personas meanwhile.
func (w *cxWorker) run(fn func()) { w.jobs <- fn }

func (w *cxWorker) stop() {
	close(w.jobs)
	<-w.done
}

// spinProgress drives rk's progress on the calling goroutine until cond
// holds (bounded; reports failure through t, which is goroutine-safe).
func spinProgress(t *testing.T, rk *Rank, what string, cond func() bool) {
	deadline := time.Now().Add(20 * time.Second)
	for !cond() {
		if rk.Progress() == 0 {
			runtime.Gosched()
		}
		if time.Now().After(deadline) {
			t.Errorf("%s: never became true", what)
			return
		}
	}
}

func TestCxRPCMatrix(t *testing.T) {
	Run(2, func(rk *Rank) {
		ctr := MustNewArray[uint64](rk, 1)
		obj := NewDistObject(rk, ctr)
		rk.Barrier()
		if rk.Me() == 0 {
			ctrs := [2]GPtr[uint64]{
				FetchDist[GPtr[uint64]](rk, obj.ID(), 0).Wait(),
				FetchDist[GPtr[uint64]](rk, obj.ID(), 1).Wait(),
			}
			wk := startCxWorker(rk, "rpc-cx-worker")
			defer wk.stop()
			for _, ff := range []bool{false, true} {
				for _, how := range []string{"future", "promise", "lpc"} {
					for _, named := range []bool{false, true} {
						for _, cross := range []bool{false, true} {
							rctr := ctrs[0]
							if cross {
								rctr = ctrs[1]
							}
							name := fmt.Sprintf("ff=%v/%s/named=%v/cross=%v", ff, how, named, cross)
							runRPCOpCxCell(t, rk, name, ff, named, how, wk, rctr)
						}
					}
				}
			}
		}
		rk.Barrier()
	})
}

// runRPCOpCxCell executes one matrix cell: an RPC whose body bumps a
// counter at the target, with operation completion delivered by (how) to
// either the initiating master persona or the named worker persona.
func runRPCOpCxCell(t *testing.T, rk *Rank, name string, ff, named bool, how string, wk *cxWorker, rctr GPtr[uint64]) {
	resetFlag(rk, rctr)
	target := rctr.Owner

	var cx Cx
	var prom *Promise[Unit]
	fired := false      // initiator-persona LPC (master goroutine only)
	var hit atomic.Bool // named-persona LPC (set from the worker's drain)
	switch how {
	case "future":
		if named {
			cx = OpCxAsFuture().On(wk.p)
		} else {
			cx = OpCxAsFuture()
		}
	case "promise":
		if named {
			prom = NewPromiseOn[Unit](rk, wk.p)
			cx = OpCxAsPromise(prom).On(wk.p) // On must accept the owner
		} else {
			prom = NewPromise[Unit](rk)
			cx = OpCxAsPromise(prom)
		}
	case "lpc":
		if named {
			cx = OpCxAsLPC(wk.p, func() { hit.Store(true) })
		} else {
			cx = OpCxAsLPC(nil, func() { fired = true })
		}
	}

	var fs CxFutures
	if ff {
		fs = RPCFFWith(rk, target, func(trk *Rank, c GPtr[uint64]) {
			Local(trk, c, 1)[0]++
		}, rctr, cx)
	} else {
		_, fs = RPCWith(rk, target, func(trk *Rank, c GPtr[uint64]) Unit {
			Local(trk, c, 1)[0]++
			return Unit{}
		}, rctr, cx)
	}

	var consumed atomic.Bool
	switch {
	case how == "future" && !named:
		fs.Op.Wait()
	case how == "future" && named:
		wk.run(func() { fs.Op.Wait(); consumed.Store(true) })
		spinProgress(t, rk, name+" worker future", func() bool { return consumed.Load() })
	case how == "promise" && !named:
		prom.Finalize().Wait()
	case how == "promise" && named:
		wk.run(func() { prom.Finalize().Wait(); consumed.Store(true) })
		spinProgress(t, rk, name+" worker promise", func() bool { return consumed.Load() })
	case how == "lpc" && !named:
		spinProgress(t, rk, name+" lpc", func() bool { return fired })
	case how == "lpc" && named:
		wk.run(func() {
			deadline := time.Now().Add(20 * time.Second)
			for !hit.Load() && !time.Now().After(deadline) {
				if rk.Progress() == 0 {
					runtime.Gosched()
				}
			}
			consumed.Store(true)
		})
		spinProgress(t, rk, name+" worker lpc", func() bool { return consumed.Load() && hit.Load() })
	}

	// The body must take effect: a round-trip cell's op event already
	// implies it (the reply postdates the body); a fire-and-forget cell's
	// op event fires at injection, so poll for the landing.
	spinProgress(t, rk, name+" body effect", func() bool { return readFlag(rk, rctr) == 1 })
	if !ff {
		if got := readFlag(rk, rctr); got != 1 {
			t.Errorf("%s: counter = %d after op completion, want 1", name, got)
		}
	}
}

// TestCxRPCOpFutureNamedPersonaOnly is the acceptance pin for
// persona-addressed RPC completions: an operation-cx future addressed to
// a named worker persona is owned by that persona — consuming it from the
// initiating master goroutine fails loudly, and the worker (the only
// goroutine holding the persona) consumes it successfully.
func TestCxRPCOpFutureNamedPersonaOnly(t *testing.T) {
	Run(2, func(rk *Rank) {
		rk.Barrier()
		if rk.Me() == 0 {
			wp := NewPersona(rk, "op-consumer")
			acquired := make(chan struct{})
			consume := make(chan CxFutures)
			var got atomic.Bool
			go func() {
				sc := AcquirePersona(wp)
				defer sc.Release()
				close(acquired)
				fs := <-consume
				fs.Op.Wait()
				got.Store(true)
			}()
			<-acquired
			val, fs := RPCWith(rk, 1, func(trk *Rank, x int) int { return x + 1 }, 41,
				OpCxAsFuture().On(wp))
			// The op future belongs to the worker persona; the initiating
			// goroutine must not be able to consume it. (The worker is
			// parked on the consume channel, so this read cannot race its
			// drain.)
			expectPanic(t, "op future consumed off its owning persona", func() { fs.Op.Wait() })
			consume <- fs
			spinProgress(t, rk, "worker op future", func() bool { return got.Load() })
			// The value future stays with the initiator.
			if v := val.Wait(); v != 42 {
				t.Errorf("RPC result = %d, want 42", v)
			}
		}
		rk.Barrier()
	})
}

// TestCxRPCSourceReuse pins the RPC source-completion contract: once
// source_cx fires the argument serialization has been captured by the
// conduit, independent of (and no later than) the reply.
func TestCxRPCSourceReuse(t *testing.T) {
	Run(2, func(rk *Rank) {
		if rk.Me() == 0 {
			val, fs := RPCWith(rk, 1, func(trk *Rank, xs []uint64) uint64 {
				var s uint64
				for _, x := range xs {
					s += x
				}
				return s
			}, []uint64{1, 2, 3, 4}, OpCxAsFuture(), SourceCxAsFuture())
			fs.Source.Wait() // argument buffer reusable from here
			if got := val.Wait(); got != 10 {
				t.Errorf("RPC over captured args = %d, want 10", got)
			}
			fs.Op.Wait()
			if !fs.Source.Ready() {
				t.Error("source_cx not ready at operation completion")
			}
		}
		rk.Barrier()
	})
}

// TestCxRPCRemoteLanding: a remote_cx as_rpc descriptor on an RPC fires
// at the target when the request lands — including on a fire-and-forget
// message, which offers no other target-side hook — and may be addressed
// to a named target-rank persona, whose holder then harvests it.
func TestCxRPCRemoteLanding(t *testing.T) {
	var landed, bodyRan atomic.Int64
	var namedLanded, onNamed atomic.Bool
	var mu sync.Mutex
	var targetP *Persona
	stop := make(chan struct{})
	var wg sync.WaitGroup
	Run(2, func(rk *Rank) {
		if rk.Me() == 1 {
			wp := NewPersona(rk, "landing-consumer")
			mu.Lock()
			targetP = wp
			mu.Unlock()
			wg.Add(1)
			go func() {
				defer wg.Done()
				sc := AcquirePersona(wp)
				defer sc.Release()
				for {
					select {
					case <-stop:
						return
					default:
					}
					if rk.Progress() == 0 {
						runtime.Gosched()
					}
				}
			}()
		}
		rk.Barrier()
		if rk.Me() == 0 {
			RPCFFWith(rk, 1, func(trk *Rank, _ int) { bodyRan.Add(1) }, 0,
				OpCxAsFuture(),
				RemoteCxAsRPC(func(trk *Rank, _ int) { landed.Add(1) }, 0))
			spinProgress(t, rk, "ff landing event", func() bool { return landed.Load() == 1 })
			spinProgress(t, rk, "ff body", func() bool { return bodyRan.Load() == 1 })

			// Named target-rank persona: the landing event of a round-trip
			// RPC routed to rank 1's worker persona instead of its
			// execution persona.
			mu.Lock()
			wp := targetP
			mu.Unlock()
			val, _ := RPCWith(rk, 1, func(trk *Rank, x int) int { return x * 2 }, 21,
				RemoteCxAsRPC(func(trk *Rank, _ int) {
					onNamed.Store(trk.CurrentPersona() == wp)
					namedLanded.Store(true)
				}, 0).On(wp))
			if got := val.Wait(); got != 42 {
				t.Errorf("RPC result = %d, want 42", got)
			}
			spinProgress(t, rk, "named landing event", func() bool { return namedLanded.Load() })
			if !onNamed.Load() {
				t.Error("named landing body did not run with the target's worker persona current")
			}
		}
		rk.Barrier()
		if rk.Me() == 1 {
			close(stop)
			wg.Wait()
		}
		rk.Barrier()
	})
}

// TestCxRPCInvalidCombos pins the RPC completion cells the model forbids.
func TestCxRPCInvalidCombos(t *testing.T) {
	Run(2, func(rk *Rank) {
		if rk.Me() == 0 {
			noop := func(trk *Rank, x int) int { return x }
			// An RPC has no initiator-side remote event (a fire-and-forget
			// message carries no ack to ride back).
			expectPanic(t, "remote_cx as_future on rpc", func() {
				RPCWith(rk, 1, noop, 0, RemoteCxAsFuture())
			})
			expectPanic(t, "remote_cx as_promise on rpc_ff", func() {
				RPCFFWith(rk, 1, func(*Rank, int) {}, 0, RemoteCxAsPromise(NewPromise[Unit](rk)))
			})
			// Persona addressing is rank-checked on both sides.
			other := NewPersona(rk.World().Rank(1), "other-rank")
			expectPanic(t, "op future on another rank's persona", func() {
				RPCWith(rk, 1, noop, 0, OpCxAsFuture().On(other))
			})
			expectPanic(t, "remote_cx as_rpc persona of a third rank", func() {
				mine := NewPersona(rk, "mine")
				RPCWith(rk, 1, noop, 0, RemoteCxAsRPC(func(*Rank, int) {}, 0).On(mine))
			})
			// A promise delivery may only be addressed to its owner.
			expectPanic(t, "promise addressed off its owner", func() {
				wp := NewPersona(rk, "wp")
				RPCWith(rk, 1, noop, 0, OpCxAsPromise(NewPromise[Unit](rk)).On(wp))
			})
			expectPanic(t, "NewPromiseOn with a foreign rank's persona", func() {
				NewPromiseOn[Unit](rk, other)
			})
			expectPanic(t, "On(nil)", func() { OpCxAsFuture().On(nil) })
			rk.Quiesce()
		}
		rk.Barrier()
	})
}

// TestCxPersonaTargetedRMA extends the RMA rows of the completion matrix
// with named-persona deliveries: operation, source, and remote events of
// one put, each delivered to a worker persona as future, promise, and
// LPC. The worker goroutine (the only holder of the persona) does the
// blocking; the master verifies the put's bytes afterwards.
func TestCxPersonaTargetedRMA(t *testing.T) {
	Run(2, func(rk *Rank) {
		dst := MustNewArray[uint64](rk, 4)
		obj := NewDistObject(rk, dst)
		rk.Barrier()
		if rk.Me() == 0 {
			rdst := FetchDist[GPtr[uint64]](rk, obj.ID(), 1).Wait()
			wk := startCxWorker(rk, "rma-cx-worker")
			defer wk.stop()
			src := []uint64{1, 2, 3, 4}

			for _, ev := range cxEvents {
				for _, how := range []string{"future", "promise", "lpc"} {
					name := fmt.Sprintf("rma/%v/%s/named", ev, how)
					var cx Cx
					var prom *Promise[Unit]
					var hit atomic.Bool
					switch how {
					case "future":
						switch ev {
						case evOp:
							cx = OpCxAsFuture().On(wk.p)
						case evSource:
							cx = SourceCxAsFuture().On(wk.p)
						case evRemote:
							cx = RemoteCxAsFuture().On(wk.p)
						}
					case "promise":
						prom = NewPromiseOn[Unit](rk, wk.p)
						switch ev {
						case evOp:
							cx = OpCxAsPromise(prom)
						case evSource:
							cx = SourceCxAsPromise(prom)
						case evRemote:
							cx = RemoteCxAsPromise(prom)
						}
					case "lpc":
						fn := func() { hit.Store(true) }
						switch ev {
						case evOp:
							cx = OpCxAsLPC(wk.p, fn)
						case evSource:
							cx = SourceCxAsLPC(wk.p, fn)
						case evRemote:
							cx = RemoteCxAsLPC(wk.p, fn)
						}
					}
					fs := RPutWith(rk, src, rdst, cx)
					var consumed atomic.Bool
					wk.run(func() {
						switch how {
						case "future":
							switch ev {
							case evOp:
								fs.Op.Wait()
							case evSource:
								fs.Source.Wait()
							case evRemote:
								fs.Remote.Wait()
							}
						case "promise":
							prom.Finalize().Wait()
						case "lpc":
							deadline := time.Now().Add(20 * time.Second)
							for !hit.Load() && !time.Now().After(deadline) {
								if rk.Progress() == 0 {
									runtime.Gosched()
								}
							}
						}
						consumed.Store(true)
					})
					spinProgress(t, rk, name, func() bool { return consumed.Load() })
					if how == "lpc" && !hit.Load() {
						t.Errorf("%s: LPC never ran on the worker persona", name)
					}
					// Bound the put (op edges ride the same conduit ack as
					// remote/source here) and verify the bytes landed.
					got := make([]uint64, 4)
					RGet(rk, rdst, got).Wait()
					for i, v := range src {
						if got[i] != v {
							t.Fatalf("%s: dst[%d] = %d, want %d", name, i, got[i], v)
						}
					}
				}
			}
		}
		rk.Barrier()
	})
}

// TestCollCxNamedPersona extends the collective rows: an allreduce whose
// operation completion is addressed to a named worker persona (future,
// promise, and LPC forms), initiated by the master persona.
func TestCollCxNamedPersona(t *testing.T) {
	for _, how := range []string{"future", "promise", "lpc"} {
		how := how
		t.Run(how, func(t *testing.T) {
			Run(3, func(rk *Rank) {
				team := rk.WorldTeam()
				if rk.Me() == 0 {
					wk := startCxWorker(rk, "coll-cx-worker")
					defer wk.stop()
					var cx Cx
					var prom *Promise[Unit]
					var hit atomic.Bool
					switch how {
					case "future":
						cx = OpCxAsFuture().On(wk.p)
					case "promise":
						prom = NewPromiseOn[Unit](rk, wk.p)
						cx = OpCxAsPromise(prom)
					case "lpc":
						cx = OpCxAsLPC(wk.p, func() { hit.Store(true) })
					}
					val, fs := AllReduceWith(team, int64(rk.Me()+1),
						func(a, b int64) int64 { return a + b }, cx)
					var consumed atomic.Bool
					wk.run(func() {
						switch how {
						case "future":
							fs.Op.Wait()
						case "promise":
							prom.Finalize().Wait()
						case "lpc":
							deadline := time.Now().Add(20 * time.Second)
							for !hit.Load() && !time.Now().After(deadline) {
								if rk.Progress() == 0 {
									runtime.Gosched()
								}
							}
						}
						consumed.Store(true)
					})
					spinProgress(t, rk, "coll named "+how, func() bool { return consumed.Load() })
					if got := val.Wait(); got != 6 {
						t.Errorf("allreduce = %d, want 6", got)
					}
				} else {
					AllReduce(team, int64(rk.Me()+1), func(a, b int64) int64 { return a + b }).Wait()
				}
				rk.Barrier()
			})
		})
	}
}

// TestCxSignalingPutNamedPersonaPT pins the progress-thread use case the
// redesign exists for: a signaling put whose RemoteCxAsRPC notification
// is addressed to a named *worker persona of the target rank*, so in
// progress-thread mode the landing event bypasses the execution persona
// and is harvested directly by the worker goroutine it concerns.
func TestCxSignalingPutNamedPersonaPT(t *testing.T) {
	var mu sync.Mutex
	var workerP *Persona
	var onWorker, landed atomic.Bool
	stop := make(chan struct{})
	var wg sync.WaitGroup
	RunConfig(Config{Ranks: 2, ProgressThread: true}, func(rk *Rank) {
		dst := MustNewArray[uint64](rk, 4)
		obj := NewDistObject(rk, dst)
		if rk.Me() == 1 {
			wp := NewPersona(rk, "halo-worker")
			mu.Lock()
			workerP = wp
			mu.Unlock()
			wg.Add(1)
			go func() {
				defer wg.Done()
				sc := AcquirePersona(wp)
				defer sc.Release()
				for {
					select {
					case <-stop:
						return
					default:
					}
					if rk.Progress() == 0 {
						runtime.Gosched()
					}
				}
			}()
		}
		rk.Barrier()
		if rk.Me() == 0 {
			mu.Lock()
			wp := workerP
			mu.Unlock()
			rdst := FetchDist[GPtr[uint64]](rk, obj.ID(), 1).Wait()
			fs := RPutWith(rk, []uint64{9, 9, 9, 9}, rdst,
				OpCxAsFuture(),
				RemoteCxAsRPC(func(trk *Rank, _ int) {
					onWorker.Store(trk.CurrentPersona() == wp)
					landed.Store(true)
				}, 0).On(wp))
			fs.Op.Wait()
			spinProgress(t, rk, "named-persona landing", func() bool { return landed.Load() })
			if !onWorker.Load() {
				t.Error("remote-cx body did not run with the named worker persona current")
			}
		}
		rk.Barrier()
		if rk.Me() == 1 {
			close(stop)
			wg.Wait()
		}
		rk.Barrier()
	})
}
