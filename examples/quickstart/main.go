// Quickstart: the core UPC++ vocabulary in one runnable program —
// shared-segment allocation, global pointers, distributed objects,
// one-sided RMA (rput/rget), RPC with a chained completion handler,
// promises as completion counters, remote atomics, and a collective.
//
// Run with:
//
//	go run ./examples/quickstart
//
// or as real OS-process ranks over a transport backend:
//
//	UPCXX_CONDUIT=shm UPCXX_NPROC=4 go run ./examples/quickstart
//
// RPC bodies that cross process boundaries are package-level functions
// registered in init (closures cannot travel between processes).
package main

import (
	"fmt"
	"sync"

	"upcxx"
)

// Cross-process RPC bodies: registered by name so a real transport
// backend can dispatch them in sibling rank processes.

func allocLanding(trk *upcxx.Rank, n int) upcxx.GPtr[float64] {
	return upcxx.MustNewArray[float64](trk, n)
}

func sumU64(trk *upcxx.Rank, xs []uint64) uint64 {
	var s uint64
	for _, x := range xs {
		s += x
	}
	return s
}

func square(trk *upcxx.Rank, x int) int { return x * x }

func incr(trk *upcxx.Rank, x int) int { return x + 1 }

func init() {
	upcxx.RegisterRPC(allocLanding)
	upcxx.RegisterRPC(sumU64)
	upcxx.RegisterRPC(square)
	upcxx.RegisterRPC(incr)
}

func main() {
	const ranks = 4
	var mu sync.Mutex
	say := func(format string, args ...any) {
		mu.Lock()
		fmt.Printf(format+"\n", args...)
		mu.Unlock()
	}

	upcxx.Run(ranks, func(rk *upcxx.Rank) {
		n := int(rk.N()) // == ranks in-process; UPCXX_NPROC over a real conduit
		// --- Global memory -------------------------------------------
		// Every rank allocates an array in its shared segment and
		// publishes the global pointer through a distributed object.
		mine := upcxx.MustNewArray[uint64](rk, n)
		ptrs := upcxx.NewDistObject(rk, mine)
		rk.Barrier()

		// --- One-sided RMA -------------------------------------------
		// Write my rank id into slot Me() of my right neighbour, with a
		// blocking put (future.Wait), then read it back with rget.
		right := (rk.Me() + 1) % rk.N()
		remote := upcxx.FetchDist[upcxx.GPtr[uint64]](rk, ptrs.ID(), right).Wait()
		upcxx.RPut(rk, []uint64{uint64(rk.Me())}, remote.Add(int(rk.Me()))).Wait()
		rk.Barrier()

		left := (rk.Me() - 1 + rk.N()) % rk.N()
		got := upcxx.GetValue(rk, upcxx.ToGlobal(rk, upcxx.Local(rk, mine, n)).Add(int(left))).Wait()
		say("rank %d: left neighbour %d deposited %d", rk.Me(), left, got)

		// --- RPC with completion chaining ------------------------------
		// Ask the right neighbour to allocate a landing zone, then rput
		// into it once the pointer arrives (the paper's DHT idiom).
		lzf := upcxx.RPC(rk, right, allocLanding, 3)
		done := upcxx.ThenFut(lzf, func(lz upcxx.GPtr[float64]) upcxx.Future[upcxx.Unit] {
			return upcxx.RPut(rk, []float64{1.5, 2.5, 3.5}, lz)
		})
		done.Wait()

		// --- One completion vocabulary for every operation --------------
		// RPCs speak the same completion language as RMA and collectives:
		// source-cx fires when the argument buffer may be reused, op-cx
		// when the reply lands. Here the same args buffer feeds several
		// RPCs back to back, with all replies counted on one promise.
		args := make([]uint64, 4)
		replies := upcxx.NewPromise[upcxx.Unit](rk)
		for round := uint64(0); round < 3; round++ {
			for i := range args {
				args[i] = round*10 + uint64(i)
			}
			_, fs := upcxx.RPCWith(rk, right, sumU64, args,
				upcxx.SourceCxAsFuture(),
				upcxx.OpCxAsPromise(replies))
			fs.Source.Wait() // args is reusable for the next round
		}
		replies.Finalize().Wait()

		// --- Promises as completion counters ---------------------------
		// Issue many puts tracked by one promise (the flood idiom).
		p := upcxx.NewPromise[upcxx.Unit](rk)
		for i := 0; i < n; i++ {
			upcxx.RPutPromise(rk, []uint64{uint64(100 + i)}, remote.Add(i), p)
		}
		p.Finalize().Wait()
		rk.Barrier()

		// --- Remote atomics --------------------------------------------
		// Everybody increments a counter on rank 0.
		var counter upcxx.GPtr[uint64]
		if rk.Me() == 0 {
			counter = upcxx.MustNewArray[uint64](rk, 1)
		}
		cobj := upcxx.NewDistObject(rk, counter)
		rk.Barrier()
		counter = upcxx.FetchDist[upcxx.GPtr[uint64]](rk, cobj.ID(), 0).Wait()
		ad := upcxx.NewAtomicU64(rk)
		old := ad.FetchAdd(counter, 1).Wait()
		say("rank %d: fetch-add observed %d", rk.Me(), old)
		rk.Barrier()

		// --- Collectives ------------------------------------------------
		total := upcxx.AllReduce(rk.WorldTeam(), int64(rk.Me()+1),
			func(a, b int64) int64 { return a + b }).Wait()
		if rk.Me() == 0 {
			say("allreduce(1..%d) = %d; counter = %d",
				n, total, ad.Load(counter).Wait())
		}
		rk.Barrier()

		// --- Runtime introspection --------------------------------------
		// With UPCXX_STATS=1 (or Config.Stats) the runtime keeps per-rank
		// op/byte/completion counters and latency histograms; UPCXX_TRACE=1
		// additionally arms sampled op-lifecycle timelines. The snapshot is
		// a plain value — printable, JSON-encodable, mergeable across ranks.
		if rk.Me() == 0 && rk.StatsEnabled() {
			fmt.Println("\n-- final runtime stats, rank 0 --")
			fmt.Print(rk.Stats().String())
		}
		rk.Barrier()
	})

	// --- Personas and the dedicated progress thread -------------------
	// With Config.ProgressThread each rank runs a progress goroutine
	// that executes incoming RPCs, so several user goroutines can share
	// one rank: each goroutine's futures complete on its own persona.
	upcxx.RunConfig(upcxx.Config{Ranks: 2, ProgressThread: true}, func(rk *upcxx.Rank) {
		if rk.Me() == 0 {
			var wg sync.WaitGroup
			for u := 0; u < 2; u++ {
				u := u
				wg.Add(1)
				go func() {
					defer wg.Done()
					defer upcxx.DetachDefaultPersonas() // registry hygiene for per-task goroutines
					sq := upcxx.RPC(rk, 1, square, u+2).Wait()
					say("rank 0 user goroutine %d (persona %q): %d² = %d",
						u, rk.CurrentPersona().Name(), u+2, sq)
				}()
			}
			wg.Wait()

			// --- Persona-addressed completions -------------------------
			// Any completion can be delivered to a *named* persona: the
			// master initiates an RPC whose operation-cx future belongs
			// to a worker persona, and only the worker goroutine holding
			// it may consume the future.
			worker := upcxx.NewPersona(rk, "consumer")
			handoff := make(chan upcxx.CxFutures, 1)
			wg.Add(1)
			go func() {
				defer wg.Done()
				sc := upcxx.AcquirePersona(worker)
				defer sc.Release()
				fs := <-handoff
				fs.Op.Wait()
				say("worker persona %q consumed the RPC's operation-cx", worker.Name())
			}()
			_, fs := upcxx.RPCWith(rk, 1, incr, 1,
				upcxx.OpCxAsFuture().On(worker))
			handoff <- fs
			wg.Wait()
		}
		// Rank 1 never calls Progress here; its progress thread serves
		// the RPCs while its master goroutine idles into the barrier.
		rk.Barrier()
	})
}
