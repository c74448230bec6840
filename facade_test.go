package upcxx_test

import (
	"testing"

	"upcxx"
)

// The facade test exercises the public API surface end to end the way a
// downstream user would — everything through the root package.

func TestFacadeEndToEnd(t *testing.T) {
	upcxx.Run(4, func(rk *upcxx.Rank) {
		// Memory + distributed object handshake.
		mine := upcxx.MustNewArray[float64](rk, 8)
		obj := upcxx.NewDistObject(rk, mine)
		rk.Barrier()

		right := (rk.Me() + 1) % rk.N()
		remote := upcxx.FetchDist[upcxx.GPtr[float64]](rk, obj.ID(), right).Wait()
		if remote.Where() != right {
			t.Errorf("owner = %d", remote.Where())
		}

		// RMA round trip.
		upcxx.RPut(rk, []float64{float64(rk.Me()) + 0.5}, remote).Wait()
		rk.Barrier()
		left := (rk.Me() - 1 + rk.N()) % rk.N()
		if got := upcxx.Local(rk, mine, 1)[0]; got != float64(left)+0.5 {
			t.Errorf("rank %d: segment holds %v", rk.Me(), got)
		}

		// RPC with a view and a chained continuation.
		sum := upcxx.ThenFut(
			upcxx.RPC(rk, right, func(trk *upcxx.Rank, v upcxx.View[int32]) int64 {
				var s int64
				for _, x := range v.Elements() {
					s += int64(x)
				}
				return s
			}, upcxx.MakeView([]int32{1, 2, 3})),
			func(s int64) upcxx.Future[int64] {
				return upcxx.ReadyFuture(rk, s*10)
			}).Wait()
		if sum != 60 {
			t.Errorf("chained rpc = %d", sum)
		}

		// Promise counters + vector RMA.
		p := upcxx.NewPromise[upcxx.Unit](rk)
		upcxx.RPutPromise(rk, []float64{1}, remote.Add(1), p)
		upcxx.RPutPromise(rk, []float64{2}, remote.Add(2), p)
		p.Finalize().Wait()

		// Strided RMA.
		upcxx.RPutStrided2D(rk, []float64{9, 9, 9, 9}, 2, remote.Add(4), 2, 1, 2).Wait()

		// Collectives + teams.
		total := upcxx.AllReduce(rk.WorldTeam(), int64(1),
			func(a, b int64) int64 { return a + b }).Wait()
		if total != 4 {
			t.Errorf("allreduce = %d", total)
		}
		sub := rk.WorldTeam().Split(int(rk.Me())%2, int(rk.Me()))
		if sub.RankN() != 2 {
			t.Errorf("split team size = %d", sub.RankN())
		}
		bval := upcxx.Broadcast(sub, 0, int(rk.Me())).Wait()
		_ = bval

		// Atomics.
		var cell upcxx.GPtr[uint64]
		if rk.Me() == 0 {
			cell = upcxx.MustNewArray[uint64](rk, 1)
		}
		cobj := upcxx.NewDistObject(rk, cell)
		rk.Barrier()
		cell = upcxx.FetchDist[upcxx.GPtr[uint64]](rk, cobj.ID(), 0).Wait()
		upcxx.NewAtomicU64(rk).FetchAdd(cell, 1).Wait()
		rk.Barrier()
		if rk.Me() == 0 {
			if got := upcxx.Local(rk, cell, 1)[0]; got != 4 {
				t.Errorf("counter = %d", got)
			}
		}
		rk.Barrier()

		// Cleanup.
		if err := upcxx.Delete(rk, mine); err != nil {
			t.Error(err)
		}
		rk.Barrier()
	})
}

func TestFacadeCombinators(t *testing.T) {
	upcxx.Run(1, func(rk *upcxx.Rank) {
		pair := upcxx.WhenAll2(upcxx.ReadyFuture(rk, 1), upcxx.ReadyFuture(rk, "x")).Wait()
		if pair.First != 1 || pair.Second != "x" {
			t.Errorf("pair = %+v", pair)
		}
		vals := upcxx.WhenAllSlice(rk, []upcxx.Future[int]{
			upcxx.ReadyFuture(rk, 1), upcxx.ReadyFuture(rk, 2),
		}).Wait()
		if len(vals) != 2 {
			t.Errorf("vals = %v", vals)
		}
		done := upcxx.ThenDo(upcxx.EmptyFuture(rk), func(upcxx.Unit) {})
		if !done.Ready() {
			t.Error("ThenDo on ready future should be ready")
		}
		if upcxx.NilGPtr[int32]().IsNil() != true {
			t.Error("NilGPtr")
		}
	})
}

var facadeFFSum int64

func facadeFFSink(_ *upcxx.Rank, x int64) { facadeFFSum += x }

// TestFacadeRPCFFAllocs pins the rpc_ff flood's heap objects per message as
// a downstream package pays them: the generic entry points are instantiated
// here, outside internal/core, where the compiler inlines less of what they
// call — a stack encoder that only exists by inlining is a heap object per
// message in user code and nowhere else. One allocation is left: the message
// buffer, which the conduit delivers as it is.
func TestFacadeRPCFFAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop records at random")
	}
	upcxx.RegisterRPCFF(facadeFFSink)
	w := upcxx.NewWorld(upcxx.Config{Ranks: 2})
	defer w.Close()
	w.Run(func(rk *upcxx.Rank) {
		if rk.Me() == 0 {
			if n := testing.AllocsPerRun(50, func() {
				for i := 0; i < 256; i++ {
					upcxx.RPCFF(rk, 1, facadeFFSink, int64(i)<<40)
				}
				rk.Progress()
			}) / 256; n > 1.25 { // the window's one Progress pass adds a fraction
				t.Errorf("rpc_ff through the facade: %.2f allocs per message, want 1", n)
			}
		}
		rk.Barrier()
	})
}
