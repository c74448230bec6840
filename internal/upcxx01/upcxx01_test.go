package upcxx01

import (
	"sync/atomic"
	"testing"

	"upcxx"
)

func TestAsyncWithEvent(t *testing.T) {
	var hits atomic.Int32
	upcxx.Run(4, func(rk *upcxx.Rank) {
		rt := Wrap(rk)
		if rt.MyRank() != rk.Me() || rt.Ranks() != 4 {
			t.Errorf("identity mismatch")
		}
		e := NewEvent(rt)
		target := (rt.MyRank() + 1) % rt.Ranks()
		rt.Async(target, e, func(trt *Runtime) {
			if trt.MyRank() != target {
				t.Errorf("async ran on %d, want %d", trt.MyRank(), target)
			}
			hits.Add(1)
		})
		e.Wait()
		if !e.Done() {
			t.Error("event not done after Wait")
		}
		rt.Barrier()
	})
	if hits.Load() != 4 {
		t.Fatalf("hits = %d", hits.Load())
	}
}

func TestAsyncArgFireAndForget(t *testing.T) {
	upcxx.Run(2, func(rk *upcxx.Rank) {
		rt := Wrap(rk)
		cell := Allocate[uint64](rt, 1)
		_ = upcxx.NewDistObject(rk, cell)
		rt.Barrier()
		if rt.MyRank() == 0 {
			AsyncArg(rt, 1, nil, func(trt *Runtime, v uint64) {
				p, _ := upcxx.LookupDist[upcxx.GPtr[uint64]](trt.Rank(), 0)
				upcxx.Local(trt.Rank(), *p.Value(), 1)[0] = v
			}, uint64(31337))
		}
		if rt.MyRank() == 1 {
			for upcxx.Local(rk, cell, 1)[0] != 31337 {
				rt.Advance()
			}
		}
		rt.Barrier()
	})
}

func TestEventMultipleOps(t *testing.T) {
	upcxx.Run(3, func(rk *upcxx.Rank) {
		rt := Wrap(rk)
		e := NewEvent(rt)
		var done atomic.Int32
		for i := int32(0); i < 6; i++ {
			rt.Async((rk.Me()+1+i)%rk.N(), e, func(*Runtime) { done.Add(1) })
		}
		e.Wait()
		// Each rank's closure increments its own counter (captured state
		// is shared by reference with the remote execution): after the
		// event, all 6 of this rank's asyncs have run and acknowledged.
		if done.Load() != 6 {
			t.Errorf("done = %d", done.Load())
		}
		rt.Barrier()
	})
}

func TestCopyAndBlockingRMA(t *testing.T) {
	upcxx.Run(2, func(rk *upcxx.Rank) {
		rt := Wrap(rk)
		mine := Allocate[float64](rt, 8)
		loc := upcxx.Local(rk, mine, 8)
		for i := range loc {
			loc[i] = float64(int(rk.Me())*10 + i)
		}
		_ = upcxx.NewDistObject(rk, mine)
		rt.Barrier()
		if rk.Me() == 0 {
			theirs := upcxx.FetchDist[upcxx.GPtr[float64]](rk, 0, 1).Wait()
			// Blocking get (v0.1 style).
			buf := make([]float64, 8)
			GetBlocking(rt, theirs, buf)
			if buf[3] != 13 {
				t.Errorf("GetBlocking = %v", buf)
			}
			// Blocking put.
			PutBlocking(rt, []float64{-1}, theirs)
			// Async copy local->remote with event.
			e := NewEvent(rt)
			CopyAsync(rt, mine.Add(1), theirs.Add(1), 2, e)
			e.Wait()
			GetBlocking(rt, theirs, buf)
			if buf[0] != -1 || buf[1] != 1 || buf[2] != 2 {
				t.Errorf("after copies: %v", buf)
			}
		}
		rt.Barrier()
		Deallocate(rt, mine)
		rt.Barrier()
	})
}

func TestEventOverSignalPanics(t *testing.T) {
	upcxx.Run(1, func(rk *upcxx.Rank) {
		rt := Wrap(rk)
		e := NewEvent(rt)
		defer func() {
			if recover() == nil {
				t.Error("over-signal should panic")
			}
		}()
		e.decref()
	})
}
