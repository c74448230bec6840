package upcxx

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"upcxx/internal/gasnet"
)

var poolFF, poolLanded atomic.Int64 // target-side witnesses of TestInjectionPoolStress

func poolSink(_ *Rank, x int64)    { poolFF.Add(x) }
func poolLanding(_ *Rank, x int64) { poolLanded.Add(x) }
func poolEcho(_ *Rank, x int64) int64 {
	return x ^ 0x5a5a
}

// TestInjectionPoolStress floods the one inject path from several goroutine
// personas while a progress thread harvests for all of them, so records are
// taken, run, completed and released on different goroutines in every
// interleaving the race detector can find: put / get / fetch-add / RPC /
// rpc_ff, the three completion events rotated through future, promise and
// LPC delivery, and vector puts whose counted remote AM fires at the last
// landing. Every completion must arrive exactly once — a record released
// twice, or while a delivery still read it, panics on the poison (or is a
// race) — and then again with the peer failed mid-flight, when waiters give
// up while their operations are still completing behind them. It runs on
// the in-process conduit, which completes operations inside the call, and on
// LogGP, whose engine completes them a moment later: there the progress
// thread harvests completions while their initiators are settling the plan
// (the sentinel inject holds is what keeps the two apart).
func TestInjectionPoolStress(t *testing.T) {
	RegisterRPCFF(poolSink) // one registered body, so both kinds of token are exercised
	t.Run("in-process", func(t *testing.T) { poolStress(t, nil) })
	t.Run("loggp", func(t *testing.T) { poolStress(t, &gasnet.LogGP{IntraL: 2 * time.Microsecond}) })
}

func poolStress(t *testing.T, model *gasnet.LogGP) {
	const workers, iters = 4, 150
	w := NewWorld(Config{Ranks: 2, Model: model, ProgressThread: true, WaitTimeout: 30 * time.Second})
	defer w.Close()
	rk := w.Rank(0)
	dst := MustNewArray[uint64](w.Rank(1), workers*8) // per worker: [0,4) put, [4,8) vector put
	fixed := MustNewArray[uint64](w.Rank(1), 4)       // only ever read
	count := MustNewArray[uint64](w.Rank(1), 1)
	ff0, landed0 := poolFF.Load(), poolLanded.Load() // the witnesses outlive a -count run

	// worker returns the number of iterations it completed; a lost peer
	// ends it early (Wait panics with the failure).
	worker := func(g int) (done int) {
		defer DetachDefaultPersonas()
		pers := NewPersona(rk, fmt.Sprint("stress-", g))
		sc := AcquirePersona(pers)
		defer sc.Release()
		defer func() {
			if r := recover(); r != nil {
				if err, ok := r.(error); !ok || !errors.Is(err, gasnet.ErrPeerLost) {
					panic(r)
				}
			}
		}()
		ad := NewAtomicU64(rk)
		mine := dst.Add(g * 8)
		src, back := []uint64{uint64(g), 2, 3, 4}, make([]uint64, 4)
		lpcs, wantLPCs := 0, 0
		for i := 0; i < iters; i++ {
			prom := NewPromise[Unit](rk)
			cx := func(ev CxEvent, via int) Cx {
				switch via % 3 {
				case 0:
					return Cx{ev: ev, kind: cxFuture}
				case 1:
					return Cx{ev: ev, kind: cxPromise, prom: prom}
				}
				wantLPCs++
				return Cx{ev: ev, kind: cxLPC, pers: pers, fn: func() { lpcs++ }}
			}
			put := RPutWith(rk, src, mine, cx(evOp, i), cx(evSource, i+1), cx(evRemote, i+2))
			get := RGetWith(rk, fixed, back, cx(evOp, i+1))
			add := ad.FetchAdd(count, 1)
			echo := RPC(rk, 1, poolEcho, int64(i))
			RPCFF(rk, 1, poolSink, 1)
			vec := RPutVWith(rk, []PutPair[uint64]{{src[:2], mine.Add(4)}, {src[2:], mine.Add(6)}},
				OpCxAsFuture(), RemoteCxAsRPC(poolLanding, int64(1)))
			for _, f := range []Future[Unit]{put.Op, put.Source, put.Remote, get.Op, vec.Op, prom.Finalize()} {
				if f.Valid() {
					f.Wait()
				}
			}
			add.Wait()
			if got := echo.Wait(); got != int64(i)^0x5a5a {
				t.Errorf("worker %d: echo(%d) = %d", g, i, got)
			}
			for deadline := time.Now().Add(30 * time.Second); lpcs < wantLPCs; {
				rk.ProgressWait(idlePark)
				if err := w.Failed(); err != nil {
					panic(err)
				}
				if time.Now().After(deadline) {
					t.Errorf("worker %d: %d of %d LPC deliveries ran", g, lpcs, wantLPCs)
					return done
				}
			}
			if lpcs != wantLPCs {
				t.Errorf("worker %d: %d LPC deliveries ran, want %d", g, lpcs, wantLPCs)
			}
			done++
		}
		return done
	}
	flood := func(midway func()) int64 {
		var total atomic.Int64
		var wg sync.WaitGroup
		for g := 0; g < workers; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				total.Add(int64(worker(g)))
			}()
		}
		if midway != nil {
			midway()
		}
		wg.Wait()
		return total.Load()
	}
	settle := func(what string, ok func() bool) {
		for deadline := time.Now().Add(30 * time.Second); !ok(); {
			rk.InternalProgress()
			runtime.Gosched()
			if time.Now().After(deadline) {
				t.Fatalf("%s: never settled (%d ops pending)", what, rk.PendingOps())
			}
		}
	}

	if n := flood(nil); n != workers*iters {
		t.Fatalf("clean flood: %d iterations completed, want %d", n, workers*iters)
	}
	// The target-side bodies trail the initiators' completions.
	settle("clean flood", func() bool {
		return poolFF.Load()-ff0 == workers*iters && poolLanded.Load()-landed0 == workers*iters
	})
	if got := Local(w.Rank(1), count, 1)[0]; got != workers*iters {
		t.Errorf("fetch-adds: counter = %d, want %d", got, workers*iters)
	}

	// Again, failing the peer while operations are in flight.
	started := poolFF.Load()
	flood(func() {
		for poolFF.Load() < started+workers*iters/4 {
			runtime.Gosched()
		}
		rk.failPeer(1, errors.New("pulled mid-flight"))
	})
	if !errors.Is(w.Failed(), gasnet.ErrPeerLost) {
		t.Fatalf("Failed() = %v after failPeer", w.Failed())
	}
	settle("failed flood", func() bool { return rk.PendingOps() == 0 })
}

// TestReleasedInjectionPanics: a released record is poisoned — plan gone,
// operation count negative — and a completion that still reaches it panics
// instead of completing whoever takes the record from the pool next.
func TestReleasedInjectionPanics(t *testing.T) {
	Run(1, func(rk *Rank) {
		inj := rk.newInjection(0)
		rk.inject(inj) // no operations: the sentinel completes and releases it
		if inj.rk != nil || inj.nops.Load() >= 0 {
			t.Fatalf("after its last completion the record holds rank %v, nops %d", inj.rk, inj.nops.Load())
		}
		defer func() {
			if r := recover(); r == nil {
				t.Error("a second opDone on a released record did not panic")
			}
		}()
		inj.opDone()
	})
}
