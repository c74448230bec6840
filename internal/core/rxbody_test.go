package upcxx

import (
	"runtime"
	"testing"

	"upcxx/internal/gasnet"
)

// What the bodies of TestBulkViewLifetime were handed, read after they return.
var (
	lifeKept  View[byte]        // the last view lifeKeep kept past its return
	lifeKeeps int               // lifeKeep's runs
	lifeHeld  View[byte]        // lifeHold's view, held until its future is ready
	lifeProm  *Promise[float64] // readies lifeHold's future
)

// lifeKeep keeps its view past its return, against View's contract.
func lifeKeep(_ *Rank, v View[byte]) uint64 {
	lifeKept, lifeKeeps = v, lifeKeeps+1
	return viewSum(v)
}

// lifeHold holds its view until the future it returns is ready: UPC++ keeps
// a future-returning body's arguments alive that long.
func lifeHold(trk *Rank, v View[byte]) Future[float64] {
	lifeHeld, lifeProm = v, NewPromise[float64](trk)
	return lifeProm.Future()
}

func viewSum(v View[byte]) (s uint64) {
	for _, b := range v.Elements() {
		s += uint64(b)
	}
	return s
}

func lifeBytes(seed byte) []byte {
	b := make([]byte, 80<<10) // past the 64 KiB read buffer: a bulk frame's own body
	for i := range b {
		b[i] = seed + byte(i) + byte(i>>8)*7
	}
	return b
}

// TestBulkViewLifetime: over a real conduit, an RPC argument longer than the
// read buffer arrives in a body of its own, handed back for reuse once a
// value-returning body returns. In a race-enabled build the body is poisoned
// when it is handed back, so a view kept past its body reads
// gasnet.RecvPoison, not another message's bytes. A future-returning body's
// message is never handed back: its view reads its own bytes until the
// future is ready, though another bulk RPC arrived in between.
func TestBulkViewLifetime(t *testing.T) {
	RegisterRPC(lifeKeep)
	RegisterRPCFut(lifeHold)
	backends := []string{"tcp"}
	if runtime.GOOS == "linux" {
		backends = append(backends, "shm")
	}
	for _, backend := range backends {
		t.Run(backend, func(t *testing.T) {
			defer DetachDefaultPersonas()
			ws := wireWorlds(t, backend)
			rk0, rk1 := ws[0].Rank(0), ws[1].Rank(1)
			// One goroutine drives both ranks: rank 1's bodies run inline in
			// its Progress, and the body is handed back before that returns.
			serve := func(done func() bool) {
				for !done() {
					rk0.Progress()
					rk1.Progress()
				}
			}
			keep := func(seed byte) {
				arg, runs := lifeBytes(seed), lifeKeeps
				f := RPC(rk0, 1, lifeKeep, MakeView(arg))
				serve(func() bool { return lifeKeeps > runs })
				serve(f.Ready)
				if want := viewSum(MakeView(arg)); f.Result() != want {
					t.Errorf("lifeKeep's view summed to %d, want %d", f.Result(), want)
				}
			}

			keep(1)
			if raceEnabled {
				for i, b := range lifeKept.Elements() {
					if b != gasnet.RecvPoison {
						t.Fatalf("a view kept past its body reads %#x at %d, want the poison %#x", b, i, gasnet.RecvPoison)
					}
				}
			}

			held := lifeBytes(2)
			f, _ := RPCFutWith(rk0, 1, lifeHold, MakeView(held))
			serve(func() bool { return lifeProm != nil })
			keep(3) // read into the body keep(1) handed back, if the pool kept it
			if string(lifeHeld.Elements()) != string(held) {
				t.Errorf("a future-returning body's view was rewritten before its future was ready")
			}
			lifeProm.FulfillResult(float64(viewSum(lifeHeld)))
			serve(f.Ready)
			if want := float64(viewSum(MakeView(held))); f.Result() != want {
				t.Errorf("lifeHold answered %v, want %v", f.Result(), want)
			}
			lifeProm = nil
		})
	}
}
