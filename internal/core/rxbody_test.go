package upcxx

import (
	"encoding/binary"
	"runtime"
	"slices"
	"sync"
	"testing"
	"unsafe"

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
	for _, backend := range wireBackends() {
		t.Run(backend, func(t *testing.T) {
			defer DetachDefaultPersonas()
			ws := wireWorlds(t, backend, false)
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

// keptArg is a task argument whose []byte and string fields travel side by
// side: decoded in place, B begins right after A's bytes and B's length.
type keptArg struct {
	A, B []byte
	S    string
}

// What keptHold kept past its return, and what keepBytes kept past its.
var (
	keptMu    sync.Mutex
	keptHeld  []keptArg
	keptBytes []byte
	keptRes   = lifeBytes(5)[:64<<10] // keptResult's result
)

// keptHold keeps its argument past its return: a task's payload is kept.
func keptHold(_ *Rank, a keptArg) int {
	keptMu.Lock()
	keptHeld = append(keptHeld, a)
	keptMu.Unlock()
	return len(a.A)
}

// keepBytes keeps its argument past its return: a value body's message is
// handed back, so the argument must be a copy.
func keepBytes(_ *Rank, b []byte) int {
	keptMu.Lock()
	keptBytes = b
	keptMu.Unlock()
	return len(b)
}

func keptLen(_ *Rank, b []byte) int    { return len(b) }
func keptResult(_ *Rank, _ int) []byte { return keptRes }
func keptArgOf(n int, seed byte) keptArg {
	b := func(seed byte) []byte { return slices.Repeat(lifeBytes(seed), n>>16+1)[:n] }
	return keptArg{b(seed), b(seed + 1), string(b(seed + 2)[:n/2])}
}

// inPlace reports whether a's B lies right behind A in one buffer: the
// message both were decoded from.
func inPlace(a keptArg) bool {
	gap := uintptr(unsafe.Pointer(&a.B[0])) - uintptr(unsafe.Pointer(&a.A[0]))
	return gap == uintptr(len(a.A)+len(binary.AppendUvarint(nil, uint64(len(a.B)))))
}

// keptWorld is a two-rank tcp or shm job with a task runtime on each rank
// (one worker, no stealing); rank 1's worker serves the RPCs sent to it.
func keptWorld(t *testing.T, backend string) (rk0 *Rank, rt0 *TaskRuntime) {
	ws := wireWorlds(t, backend, false)
	rt0, rt1 := NewTaskRuntime(ws[0].Rank(0), TaskConfig{Workers: 1, NoSteal: true}), NewTaskRuntime(ws[1].Rank(1), TaskConfig{Workers: 1, NoSteal: true})
	t.Cleanup(func() { rt0.Stop(); rt1.Stop() })
	return ws[0].Rank(0), rt0
}

func wireBackends() []string {
	if runtime.GOOS == "linux" {
		return []string{"tcp", "shm"}
	}
	return []string{"tcp"}
}

// TestKeptPayloadLifetime: a task's payload is kept, so a task's []byte and
// string arguments decoded from a bulk frame's own body alias it, with the
// capacity clipped, and still read as sent after 100 more bulk RPCs and tasks
// have been read into bodies handed back (poisoned first, under -race); so do
// those of a frame past the largest pooled body, read into a plain one. A
// value body's message is handed back, so what it keeps is a copy, and so is
// a task argument from a frame under 64 KiB (a burst slab or a ring span,
// which other messages share).
func TestKeptPayloadLifetime(t *testing.T) {
	RegisterTask(keptHold)
	RegisterTask(keptLen)
	RegisterRPC(keepBytes)
	RegisterRPC(lifeKeep)
	for _, backend := range wireBackends() {
		t.Run(backend, func(t *testing.T) {
			defer DetachDefaultPersonas()
			rk0, rt0 := keptWorld(t, backend)
			keptHeld = nil
			bulk, small, huge := keptArgOf(40<<10, 10), keptArgOf(100, 20), keptArgOf(2<<20+4<<10, 60)
			AsyncAt(rt0, 1, keptHold, bulk).Wait()
			AsyncAt(rt0, 1, keptHold, small).Wait()
			AsyncAt(rt0, 1, keptHold, huge).Wait()
			copied := lifeBytes(30)
			RPC(rk0, 1, keepBytes, copied).Wait()
			keptMu.Lock()
			held := slices.Clone(keptHeld)
			keptMu.Unlock()
			if !inPlace(held[0]) || cap(held[0].A) != len(held[0].A) {
				t.Errorf("a bulk task's []byte argument: in place %v, capacity %d, want in place and %d", inPlace(held[0]), cap(held[0].A), len(held[0].A))
			}
			if inPlace(held[1]) {
				t.Error("a task's []byte argument from a frame under 64 KiB aliases it")
			}
			if !inPlace(held[2]) {
				t.Error("a task's []byte argument from a frame past the largest pooled body is a copy")
			}
			grown := append(held[0].A, lifeBytes(40)[:64]...)
			if string(held[0].B) != string(bulk.B) || string(grown[:len(bulk.A)]) != string(bulk.A) {
				t.Error("an append to an in-place []byte argument rewrote the field behind it")
			}
			for i := range 50 {
				arg := lifeBytes(byte(50 + i))
				RPC(rk0, 1, lifeKeep, MakeView(arg)).Wait()
				AsyncAt(rt0, 1, keptLen, arg).Wait()
			}
			for i, want := range []keptArg{bulk, small, huge} {
				if got := held[i]; string(got.A) != string(want.A) || string(got.B) != string(want.B) || got.S != want.S {
					t.Errorf("task argument %d kept past its task was rewritten (poisoned: %v)", i, got.A[0] == gasnet.RecvPoison)
				}
			}
			keptMu.Lock()
			defer keptMu.Unlock()
			if string(keptBytes) != string(copied) {
				t.Errorf("a value body's []byte argument kept past its body was rewritten (poisoned: %v)", keptBytes[0] == gasnet.RecvPoison)
			}
		})
	}
}

// TestKeptPayloadAllocs pins what decoding a kept payload in place saves, in
// bytes per operation over tcp and shm's socket path: a 64 KiB []byte task
// allocates one body-sized object (the body its spawn is read into), not a
// second for a copy of its argument; an RPC whose 64 KiB []byte result lands
// allocates two (the target's reply, the initiator's body), not a third for a
// copy of the result.
func TestKeptPayloadAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops what it is given at random under -race")
	}
	RegisterTask(keptLen)
	RegisterRPC(keptResult)
	const size = 64 << 10
	for _, backend := range wireBackends() {
		t.Run(backend, func(t *testing.T) {
			defer DetachDefaultPersonas()
			rk0, rt0 := keptWorld(t, backend)
			arg := lifeBytes(1)[:size]
			perOp := func(op func()) float64 {
				var before, after runtime.MemStats
				for range 8 {
					op()
				}
				runtime.ReadMemStats(&before)
				const n = 32
				for range n {
					op()
				}
				runtime.ReadMemStats(&after)
				return float64(after.TotalAlloc-before.TotalAlloc) / n
			}
			if b := perOp(func() { AsyncAt(rt0, 1, keptLen, arg).Wait() }); b >= 2*size {
				t.Errorf("a 64 KiB []byte task allocates %.0f bytes, want < %d: its body and no copy of its argument", b, 2*size)
			}
			if b := perOp(func() { RPC(rk0, 1, keptResult, 0).Wait() }); b >= 3*size {
				t.Errorf("an RPC with a 64 KiB []byte result allocates %.0f bytes, want < %d: a reply and its body, no copy of the result", b, 3*size)
			}
		})
	}
}
