package upcxx

import (
	"bytes"
	"errors"
	"strings"
	"sync/atomic"
	"testing"

	"upcxx/internal/gasnet"

	"upcxx/internal/serial"
)

func regBothA(*Rank, int) int { return 1 }
func regBothB(*Rank, int) int { return 2 }

// nopTask is a task body that takes every arrival and queues it nowhere.
type nopTask struct{}

func (nopTask) Arrive(*Rank, Intrank, uint64, []byte) error { return nil }

// TestRegistryFormsMerge: one function registered as both an RPC body and
// a task body keeps both forms, whichever registration came first; an
// RPC-only registration is not a task body, a result-bearing task does not
// resolve as a fire-and-forget one, and an unregistered function is no task.
func TestRegistryFormsMerge(t *testing.T) {
	RegisterRPC(regBothA)
	name := RegisterTask(regBothA, nopTask{}, false)
	RegisterTask(regBothB, nopTask{}, false)
	RegisterRPC(regBothB)
	for _, fn := range []func(*Rank, int) int{regBothA, regBothB} {
		ent := registered(fn)
		if ent == nil || ent.call == nil || ent.spawn == nil {
			t.Fatalf("%T: a form was clobbered: %+v", fn, ent)
		}
		call, spawn := ent.call.bodies[0], ent.spawn.bodies[0]
		if call.run == nil || call.kind != rpcReqKind || call.name != ent.name || call.task != nil {
			t.Errorf("%s: RPC form %+v", ent.name, call)
		}
		if spawn.run == nil || spawn.kind != rpcReqKind || spawn.name != ent.name || spawn.task == nil {
			t.Errorf("%s: task form %+v", ent.name, spawn)
		}
		if tb := TaskOf(fn); tb == nil {
			t.Errorf("TaskOf(%s) = nil", ent.name)
		}
		if tb, err := LookupTask(ent.name, false); err != nil || tb == nil {
			t.Errorf("LookupTask(%s) = %v, %v", ent.name, tb, err)
		}
	}
	if _, err := LookupTask(name, true); err == nil {
		t.Error("a result-bearing task resolved as a fire-and-forget one")
	}
	if _, err := LookupTask(RegisterRPCFF(func(*Rank, int) {}), true); err == nil {
		t.Error("an RPC-only registration resolved as a task body")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("an unregistered function is a task")
			}
		}()
		TaskOf(func(*Rank, int) int { return 0 })
	}()
}

func regSpawned(*Rank, int64) int64 { return 0 }

// heldTask records the one spawn that reaches it; the test plays the rank
// that runs it.
type heldTask struct {
	home Intrank
	seq  uint64
	args []byte
}

func (h *heldTask) Arrive(_ *Rank, home Intrank, seq uint64, args []byte) error {
	h.home, h.seq, h.args = home, seq, args
	return nil
}

// TestTaskSpawnIsOneEntry: a spawn is a single call of the function's task
// form — its entry carries the header then the argument, marshalled once —
// and arrives at the task body with the sender and the sequence number the
// reply must name. The reply may come from any rank: it fulfils the
// spawner's promise through the ordinary pending-entry sink and credits the
// task runtime once. A second reply for the sequence number, or one for a
// number nobody awaits, fails the rank that sent it — a thief that answers
// twice is the thief's fault, not the home rank's.
func TestTaskSpawnIsOneEntry(t *testing.T) {
	var held heldTask
	RegisterTask(regSpawned, &held, false)
	w := NewWorld(Config{Ranks: 3})
	defer w.Close()
	rk0, rk1, rk2 := w.Rank(0), w.Rank(1), w.Rank(2)
	pass := func() {
		for _, rk := range []*Rank{rk0, rk1, rk2, rk0} {
			rk.Progress()
		}
	}
	var landed atomic.Uint64
	f := TaskRPC(rk0, 1, regSpawned, []byte{0xA1, 0xB2}, int64(7), &landed)
	pass()
	if want := append([]byte{0xA1, 0xB2}, mustMarshal(int64(7))...); held.home != 0 || !bytes.Equal(held.args, want) {
		t.Fatalf("the task body got home %d args %x, want home 0 args %x", held.home, held.args, want)
	}
	if f.Ready() || landed.Load() != 0 {
		t.Fatal("the spawn was answered before anybody ran it")
	}
	TaskReply(rk2, held.home, held.seq, mustMarshal(int64(21))) // a thief answers, not the target
	pass()
	if !f.Ready() || f.Result() != 21 || landed.Load() != 1 {
		t.Fatalf("after the reply: ready %v, landed %d", f.Ready(), landed.Load())
	}
	if err := w.Failed(); err != nil {
		t.Fatalf("a single reply failed somebody: %v", err)
	}
	TaskReply(rk2, held.home, held.seq, mustMarshal(int64(22)))
	pass()
	err := w.Failed()
	if !errors.Is(err, gasnet.ErrPeerLost) || !strings.Contains(err.Error(), "rank 2") || landed.Load() != 1 {
		t.Errorf("a second reply for the same sequence number: Failed() = %v, landed %d; want rank 2 failed, landed 1", err, landed.Load())
	}
}

// mkAdder's closures share one code pointer only while it is not inlined.
//
//go:noinline
func mkAdder(n int) func(*Rank, int) int {
	return func(_ *Rank, x int) int { return x + n }
}

// TestRegisteredSiblingClosure: closures of one func literal share a code
// pointer, but the registry's key is the func value: only the closure that
// was registered is served by the entry's prebuilt body. A sibling is an
// unregistered function — in-process every entry point runs the function it
// was handed, and across processes it is refused like any other closure.
func TestRegisteredSiblingClosure(t *testing.T) {
	add1 := mkAdder(1)
	RegisterRPC(add1)
	if tok := callOf(add1, nil); tok != registered(add1).call {
		t.Error("the registered closure does not use its entry's token")
	}
	tok := callOf(mkAdder(100), func() rpcBody { return valueBody(mkAdder(100)) })
	if _, err := new(distAuxCodec).EncodeAux(tok); registered(mkAdder(100)) != nil || err == nil {
		t.Errorf("a sibling closure is registered (token %+v, EncodeAux error %v)", tok, err)
	}
	Run(2, func(rk *Rank) {
		if rk.Me() != 0 {
			return
		}
		if got := RPC(rk, 1, add1, 1).Wait(); got != 2 {
			t.Errorf("registered closure: RPC = %d, want 2", got)
		}
		if got := RPC(rk, 1, mkAdder(100), 1).Wait(); got != 101 {
			t.Errorf("sibling of a registered closure: RPC = %d, want 101", got)
		}
		b := NewBatch(rk, 1)
		f := BatchRPC(b, mkAdder(1000), 1)
		b.Flush()
		if got := f.Wait(); got != 1001 {
			t.Errorf("sibling of a registered closure: BatchRPC = %d, want 1001", got)
		}
	})
}

func regFF(*Rank, int)                    {}
func regFut(trk *Rank, x int) Future[int] { return ReadyFuture(trk, x) }
func regTaskOnly(*Rank, int) int          { return 0 }

// auxEnt is one {kind, name} entry of a hand-encoded rpcAux token.
type auxEnt struct {
	kind uint8
	name string
}

// rpcAuxBytes hand-encodes a distAuxCodec rpcAux token, so rows can name
// functions in forms EncodeAux itself would never produce.
func rpcAuxBytes(rem string, entries ...auxEnt) []byte {
	e := serial.NewEncoder(nil)
	e.PutU8(auxTagRPC)
	e.PutUvarint(uint64(len(entries)))
	for _, en := range entries {
		e.PutU8(en.kind)
		e.PutString(en.name)
	}
	e.PutString(rem)
	return e.Bytes()
}

// TestAuxDecodeChecksEntryKinds: DecodeAux hands the handler only bodies
// that can serve the entries naming them. A round-trip entry naming a
// function registered fire-and-forget (or the reverse, or a task-only or
// unknown name, or a landing notification naming a value-returning
// function) is an error — which the conduit turns into failing the
// sending peer — never a nil func for the progress goroutine to call. A
// future-returning function serves a round-trip entry in any position of
// a message: with one body form there is no batch-only variant to lack.
func TestAuxDecodeChecksEntryKinds(t *testing.T) {
	val, ff, fut := RegisterRPC(regBothA), RegisterRPCFF(regFF), RegisterRPCFut(regFut)
	task := RegisterTask(regTaskOnly, nopTask{}, false)
	remTok := func(name string) []byte {
		e := serial.NewEncoder(nil)
		e.PutU8(auxTagRemoteCx)
		e.PutString(name)
		return e.Bytes()
	}
	rows := []struct {
		name  string
		tok   []byte
		kinds []uint8 // nil: must be refused
	}{
		{"round-trip entry, value function", rpcAuxBytes("", auxEnt{rpcReqKind, val}), []uint8{rpcReqKind}},
		{"round-trip entry, future function", rpcAuxBytes("", auxEnt{rpcReqKind, fut}), []uint8{rpcReqKind}},
		{"ff entry, ff function", rpcAuxBytes("", auxEnt{rpcFFKind, ff}), []uint8{rpcFFKind}},
		{"mixed message with a future function and a landing body",
			rpcAuxBytes(ff, auxEnt{rpcFFKind, ff}, auxEnt{rpcReqKind, fut}, auxEnt{rpcReqKind, val}),
			[]uint8{rpcFFKind, rpcReqKind, rpcReqKind}},
		{"round-trip entry, ff-only function", rpcAuxBytes("", auxEnt{rpcReqKind, ff}), nil},
		{"ff entry, value function", rpcAuxBytes("", auxEnt{rpcFFKind, val}), nil},
		{"ff entry, future function", rpcAuxBytes("", auxEnt{rpcFFKind, fut}), nil},
		{"second entry of a message mismatched", rpcAuxBytes("", auxEnt{rpcReqKind, val}, auxEnt{rpcReqKind, ff}), nil},
		{"reply-kind entry", rpcAuxBytes("", auxEnt{rpcReplyKind, val}), nil},
		{"task-only function named as an RPC", rpcAuxBytes("", auxEnt{rpcReqKind, task}), nil},
		{"task entry, task function", rpcAuxBytes("", auxEnt{auxTaskForm | rpcReqKind, task}), []uint8{rpcReqKind}},
		{"ff task entry, result-bearing task function", rpcAuxBytes("", auxEnt{auxTaskForm | rpcFFKind, task}), nil},
		{"task entry, RPC-only function", rpcAuxBytes("", auxEnt{auxTaskForm | rpcReqKind, fut}), nil},
		{"task entry, unknown function", rpcAuxBytes("", auxEnt{auxTaskForm | rpcReqKind, "no/such.fn"}), nil},
		{"unknown function", rpcAuxBytes("", auxEnt{rpcReqKind, "no/such.fn"}), nil},
		{"landing body naming a value function", rpcAuxBytes(val, auxEnt{rpcFFKind, ff}), nil},
		{"trailing bytes", append(rpcAuxBytes("", auxEnt{rpcFFKind, ff}), 0), nil},
		{"remote-cx token, ff function", remTok(ff), []uint8{}},
		{"remote-cx token, value function", remTok(val), nil},
		{"remote-cx token, no function", remTok(""), nil},
		{"retired batch tag", []byte{3, 0}, nil},
	}
	codec := new(distAuxCodec) // one codec: a refused token must not be remembered as served
	for _, row := range append(rows, rows...) {
		aux, err := codec.DecodeAux(row.tok)
		if row.kinds == nil {
			if err == nil {
				t.Errorf("%s: decoded to %+v, want an error", row.name, aux)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: %v", row.name, err)
			continue
		}
		switch a := aux.(type) {
		case *rpcAux:
			if len(a.bodies) != len(row.kinds) {
				t.Errorf("%s: %d bodies, want %d", row.name, len(a.bodies), len(row.kinds))
				continue
			}
			for i, k := range row.kinds {
				if a.bodies[i].run == nil || a.bodies[i].kind != k {
					t.Errorf("%s: body %d = %+v, want a runnable body of kind %d", row.name, i, a.bodies[i], k)
				}
			}
		case remoteCxAux:
			if a.body.run == nil || a.body.kind != rpcFFKind {
				t.Errorf("%s: landing body %+v is not a runnable ff body", row.name, a.body)
			}
		}
	}
	// What EncodeAux writes, DecodeAux reads back.
	named := func(b rpcBody, name string) rpcBody { b.name = name; return b }
	in := &rpcAux{bodies: []rpcBody{named(ffBody(regFF), ff), named(futBody(regFut), fut)}, rem: remoteCxAux{body: named(ffBody(regFF), ff)}}
	tok, err := new(distAuxCodec).EncodeAux(in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := new(distAuxCodec).DecodeAux(tok)
	if a, ok := out.(*rpcAux); err != nil || !ok || len(a.bodies) != 2 || a.bodies[1].name != fut || a.rem.body.name != ff {
		t.Errorf("round trip of %+v = %+v, %v", in, out, err)
	}
	// A spawn's token names the task form, and comes back as the task form.
	out, err = new(distAuxCodec).DecodeAux(registered(regTaskOnly).spawn.wire)
	if a, ok := out.(*rpcAux); err != nil || !ok || len(a.bodies) != 1 || a.bodies[0].task == nil || a.bodies[0].name != task {
		t.Errorf("round trip of a spawn token = %+v, %v", out, err)
	}
}

// TestAuxDecodeAllocs: a token that decoded once is served from the codec's
// memo — the same value again, for no allocation — which is what a flood of
// one call costs the target per message.
func TestAuxDecodeAllocs(t *testing.T) {
	RegisterRPCFF(regFF)
	codec := new(distAuxCodec)
	tok, err := codec.EncodeAux(registered(regFF).call)
	if err != nil {
		t.Fatal(err)
	}
	first, err := codec.DecodeAux(tok)
	if a, ok := first.(*rpcAux); err != nil || !ok || len(a.bodies) != 1 || a.bodies[0].run == nil {
		t.Fatalf("DecodeAux = %+v, %v", first, err)
	}
	if n := testing.AllocsPerRun(100, func() {
		if again, err := codec.DecodeAux(tok); err != nil || again != first {
			t.Errorf("memo hit = %v, %v; want the first decode's value", again, err)
		}
	}); n != 0 {
		t.Errorf("decoding a remembered token: %v allocs, want 0", n)
	}
}
