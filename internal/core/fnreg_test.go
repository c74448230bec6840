package upcxx

import (
	"testing"

	"upcxx/internal/serial"
)

func regBothA(*Rank, int) int { return 1 }
func regBothB(*Rank, int) int { return 2 }

// TestRegistryFormsMerge: one function registered as both an RPC body and
// a task body keeps both forms, whichever registration came first; an
// RPC-only registration is not a task body, and an unregistered function
// has no name.
func TestRegistryFormsMerge(t *testing.T) {
	body := TaskBody{Run: func(*Rank, []byte) []byte { return nil }}
	RegisterRPC(regBothA)
	RegisterTaskBody(regBothA, body)
	RegisterTaskBody(regBothB, body)
	RegisterRPC(regBothB)
	for _, fn := range []func(*Rank, int) int{regBothA, regBothB} {
		name, err := TaskBodyName(fn)
		if err != nil || name != registered(fn).name {
			t.Fatalf("TaskBodyName = %q, %v; registered as %q", name, err, registered(fn).name)
		}
		ent, err := lookupFn(name)
		if err != nil {
			t.Fatal(err)
		}
		if ent.body.run == nil || ent.body.kind != rpcReqKind || ent.body.name != name || ent.task == nil {
			t.Errorf("%s: a form was clobbered: body %+v, task %v", name, ent.body, ent.task != nil)
		}
		if _, err := LookupTaskBody(name); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	if _, err := LookupTaskBody(RegisterRPCFF(func(*Rank, int) {})); err == nil {
		t.Error("an RPC-only registration resolved as a task body")
	}
	if _, err := TaskBodyName(func(*Rank, int) int { return 0 }); err == nil {
		t.Error("an unregistered function has a task name")
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
	task := RegisterTaskBody(regTaskOnly, TaskBody{Run: func(*Rank, []byte) []byte { return nil }})
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
		{"task-only function", rpcAuxBytes("", auxEnt{rpcReqKind, task}), nil},
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
