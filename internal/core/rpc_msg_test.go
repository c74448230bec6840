package upcxx

import (
	"bytes"
	"errors"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"upcxx/internal/gasnet"
	"upcxx/internal/obs"
	"upcxx/internal/serial"
)

// Tests for the one RPC message: single, fire-and-forget and batched calls
// share a wire form, a handler and a body form, so what one path pins the
// others must show too.

func msgEcho(trk *Rank, x int64) int64            { return x + 1 }
func msgSink(trk *Rank, x int64)                  {}
func msgEchoFut(trk *Rank, x int64) Future[int64] { return ReadyFuture(trk, x+1) }

// msgInsert has the shape of a hash-table insert: an id, a key and a view
// of the value, no result.
type msgInsertArgs struct {
	ID  DistID
	Key uint64
	Val View[uint8]
}

func msgInsert(trk *Rank, a msgInsertArgs) Unit { return Unit{} }
func msgSinkPtr(trk *Rank, p GPtr[uint64])      {}

// encodeMsg is encodeRPCMsg's byte stream for entries, each argument one
// fragment of the stream, as one slice, whether it came out as one buffer
// or as fragments.
func encodeMsg(src Intrank, entries []rpcEntry, land *[]byte) []byte {
	calls, stream, at := make([]rpcCall, len(entries)), make([][]byte, len(entries)), 0
	for i, en := range entries {
		calls[i] = rpcCall{kind: en.kind, seq: en.seq, start: at, end: at + len(en.args)}
		stream[i], at = en.args, calls[i].end
	}
	buf, bufs := encodeRPCMsg[Unit](src, calls, stream, nil, nil, nil, land)
	return append(buf, slices.Concat(bufs...)...)
}

// captureRPC reroutes w's RPC traffic into a recorder instead of handleRPC:
// what the returned slice collects is exactly what the initiator injected.
func captureRPC(w *World) *[][]byte {
	got := new([][]byte)
	w.amRPC = w.net.RegisterAM(func(_ *gasnet.Endpoint, _ gasnet.Rank, payload []byte, _ any) {
		*got = append(*got, append([]byte(nil), payload...))
	})
	return got
}

// TestRPCSingleIsOneEntryBatch: the bytes RPC, RPCFF and RPCFutWith inject
// equal the bytes a one-entry Flush emits for the same call — small and
// view-sized arguments (the latter travels the gather path as a borrowed
// fragment), with and without an embedded landing notification.
func TestRPCSingleIsOneEntryBatch(t *testing.T) {
	w := NewWorld(Config{Ranks: 2})
	defer w.Close()
	got := captureRPC(w)
	rk0, rk1 := w.Rank(0), w.Rank(1)
	big := bytes.Repeat([]byte{0xAB}, 4*serial.GatherMinBorrow)
	sum := func(trk *Rank, v View[uint8]) int { return len(v.Elements()) }
	landing := func() Cx { return RemoteCxAsRPC(func(*Rank, string) {}, "landed") }
	cases := []struct {
		name   string
		single func()
		batch  func(b *Batch) CxFutures
	}{
		{"rpc",
			func() { RPC(rk0, 1, msgEcho, int64(7)) },
			func(b *Batch) CxFutures { BatchRPC(b, msgEcho, int64(7)); return b.Flush() }},
		{"rpc_ff",
			func() { RPCFF(rk0, 1, msgSink, int64(7)) },
			func(b *Batch) CxFutures { BatchRPCFF(b, msgSink, int64(7)); return b.Flush() }},
		{"rpc view",
			func() { RPC(rk0, 1, sum, MakeView(big)) },
			func(b *Batch) CxFutures { BatchRPC(b, sum, MakeView(big)); return b.Flush() }},
		{"rpc + landing",
			func() { RPCWith(rk0, 1, msgEcho, int64(7), landing()) },
			func(b *Batch) CxFutures { BatchRPC(b, msgEcho, int64(7)); return b.Flush(landing()) }},
		{"rpc_ff + landing",
			func() { RPCFFWith(rk0, 1, msgSink, int64(7), landing()) },
			func(b *Batch) CxFutures { BatchRPCFF(b, msgSink, int64(7)); return b.Flush(landing()) }},
	}
	for _, tc := range cases {
		*got = nil
		for _, send := range []func(){tc.single, func() { tc.batch(NewBatch(rk0, 1)) }} {
			rk0.rpcSeq.Store(40) // both sends draw the same sequence number
			send()
			rk0.Progress() // harvest the send's completions
			rk1.Progress() // deliver into the recorder
		}
		if len(*got) != 2 {
			t.Fatalf("%s: captured %d messages, want 2", tc.name, len(*got))
		}
		if !bytes.Equal((*got)[0], (*got)[1]) {
			t.Errorf("%s: single call injected\n% x\nbut a one-entry Flush\n% x", tc.name, (*got)[0], (*got)[1])
		}
		if m, err := decodeRPCMsg((*got)[0]); err != nil || m.count != 1 {
			t.Errorf("%s: injected bytes decode to %+v, %v; want one entry", tc.name, m, err)
		}
	}
}

// TestRPCArgCaptureContract: a single call borrows a large View or []byte
// argument until the conduit captures the message, and capture comes before
// the call returns. So a 4 KiB argument of RPCWith or RPCFFWith, mutated the
// moment the call returns, reaches the target as it was at the call — with
// the message still in flight for 5 ms. (AsyncAt's row is
// TestAsyncAtArgCapture.)
func TestRPCArgCaptureContract(t *testing.T) {
	model := &gasnet.LogGP{O: time.Microsecond, L: 5 * time.Millisecond, Gp: time.Microsecond}
	const n = 4096
	count := func(b []byte) int64 { return int64(bytes.Count(b, []byte{0xAA})) }
	var seen atomic.Int64 // what the last fire-and-forget body counted
	RunConfig(Config{Ranks: 2, RanksPerNode: 1, Model: model}, func(rk *Rank) {
		if rk.Me() == 0 {
			buf := make([]byte, n)
			read := func() int64 { return RPC(rk, 1, func(*Rank, Unit) int64 { return seen.Load() }, Unit{}).Wait() }
			for _, row := range []struct {
				name string
				send func() (result func() int64) // issues the call
			}{
				{"RPCWith View", func() func() int64 {
					f, _ := RPCWith(rk, 1, func(_ *Rank, v View[uint8]) int64 { return count(v.Elements()) }, MakeView(buf))
					return f.Wait
				}},
				{"RPCWith []byte", func() func() int64 {
					f, _ := RPCWith(rk, 1, func(_ *Rank, b []byte) int64 { return count(b) }, buf)
					return f.Wait
				}},
				{"RPCFFWith View", func() func() int64 {
					RPCFFWith(rk, 1, func(_ *Rank, v View[uint8]) { seen.Store(count(v.Elements())) }, MakeView(buf))
					return read
				}},
				{"RPCFFWith []byte", func() func() int64 {
					RPCFFWith(rk, 1, func(_ *Rank, b []byte) { seen.Store(count(b)) }, buf)
					return read
				}},
			} {
				for i := range buf {
					buf[i] = 0xAA
				}
				result := row.send()
				for i := range buf {
					buf[i] = 0xCC
				}
				if got := result(); got != n {
					t.Errorf("%s: the target saw %d of the %d bytes the call was made with", row.name, got, n)
				}
			}
		}
		rk.Barrier()
	})
}

// TestRPCUnserializableArg: an argument that cannot be marshalled panics the
// caller before anything waits on the message — no pending entry holds the
// promise and the injection record for a reply that never comes — and the
// rank goes on: a following RPC and Close succeed.
func TestRPCUnserializableArg(t *testing.T) {
	type unserializable struct{ F func() }
	w := NewWorld(Config{Ranks: 2})
	defer w.Close()
	rk0, rk1 := w.Rank(0), w.Rank(1)
	func() {
		defer func() {
			if r := recover(); r == nil {
				t.Fatal("an RPC with a func-valued argument field did not panic")
			}
		}()
		RPC(rk0, 1, func(*Rank, unserializable) int64 { return 0 }, unserializable{F: func() {}})
	}()
	rk0.rpcMu.Lock()
	pending := len(rk0.rpcPending)
	rk0.rpcMu.Unlock()
	if pending != 0 {
		t.Errorf("the failed RPC left %d pending entries", pending)
	}
	f := RPC(rk0, 1, msgEcho, int64(41))
	for !f.Ready() {
		rk1.Progress()
		rk0.Progress()
	}
	if got := f.Wait(); got != 42 {
		t.Errorf("the RPC after the failed one returned %d, want 42", got)
	}
	if err := w.Failed(); err != nil {
		t.Errorf("the failed RPC failed the world: %v", err)
	}
}

// msgLog records the order bodies ran in at the target, and holds the
// target-side promises of bodies that reply late.
var msgLog struct {
	sync.Mutex
	order []string
	late  map[string]*Promise[string]
}

func msgMark(tag string) {
	msgLog.Lock()
	msgLog.order = append(msgLog.order, tag)
	msgLog.Unlock()
}

func msgValue(trk *Rank, tag string) string { msgMark(tag); return tag }
func msgFF(trk *Rank, tag string)           { msgMark(tag) }

// msgLate returns a future that readies only when msgRelease names it.
func msgLate(trk *Rank, tag string) Future[string] {
	msgMark(tag)
	p := NewPromise[string](trk)
	msgLog.Lock()
	msgLog.late[tag] = p
	msgLog.Unlock()
	return p.Future()
}

func msgRelease(trk *Rank, tag string) {
	msgLog.Lock()
	p := msgLog.late[tag]
	msgLog.Unlock()
	p.FulfillResult(tag)
}

// TestRPCMixedStreamFIFO sends one target a mixed stream — RPCFF, a
// three-entry Flush whose middle body replies late, RPC, and an RPCFutWith
// that replies late — without waiting in between. Every body must run in
// per-pair FIFO order; the results that are ready must come back while the
// two deferred replies are still outstanding (a late reply leaves its
// message's coalesced reply, so it holds nothing back); and the Flush's
// operation completion must wait for its late entry. A second stream
// interleaves the paths with and without an injection record
// (mixedStreamFIFO).
func TestRPCMixedStreamFIFO(t *testing.T) {
	msgLog.order, msgLog.late = nil, map[string]*Promise[string]{}
	Run(2, func(rk *Rank) {
		if rk.Me() == 0 {
			RPCFF(rk, 1, msgFF, "a")
			b := NewBatch(rk, 1)
			fb := BatchRPC(b, msgValue, "b")
			pc := NewPromise[string](rk)
			c, late := "c", futBody(msgLate)
			batchAdd(b, &late, &c, pc) // what a registered RegisterRPCFut entry of a batch decodes to
			BatchRPCFF(b, msgFF, "d")
			flush := b.Flush(OpCxAsFuture())
			fe := RPC(rk, 1, msgValue, "e")
			ff, _ := RPCFutWith(rk, 1, msgLate, "f")

			if got := fb.Wait() + fe.Wait(); got != "be" {
				t.Errorf("ready results = %q, want %q", got, "be")
			}
			if pc.Future().Ready() || ff.Ready() || flush.Op.Ready() {
				t.Errorf("late entries resolved before release: batch entry %v, RPCFutWith %v, flush op-cx %v",
					pc.Future().Ready(), ff.Ready(), flush.Op.Ready())
			}
			// f is a later message than e: e's reply says nothing about
			// whether f's body has run yet.
			want := []string{"a", "b", "c", "d", "e", "f"}
			var order []string
			for deadline := time.Now().Add(rk.w.cfg.WaitTimeout); ; {
				msgLog.Lock()
				order = append(order[:0], msgLog.order...)
				msgLog.Unlock()
				if len(order) >= len(want) || time.Now().After(deadline) {
					break
				}
				rk.ProgressWait(idlePark)
			}
			if len(order) != len(want) {
				t.Errorf("bodies ran %v, want %v", order, want)
			} else {
				for i := range want {
					if order[i] != want[i] {
						t.Errorf("bodies ran %v, want %v", order, want)
						break
					}
				}
			}
			// Release in the opposite order: each late reply travels alone.
			RPCFF(rk, 1, msgRelease, "f")
			if got := ff.Wait(); got != "f" {
				t.Errorf("late RPCFutWith = %q", got)
			}
			if flush.Op.Ready() {
				t.Error("flush op-cx fired with its late entry outstanding")
			}
			RPCFF(rk, 1, msgRelease, "c")
			flush.Op.Wait()
			if got := pc.Future().Wait(); got != "c" {
				t.Errorf("late batch entry = %q", got)
			}
		}
		rk.Barrier()
	})
	mixedStreamFIFO(t)
}

// mixedStream is the target's view of TestRPCMixedStreamFIFO's second
// stream, at rank 1: stream number n is the nth operation rank 0 issued,
// each n%4 == 3 a put of n+1 into slots[n], every other one a body that
// reports n. Bodies run on the master persona only.
var mixedStream struct {
	slots    []uint64
	next     uint64 // the number due next
	bad      bool   // a body ran out of turn, or before an earlier put's word was in place
	got, due uint64 // the first one that did, and the number due then
}

func mixedSee(_ *Rank, n uint64) {
	m := &mixedStream
	for m.next < n && m.next%4 == 3 && m.slots[m.next] == m.next+1 {
		m.next++ // a put issued before n: its word is in place
	}
	if n != m.next && !m.bad {
		m.bad, m.got, m.due = true, n, m.next
	}
	m.next = n + 1
}

func mixedEcho(trk *Rank, n uint64) uint64 { mixedSee(trk, n); return n + 1 }

// mixedRead closes the stream as number n and reports what the target saw.
func mixedRead(trk *Rank, n uint64) [3]uint64 {
	mixedSee(trk, n)
	if m := &mixedStream; m.bad {
		return [3]uint64{1, m.got, m.due}
	}
	return [3]uint64{}
}

// mixedStreamFIFO is TestRPCMixedStreamFIFO's second stream: one goroutine
// interleaves the messages that take no injection record — a plain RPCFF, an
// RPC with no descriptor — with ones that take one — an RPCFFWith naming
// source completion, an RPutWith — and every one is delivered in issue
// order: each body runs in turn, after every earlier put's word is in place.
func mixedStreamFIFO(t *testing.T) {
	const N = 400 // a put last: the closing read, number N, finds its word
	mixedStream.next, mixedStream.bad = 0, false
	Run(2, func(rk *Rank) {
		slots := MustNewArray[uint64](rk, N)
		if rk.Me() == 1 {
			mixedStream.slots = Local(rk, slots, N)
		}
		obj := NewDistObject(rk, slots)
		rk.Barrier()
		if rk.Me() == 0 {
			dst := FetchDist[GPtr[uint64]](rk, obj.ID(), 1).Wait()
			var echoes []Future[uint64]
			var done []Future[Unit]
			for n := uint64(0); n < N; n++ {
				switch n % 4 {
				case 0:
					RPCFF(rk, 1, mixedSee, n)
				case 1:
					echoes = append(echoes, RPC(rk, 1, mixedEcho, n))
				case 2:
					done = append(done, RPCFFWith(rk, 1, mixedSee, n, SourceCxAsFuture()).Source)
				case 3:
					done = append(done, RPutWith(rk, []uint64{n + 1}, dst.Add(int(n))).Op)
				}
			}
			if got := RPC(rk, 1, mixedRead, uint64(N)).Wait(); got[0] != 0 {
				t.Errorf("record-less and record paths interleaved: body %d ran when %d was due", got[1], got[2])
			}
			for i, f := range echoes {
				if got, want := f.Wait(), uint64(4*i+2); got != want {
					t.Errorf("RPC %d of the stream returned %d, want %d", 4*i+1, got, want)
				}
			}
			for _, f := range done {
				f.Wait()
			}
			rk.Quiesce()
		}
		rk.Barrier()
	})
}

// TestRPCBodyOnSingleCall: a single call's body still lands on the persona
// named with RPCBodyOn (self-progress mode; the progress-thread case is
// TestPersonaAddressedRPCBodyProgressThread), and a persona-addressed body
// is still refused at a process boundary.
func TestRPCBodyOnSingleCall(t *testing.T) {
	var workerP atomic.Pointer[Persona]
	var stop atomic.Bool
	var wg sync.WaitGroup
	Run(2, func(rk *Rank) {
		if rk.Me() == 1 {
			wp := NewPersona(rk, "body-worker")
			ready := make(chan struct{})
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer DetachDefaultPersonas()
				sc := AcquirePersona(wp)
				defer sc.Release()
				close(ready)
				for !stop.Load() {
					if rk.Progress() == 0 {
						runtime.Gosched()
					}
				}
			}()
			<-ready
			workerP.Store(wp)
		}
		rk.Barrier()
		if rk.Me() == 0 {
			onWorker := func(trk *Rank, _ Unit) bool {
				return trk.CurrentPersona() == workerP.Load() && trk.CurrentPersona() != trk.MasterPersona()
			}
			f, _ := RPCWith(rk, 1, onWorker, Unit{}, RPCBodyOn(workerP.Load()))
			if !f.Wait() {
				t.Error("body did not run on the persona named with RPCBodyOn")
			}
			// A flushed Batch is the same message: the address covers its bodies.
			b := NewBatch(rk, 1)
			fb := BatchRPC(b, onWorker, Unit{})
			b.Flush(RPCBodyOn(workerP.Load()))
			if !fb.Wait() {
				t.Error("batched body did not run on the persona named with RPCBodyOn")
			}
			if RPC(rk, 1, onWorker, Unit{}).Wait() {
				t.Error("an unaddressed body ran on the worker persona")
			}
		}
		rk.Barrier()
		if rk.Me() == 1 {
			stop.Store(true)
			wg.Wait()
		}
	})
	RegisterRPC(regBothA)
	aux := &rpcAux{bodies: registered(regBothA).call.bodies}
	if _, err := new(distAuxCodec).EncodeAux(aux); err != nil {
		t.Errorf("registered body refused at a process boundary: %v", err)
	}
	aux.bodyPers = workerP.Load()
	if _, err := new(distAuxCodec).EncodeAux(aux); err == nil {
		t.Error("persona-addressed body crossed a process boundary")
	}
}

// TestRPCHandlerRejects: a message the handler cannot act on — the wire
// entries and the aux token disagree in count or kind, a request arrives
// with no aux, a reply names no pending call or carries a result that does
// not decode into the awaited type, the payload is corrupt, a landing rides
// the wire but the token names no landing body or the token names one but
// the wire carries none, a reply names an entry with no injection record a
// second time — fails the sending peer (World.Failed wraps ErrPeerLost)
// instead of panicking the progress goroutine, and runs no body. One token
// comes through distAuxCodec, the way a peer process's reaches the handler.
func TestRPCHandlerRejects(t *testing.T) {
	var ran atomic.Int32
	val := valueBody(func(*Rank, int64) int64 { ran.Add(1); return 0 })
	ff := ffBody(func(*Rank, int64) { ran.Add(1) })
	arg := mustMarshal(int64(1))
	enc := func(land *[]byte, entries ...rpcEntry) []byte {
		return encodeMsg(0, entries, land)
	}
	req := rpcEntry{kind: rpcReqKind, seq: 9, args: arg}
	one := rpcEntry{kind: rpcFFKind, args: arg}
	landing := remoteCxAux{body: ff}
	noLanding, err := new(distAuxCodec).DecodeAux(rpcAuxBytes("")) // a peer's landing-only token naming no body
	if err != nil {
		t.Fatal(err)
	}
	answer := rpcEntry{kind: rpcReplyKind, seq: 11, args: arg} // sequence 11 waits with no injection record
	rows := []struct {
		name    string
		payload []byte
		aux     any
	}{
		{"fewer bodies than entries", enc(nil, req, one), &rpcAux{bodies: []rpcBody{val}}},
		{"more bodies than entries", enc(nil, one), &rpcAux{bodies: []rpcBody{ff, ff}}},
		{"ff entry, round-trip body", enc(nil, one), &rpcAux{bodies: []rpcBody{val}}},
		{"round-trip entry, ff body", enc(nil, req), &rpcAux{bodies: []rpcBody{ff}}},
		{"second entry mismatched", enc(nil, one, req), &rpcAux{bodies: []rpcBody{ff, ff}}},
		{"request with no aux", enc(nil, one), nil},
		{"request with a foreign aux", enc(nil, one), landing},
		{"reply for an unknown sequence", enc(nil, rpcEntry{kind: rpcReplyKind, seq: 77}), nil},
		{"reply that does not decode", enc(nil, rpcEntry{kind: rpcReplyKind, seq: 9, args: arg[:3]}), nil},
		{"landing on the wire, no landing body", enc(&arg, one), &rpcAux{bodies: []rpcBody{ff}}},
		{"landing body, no landing on the wire", enc(nil, one), &rpcAux{bodies: []rpcBody{ff}, rem: landing}},
		{"landing-only message, a decoded token with no landing body", enc(&arg), noLanding},
		{"no entries and no landing", enc(nil), &rpcAux{rem: landing}},
		{"truncated payload", enc(nil, one)[:9], &rpcAux{bodies: []rpcBody{ff}}},
		{"retired single-RPC magic", append([]byte{rpcMagic - 1}, enc(nil, one)[1:]...), &rpcAux{bodies: []rpcBody{ff}}},
		{"reply naming a record-less entry twice", enc(nil, answer, answer), nil},
	}
	served := 0
	for _, row := range rows {
		w := NewWorld(Config{Ranks: 2})
		rk1 := w.Rank(1)
		p, inj := NewPromise[int64](rk1), rk1.newInjection(0) // rank 1 awaits an int64 for sequence 9
		inj.replies = 1
		rk1.rpcPending[9] = rpcPending{sink: p, res: serial.For[int64](), inj: inj}
		bare := NewPromise[int64](rk1) // and one for sequence 11, in flight with no record
		rk1.rpcPending[11] = rpcPending{sink: bare, res: serial.For[int64]()}
		rk1.actCount.Add(1)
		w.handleRPC(rk1.ep, 0, row.payload, row.aux)
		rk1.Progress()
		if err := w.Failed(); !errors.Is(err, gasnet.ErrPeerLost) {
			t.Errorf("%s: Failed() = %v, want an ErrPeerLost-wrapped error", row.name, err)
		}
		if p.Future().Ready() {
			t.Errorf("%s: the awaited future readied", row.name)
		}
		if bare.Future().Ready() {
			served++
			if rk1.PendingOps() != 0 {
				t.Errorf("%s: the record-less entry was answered but PendingOps = %d", row.name, rk1.PendingOps())
			}
		}
		w.Close()
	}
	if served != 1 {
		t.Errorf("the record-less entry was answered in %d rows, want 1: the first reply naming it serves it", served)
	}
	if n := ran.Load(); n != 0 {
		t.Errorf("%d bodies of rejected messages ran", n)
	}
	// The matching forms are served: entries alone, entries with a landing,
	// and a landing alone.
	w := NewWorld(Config{Ranks: 2})
	defer w.Close()
	w.handleRPC(w.Rank(1).ep, 0, enc(nil, one, req), &rpcAux{bodies: []rpcBody{ff, val}})
	w.handleRPC(w.Rank(1).ep, 0, enc(&arg, one, req), &rpcAux{bodies: []rpcBody{ff, val}, rem: landing})
	w.handleRPC(w.Rank(1).ep, 0, enc(&arg), &rpcAux{rem: landing})
	if err := w.Failed(); err != nil || ran.Load() != 6 {
		t.Errorf("well-formed messages: Failed() = %v, %d of 6 bodies ran", err, ran.Load())
	}
}

// TestRPCArgumentAcrossStackGrowth sends a self RPC from every stack depth up
// to a few KiB, each from a fresh goroutine, so that the stack grows in the
// middle of some request's encoding, where the codec holds the encoder by a
// pointer hidden from escape analysis. Under -race (checkptr) one depth read
// the encoder at the stack's old place: the request went out with an empty
// argument and its body failed to decode.
func TestRPCArgumentAcrossStackGrowth(t *testing.T) {
	w := NewWorld(Config{Ranks: 1})
	defer w.Close()
	rk := w.Rank(0)
	for d := 0; d < 300; d++ {
		got := make(chan string)
		go func() {
			res := "a panic"
			sc := AcquirePersona(rk.master)
			atDepth(d+1, func() {
				defer func() { recover() }()
				f := RPC(rk, 0, func(_ *Rank, s string) string { return s + s }, "ab")
				for !f.Ready() {
					rk.Progress()
				}
				res = f.Wait()
			})
			sc.Release()
			got <- res
		}()
		if s := <-got; s != "abab" {
			t.Fatalf("a self RPC from stack depth %d returned %s", d, s)
		}
	}
}

func TestRPCAllocPins(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop records at random")
	}
	RegisterRPC(msgEcho)
	RegisterRPCFF(msgSink)
	RegisterRPCFut(msgEchoFut)
	RegisterRPC(msgInsert)
	RegisterRPCFF(msgSinkPtr)
	w := NewWorld(Config{Ranks: 2})
	defer w.Close()
	rk0, rk1 := w.Rank(0), w.Rank(1)
	word, _ := NewArray[uint64](rk1, 1)
	local, _ := NewArray[uint64](rk0, 1)
	val := make([]uint8, 64)
	buf := []uint64{7}
	ad := NewAtomicU64(rk0)
	iword, _ := NewArray[int64](rk1, 1)
	ai := NewAtomicI64(rk0)
	spin := func(ready func() bool) {
		for !ready() {
			rk1.Progress()
			rk0.Progress()
		}
	}
	check := func(name string, got, max float64) {
		t.Logf("%s: %v per op (pinned at %v)", name, got, max)
		if got > max {
			t.Errorf("%s: %v per op, pinned at %v", name, got, max)
		}
	}
	ams := func() float64 { return float64(rk0.Stats().Counters[obs.AMs] + rk1.Stats().Counters[obs.AMs]) }
	signal := func() { spin(RPutSignal(rk0, buf, word, msgSink, int64(1)).Ready) }
	for _, pin := range []struct {
		name string
		op   func()
		max  float64
	}{
		{"RPCFF", func() {
			RPCFF(rk0, 1, msgSink, int64(1)<<40)
			rk0.Progress()
			rk1.Progress()
		}, 1},
		{"RPCFF of an unregistered closure", func() {
			RPCFF(rk0, 1, func(*Rank, int64) {}, int64(1)<<40)
			rk0.Progress()
			rk1.Progress()
		}, 4},
		{"blocking RPC", func() {
			f := RPC(rk0, 1, msgEcho, int64(1)<<40)
			spin(f.Ready)
			if f.Wait() != 1<<40+1 {
				t.Fatal("echo returned the wrong value")
			}
		}, 3},
		{"blocking insert-shaped RPC, an 8 B view", func() {
			spin(RPC(rk0, 1, msgInsert, msgInsertArgs{ID: 1, Key: 2, Val: MakeView(val[:8])}).Ready)
		}, 3},
		{"blocking insert-shaped RPC, a 64 B view", func() {
			spin(RPC(rk0, 1, msgInsert, msgInsertArgs{ID: 1, Key: 2, Val: MakeView(val)}).Ready)
		}, 5},
		{"blocking RPCFut, its reply deferred", func() {
			f, _ := RPCFutWith(rk0, 1, msgEchoFut, int64(1)<<40)
			spin(f.Ready)
		}, 6},
		{"blocking RPut", func() { spin(RPut(rk0, buf, word).Ready) }, 0},
		{"blocking RGet", func() { spin(RGet(rk0, word, buf).Ready) }, 0},
		// An atomic that finishes in its call returns its word inline, and a
		// combinator over ready futures returns a ready one: no cell.
		{"blocking fetch-add", func() { spin(ad.FetchAdd(word, 1).Ready) }, 0},
		{"blocking atomic Store", func() { spin(ad.Store(word, 1).Ready) }, 0},
		{"blocking int64 fetch-add", func() { spin(ai.FetchAdd(iword, 1).Ready) }, 0},
		{"Then on a ReadyFuture[int64]", func() {
			Then(ReadyFuture(rk0, int64(1)), func(v int64) int64 { return v + 1 }).Result()
		}, 0},
		{"blocking GetValue", func() { spin(GetValue(rk0, word).Ready) }, 1},
		{"WhenAll2 of two ready futures", func() {
			spin(WhenAll2(ReadyFuture(rk0, int64(1)), ReadyFuture(rk0, uint64(2))).Ready)
		}, 0},
		// Each AnyFuture conversion boxes its two-field Future: 8 B apiece.
		{"WhenAll of EmptyFuture and a blocking RPut", func() {
			spin(WhenAll(rk0, EmptyFuture(rk0), RPut(rk0, buf, word)).Ready)
		}, 2},
		{"blocking CopyGG", func() { CopyGG(rk0, local, word, 1).Wait() }, 0},
		{"blocking RPutSignal", signal, 4},
		{"blocking RPutSignal of a GPtr", func() { spin(RPutSignal(rk0, buf, word, msgSinkPtr, word).Ready) }, 6},
		{"RPutWith a future, a promise and an LPC", func() {
			p := NewPromise[Unit](rk0)
			fs := RPutWith(rk0, buf, word, OpCxAsFuture(), OpCxAsPromise(p), OpCxAsLPC(nil, func() {}))
			spin(fs.Op.Ready)
			spin(p.Finalize().Ready)
		}, 2},
		{"Batch flush of 32 int64 RPCs", func() {
			b := NewBatch(rk0, 1)
			var last Future[int64]
			for i := int64(0); i < 32; i++ {
				last = BatchRPC(b, msgEcho, i)
			}
			b.Flush()
			spin(last.Ready)
		}, 52},
	} {
		check(pin.name+" allocs", testing.AllocsPerRun(200, pin.op), pin.max)
	}
	flood := func() {
		p := NewPromise[Unit](rk0)
		for range 32 {
			RPutPromise(rk0, buf, word, p)
		}
		p.Finalize().Wait()
	}
	// The promise is the flood's one object: nothing per put.
	check("32 RPutPromise + Finalize().Wait(), allocs per put", testing.AllocsPerRun(200, flood)/32, 1.0/32)
	before := ams()
	for i := 0; i < 100; i++ {
		signal()
	}
	check("signaling put AMs", (ams()-before)/100, 0)
	// On LogGP nothing completes inside the call: a blocking put keeps the
	// deferred delivery (promise, fulfil closure, LPC node) on top of what
	// the conduit's own timed put allocates.
	timed := NewWorld(Config{Ranks: 2, Model: &gasnet.LogGP{IntraL: 20 * time.Microsecond}})
	defer timed.Close()
	timedWord := MustNewArray[uint64](timed.Rank(1), 1)
	tep, acked := timed.Rank(0).ep, false
	ack := func() { acked = true }
	conduit := testing.AllocsPerRun(200, func() {
		acked = false
		tep.PutSegTag(1, gasnet.HostSeg, timedWord.Off, serial.AsBytes(buf), ack, nil, obs.OpTag{})
		for !acked {
			tep.Poll()
		}
	})
	check("blocking RPut on LogGP, beyond the conduit's put, allocs",
		testing.AllocsPerRun(200, func() { RPut(timed.Rank(0), buf, timedWord).Wait() })-conduit, 3)
	// A deferred atomic keeps its cell and its delivery.
	timedAD := NewAtomicU64(timed.Rank(0))
	check("blocking fetch-add on LogGP allocs",
		testing.AllocsPerRun(200, func() { timedAD.FetchAdd(timedWord, 1).Wait() }), 4)
	// 2-rank collectives, both ranks' allocations. A value collective's
	// ranks are driven from this goroutine, which holds both masters (a
	// broadcast's root does not wait for its leaf): each row starts the
	// collective on both and runs them to the end.
	sc0, sc1 := AcquirePersona(rk0.MasterPersona()), AcquirePersona(rk1.MasterPersona())
	for _, c := range []struct {
		name string
		op   func(rk *Rank) Future[int64]
		max  float64
	}{
		{"2-rank AllReduce", func(rk *Rank) Future[int64] { return AllReduce(rk.WorldTeam(), int64(1), addI64) }, 10},
		{"2-rank Broadcast", func(rk *Rank) Future[int64] { return Broadcast(rk.WorldTeam(), 0, int64(1)) }, 8},
	} {
		check(c.name+" allocs", testing.AllocsPerRun(200, func() {
			f0, f1 := c.op(rk0), c.op(rk1)
			spin(func() bool { return f0.Ready() && f1.Ready() })
		}), c.max)
	}
	sc1.Release()
	sc0.Release()
	// A barrier blocks both ranks: rank 1 matches the warm-up call and the
	// 200 measured ones, and each rank ends the epoch with one more.
	before = ams()
	w.Run(func(rk *Rank) {
		if rk.Me() == 0 {
			check("2-rank barrier allocs", testing.AllocsPerRun(200, rk.Barrier), 6)
			return
		}
		for i := 0; i < 201; i++ {
			rk.Barrier()
		}
	})
	check("2-rank barrier AMs", (ams()-before)/202, 2)
}

// TestBodyQueueFIFOBehindQueuedBodies: the goroutine holding a persona runs
// an incoming body inline only while no body is queued on that persona.
// Bodies another goroutine harvested earlier may be waiting there, and an
// inline run would overtake them.
func TestBodyQueueFIFOBehindQueuedBodies(t *testing.T) {
	Run(1, func(rk *Rank) {
		wp := NewPersona(rk, "held-worker")
		sc := AcquirePersona(wp)
		defer sc.Release()
		for _, c := range []struct {
			name  string
			addr  *Persona // what the body is addressed to (nil: execution persona)
			queue *Persona // where it must wait while something is queued
		}{{"execution persona", nil, rk.MasterPersona()}, {"named persona", wp, wp}} {
			if q := rk.bodyQueue(c.addr); q != nil {
				t.Errorf("%s: holder with an empty queue must run inline, got %v", c.name, q)
			}
			LPCTo(c.queue, func() {}) // a completion delivery holds no body back
			if q := rk.bodyQueue(c.addr); q != nil {
				t.Errorf("%s: a queued completion must not make bodies queue, got %v", c.name, q)
			}
			ran := false
			c.queue.queueBody(func() { ran = true }) // an earlier body, queued by another harvester
			if q := rk.bodyQueue(c.addr); q != c.queue {
				t.Errorf("%s: a later body must queue behind the earlier one, got %v", c.name, q)
			}
			rk.Progress()
			if q := rk.bodyQueue(c.addr); !ran || q != nil {
				t.Errorf("%s: after the drain (ran %v) the holder runs inline again, got %v", c.name, ran, q)
			}
		}
	})
}

// TestRPCReplyBehindQueuedLPC: a reply harvested while its promise's
// persona has an LPC queued goes behind it, so that LPC runs before the
// future's Then callback. The LPC is queued by a fire-and-forget body the
// target sends ahead of the reply: one harvest takes both messages.
func TestRPCReplyBehindQueuedLPC(t *testing.T) {
	w := NewWorld(Config{Ranks: 2})
	defer w.Close()
	rk0, rk1 := w.Rank(0), w.Rank(1)
	sc := AcquirePersona(rk0.MasterPersona())
	defer sc.Release()
	var order []string
	f := RPC(rk0, 1, func(trk *Rank, x int64) int64 {
		RPCFF(trk, 0, func(trk *Rank, _ int64) {
			LPCTo(trk.MasterPersona(), func() { order = append(order, "lpc") })
		}, x)
		return x
	}, 1)
	g := ThenDo(f, func(int64) { order = append(order, "then") })
	rk1.Progress() // serves the request: the ff message, then the reply
	rk0.Progress()
	g.Wait()
	if !slices.Equal(order, []string{"lpc", "then"}) {
		t.Errorf("ran %v, want the queued LPC before the Then callback", order)
	}
}

// TestRPCReplyRouting: a reply is fulfilled where it lands only on a
// goroutine that holds the future's persona. Harvested by the progress
// thread, it reaches the master persona by LPC; harvested by the master, it
// reaches an acquired worker persona by LPC. Either way the Then callback
// runs on the goroutine holding the future's persona.
func TestRPCReplyRouting(t *testing.T) {
	RegisterRPC(msgEcho)
	// await issues an RPC on the calling goroutine, lets harvest run until
	// the reply is queued on pers, then waits for it there.
	await := func(rk *Rank, pers *Persona, harvest func(done func() bool)) {
		gid, ran := curGID(), uint64(0)
		f := RPC(rk, 1, msgEcho, int64(1))
		g := ThenDo(f, func(int64) { ran = curGID() })
		harvest(func() bool { return pers.PendingLPCs() > 0 })
		if f.Ready() {
			t.Error("the reply readied its future before its persona drained")
		}
		if g.Wait(); ran != gid {
			t.Errorf("the Then callback ran on goroutine %d, want the persona's holder %d", ran, gid)
		}
	}
	t.Run("progress thread to master", func(t *testing.T) {
		RunConfig(Config{Ranks: 2, ProgressThread: true}, func(rk *Rank) {
			if rk.Me() == 0 {
				// No progress on this goroutine: only the thread harvests.
				await(rk, rk.MasterPersona(), func(done func() bool) {
					for !done() {
						runtime.Gosched()
					}
				})
			}
			rk.Barrier()
		})
	})
	t.Run("master to acquired persona", func(t *testing.T) {
		Run(2, func(rk *Rank) {
			if rk.Me() == 0 {
				wp := NewPersona(rk, "worker")
				queued, harvested, finished := make(chan func() bool), make(chan struct{}), make(chan struct{})
				go func() {
					defer close(finished)
					sc := AcquirePersona(wp)
					defer sc.Release()
					await(rk, wp, func(done func() bool) {
						queued <- done
						<-harvested
					})
				}()
				for done := <-queued; !done(); {
					rk.Progress()
				}
				close(harvested)
				<-finished
			}
			rk.Barrier()
		})
	})
}

// TestObsSendAMAccounting: messages that skip the injection record are
// counted as if they took one (DESIGN §11). One RPC round trip with no
// descriptor adds one ops.rpc and one inject→done sample at the initiator
// and one ops.am at the responder, the reply, with its bytes and one
// sample; a plain rpc_ff adds one ops.am and its sample at the initiator;
// an RPC naming a descriptor, which takes a record, counts as the plain one
// does; a 2-rank barrier adds one collective-round op and one ops.am per
// rank.
func TestObsSendAMAccounting(t *testing.T) {
	RegisterRPC(msgEcho)
	w := NewWorld(Config{Ranks: 2, Stats: true})
	defer w.Close()
	rk0, rk1 := w.Rank(0), w.Rank(1)
	type count struct {
		name      string
		got, want uint64
	}
	check := func(what string, counts []count) {
		for _, c := range counts {
			if c.got != c.want {
				t.Errorf("%s: %s = %d, want %d", what, c.name, c.got, c.want)
			}
		}
	}
	spin := func(ready func() bool) {
		for !ready() {
			rk1.Progress()
			rk0.Progress()
		}
	}
	f := RPC(rk0, 1, msgEcho, int64(1))
	spin(f.Ready)
	s0, s1 := rk0.Stats(), rk1.Stats()
	check("RPC with no descriptor", []count{
		{"initiator ops.rpc", s0.Counters[obs.KindRPC.Ops()], 1},
		{"initiator rpc inject→done samples", s0.HistCount(obs.HistDone, obs.KindRPC), 1},
		{"initiator ops.am", s0.Counters[obs.KindAM.Ops()], 0},
		{"responder ops.am", s1.Counters[obs.KindAM.Ops()], 1},
		{"responder am tx bytes", s1.Counters[obs.KindAM.TxBytes()], s1.Counters[obs.AMBytes]},
		{"responder am inject→done samples", s1.HistCount(obs.HistDone, obs.KindAM), 1},
	})
	// Delta carries histograms unchanged: samples are counted by difference.
	samples := func(now, was obs.Snapshot, k obs.OpKind) uint64 {
		return now.HistCount(obs.HistDone, k) - was.HistCount(obs.HistDone, k)
	}
	RPCFF(rk0, 1, msgSink, int64(1))
	n0 := rk0.Stats()
	d0 := n0.Delta(s0)
	check("plain rpc_ff", []count{
		{"initiator ops.am", d0.Counters[obs.KindAM.Ops()], 1},
		{"initiator am inject→done samples", samples(n0, s0, obs.KindAM), 1},
		{"initiator ops.rpc", d0.Counters[obs.KindRPC.Ops()], 0},
	})
	spin(func() bool { return rk1.Progress() == 0 })
	s0, s1 = rk0.Stats(), rk1.Stats()
	f, _ = RPCWith(rk0, 1, msgEcho, int64(1), SourceCxAsFuture())
	spin(f.Ready)
	rk0.Quiesce()
	n0, n1 := rk0.Stats(), rk1.Stats()
	d0, d1 := n0.Delta(s0), n1.Delta(s1)
	check("RPC naming a descriptor", []count{
		{"initiator ops.rpc", d0.Counters[obs.KindRPC.Ops()], 1},
		{"initiator rpc inject→done samples", samples(n0, s0, obs.KindRPC), 1},
		{"initiator ops.am", d0.Counters[obs.KindAM.Ops()], 0},
		{"responder ops.am", d1.Counters[obs.KindAM.Ops()], 1},
		{"responder am inject→done samples", samples(n1, s1, obs.KindAM), 1},
	})
	w.Run(func(rk *Rank) {
		base := rk.Stats()
		rk.Barrier()
		d := rk.Stats().Delta(base)
		if r, am := d.Counters[obs.KindCollRound.Ops()], d.Counters[obs.KindAM.Ops()]; r != 1 || am != 1 {
			t.Errorf("rank %d: a barrier added %d collective rounds and %d AMs, want 1 and 1", rk.Me(), r, am)
		}
	})
}
