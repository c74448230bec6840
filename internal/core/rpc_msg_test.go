package upcxx

import (
	"bytes"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"upcxx/internal/gasnet"
	"upcxx/internal/serial"
)

// Tests for the one RPC message: single, fire-and-forget and batched calls
// share a wire form, a handler and a body form, so what one path pins the
// others must show too.

func msgEcho(trk *Rank, x int64) int64 { return x + 1 }
func msgSink(trk *Rank, x int64)       {}

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
			rk0.rpcSeq = 40 // both sends draw the same sequence number
			send()
			rk0.Progress() // defQ → conduit
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
// operation completion must wait for its late entry.
func TestRPCMixedStreamFIFO(t *testing.T) {
	msgLog.order, msgLog.late = nil, map[string]*Promise[string]{}
	Run(2, func(rk *Rank) {
		if rk.Me() == 0 {
			RPCFF(rk, 1, msgFF, "a")
			b := NewBatch(rk, 1)
			fb := BatchRPC(b, msgValue, "b")
			pc := NewPromise[string](rk)
			c := "c"
			batchAdd(b, futBody(msgLate), &c, pc) // what a registered RegisterRPCFut entry of a batch decodes to
			BatchRPCFF(b, msgFF, "d")
			flush := b.Flush(OpCxAsFuture())
			fe := RPC(rk, 1, msgValue, "e")
			ff, _ := RPCFutWith(rk, 1, msgLate, "f")

			if got := fb.Wait() + fe.Wait(); got != "be" {
				t.Errorf("ready results = %q, want %q", got, "be")
			}
			if pc.Future().Ready() || ff.Ready() || flush.Op.Ready() {
				t.Errorf("late entries resolved before release: batch entry %v, RPCFut %v, flush op-cx %v",
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
				t.Errorf("late RPCFut = %q", got)
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
// with no aux, a reply names no pending call, the payload or its embedded
// landing notification is corrupt — fails the sending peer (World.Failed
// wraps ErrPeerLost) instead of panicking the progress goroutine, and runs
// no body.
func TestRPCHandlerRejects(t *testing.T) {
	var ran atomic.Int32
	val := valueBody(func(*Rank, int64) int64 { ran.Add(1); return 0 })
	ff := ffBody(func(*Rank, int64) { ran.Add(1) })
	arg := mustMarshal(int64(1))
	enc := func(rem []byte, entries ...rpcEntry) []byte {
		b, _ := encodeRPCMsg[Unit](0, entries, nil, rem, false)
		return b
	}
	req := rpcEntry{kind: rpcReqKind, seq: 9, args: arg}
	one := rpcEntry{kind: rpcFFKind, args: arg}
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
		{"request with a foreign aux", enc(nil, one), remoteCxAux{body: ff}},
		{"reply for an unknown sequence", enc(nil, rpcEntry{kind: rpcReplyKind, seq: 77}), nil},
		{"corrupt landing notification", enc([]byte{1, 2, 3}, one), &rpcAux{bodies: []rpcBody{ff}}},
		{"truncated payload", enc(nil, one)[:9], &rpcAux{bodies: []rpcBody{ff}}},
		{"retired single-RPC magic", append([]byte{rpcMagic - 1}, enc(nil, one)[1:]...), &rpcAux{bodies: []rpcBody{ff}}},
	}
	for _, row := range rows {
		w := NewWorld(Config{Ranks: 2})
		w.handleRPC(w.Rank(1).ep, 0, row.payload, row.aux)
		w.Rank(1).Progress()
		if err := w.Failed(); !errors.Is(err, gasnet.ErrPeerLost) {
			t.Errorf("%s: Failed() = %v, want an ErrPeerLost-wrapped error", row.name, err)
		}
		w.Close()
	}
	if n := ran.Load(); n != 0 {
		t.Errorf("%d bodies of rejected messages ran", n)
	}
	// The matching forms are served.
	w := NewWorld(Config{Ranks: 2})
	defer w.Close()
	w.handleRPC(w.Rank(1).ep, 0, enc(nil, one, req), &rpcAux{bodies: []rpcBody{ff, val}})
	if err := w.Failed(); err != nil || ran.Load() != 2 {
		t.Errorf("well-formed message: Failed() = %v, %d of 2 bodies ran", err, ran.Load())
	}
}

// TestRPCAllocPins pins what one operation allocates on the zero-delay
// conduit, every rank included, driven the way a blocking caller drives it.
// An injection is one pooled record and a message is encoded once, so what
// is left is what the caller keeps (promise, future, LPC node), the message
// buffer, and two goroutine-id lookups per blocking call (curGID's stack
// buffer escapes; ROADMAP item 1(b) deletes it). A barrier's count moves
// with the number of progress passes its waits take (32 measured, both
// ranks together).
func TestRPCAllocPins(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop records at random")
	}
	RegisterRPC(msgEcho)
	RegisterRPCFF(msgSink)
	w := NewWorld(Config{Ranks: 2})
	defer w.Close()
	rk0, rk1 := w.Rank(0), w.Rank(1)
	word, _ := NewArray[uint64](rk1, 1)
	buf := []uint64{7}
	ad := NewAtomicU64(rk0)
	spin := func(ready func() bool) {
		for !ready() {
			rk1.Progress()
			rk0.Progress()
		}
	}
	check := func(name string, got, max float64) {
		t.Logf("%s: %v allocs/op (pinned at %v)", name, got, max)
		if got > max {
			t.Errorf("%s: %v allocs/op, pinned at %v", name, got, max)
		}
	}
	for _, pin := range []struct {
		name string
		op   func()
		max  float64
	}{
		{"RPCFF", func() {
			RPCFF(rk0, 1, msgSink, int64(1)<<40)
			rk0.Progress()
			rk1.Progress()
		}, 4},
		{"RPCFF of an unregistered closure", func() {
			RPCFF(rk0, 1, func(*Rank, int64) {}, int64(1)<<40)
			rk0.Progress()
			rk1.Progress()
		}, 7},
		{"blocking RPC", func() {
			f := RPC(rk0, 1, msgEcho, int64(1)<<40)
			spin(f.Ready)
			if f.Wait() != 1<<40+1 {
				t.Fatal("echo returned the wrong value")
			}
		}, 12},
		{"blocking RPut", func() { spin(RPut(rk0, buf, word).Ready) }, 7},
		{"blocking RGet", func() { spin(RGet(rk0, word, buf).Ready) }, 7},
		{"blocking fetch-add", func() { spin(ad.FetchAdd(word, 1).Ready) }, 8},
	} {
		check(pin.name, testing.AllocsPerRun(200, pin.op), pin.max)
	}
	// A 2-rank barrier, both ranks' allocations: rank 1 matches the warm-up
	// call and the 200 measured ones.
	w.Run(func(rk *Rank) {
		if rk.Me() == 0 {
			check("2-rank barrier", testing.AllocsPerRun(200, rk.Barrier), 35)
			return
		}
		for i := 0; i < 201; i++ {
			rk.Barrier()
		}
	})
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
			c.queue.LPC(func() {}) // a completion delivery holds no body back
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
