package upcxx

import (
	"encoding/binary"
	"fmt"
	"sync/atomic"

	"upcxx/internal/gasnet"
	"upcxx/internal/serial"
)

// Remote Procedure Call: ship a function with arguments to a target rank
// for execution there, optionally returning a result to the initiator
// (paper §II). The function value itself travels as a code reference —
// valid everywhere because SPMD ranks share one binary, the same property
// C++ UPC++ relies on for function pointers. Arguments are serialized into
// the message payload (a true deep copy across the "wire"); results travel
// back the same way. Closures are permitted, but anything they capture is
// shared by reference with the target execution — capture only immutable
// values, exactly as UPC++ requires lambda captures to be trivially
// serializable.
//
// RPC v2 speaks the same language as every other operation (paper §III):
// requests, replies, and fire-and-forget messages are lowered to
// operations on the single Rank.inject(ops, cxPlan) path, carrying the
// versioned wire header below, and the …With entry points accept the full
// completion-descriptor set —
//
//   - source completion: the argument serialization buffer has been
//     captured by the conduit and may be reused (the flood-insert idiom);
//   - operation completion: the reply has landed (for rpc_ff, the conduit
//     has accepted the one-way message);
//   - remote completion (as_rpc only): a target-side landing event fired
//     the moment the request message arrives, independent of — and
//     before — the body's execution on the target's execution persona.
//
// Every delivery may be persona-addressed (completion.go's On combinator):
// an RPC initiated by a master persona can hand its operation-completion
// future to a named worker persona, which is then the only context allowed
// to consume it.
//
// The RPC executes at the target only during its user-level progress: an
// inattentive target (one computing without calling Progress) stalls
// incoming RPCs, as the paper emphasizes — unless the job runs dedicated
// progress threads (Config.ProgressThread), in which case the target's
// progress thread executes incoming RPCs with its own persona current,
// keeping every rank attentive while its user goroutines compute.

// rpcBody is the one form every remotely executed function takes — RPC and
// rpc_ff bodies, batched entries, and remote-completion (as_rpc) bodies
// alike. run decodes the arguments and calls the user function at the
// target. A result that is ready when run returns comes back as (res,
// true) and the handler coalesces it into the message's reply;
// fire-and-forget bodies return (nil, false), and so does a
// future-returning body, which ships its own reply to (src, seq) once its
// future readies. kind says which entries the body can serve: rpcReqKind
// (it produces a result) or rpcFFKind (it never replies). task is set on a
// function's task form: run queues the call with it and runs no user code.
// args alias the arrived message, the receiver's to keep (gasnet.AMHandler).
type rpcBody struct {
	kind uint8
	name string   // registry name for cross-process dispatch ("" in-process)
	task TaskBody // nil: run executes the call
	run  func(trk *Rank, src Intrank, seq uint64, args []byte) (res []byte, now bool)
}

// The adapters below are the only places a user function meets the wire:
// Register* builds a function's body from one of them once, and every entry
// point uses it, or builds one per call of an unregistered function.

// valueBody adapts a function whose result is ready when it returns.
func valueBody[A, R any](fn func(*Rank, A) R) rpcBody {
	return rpcBody{kind: rpcReqKind, run: func(trk *Rank, _ Intrank, _ uint64, args []byte) ([]byte, bool) {
		var a A
		mustUnmarshal(args, &a)
		return mustMarshal(fn(trk, a)), true
	}}
}

// ffBody adapts a function with no result (rpc_ff and remote-cx bodies).
func ffBody[A any](fn func(*Rank, A)) rpcBody {
	return rpcBody{kind: rpcFFKind, run: func(trk *Rank, _ Intrank, _ uint64, args []byte) ([]byte, bool) {
		var a A
		mustUnmarshal(args, &a)
		fn(trk, a)
		return nil, false
	}}
}

// futBody adapts a future-returning function: the reply is deferred until
// the returned future readies, and then travels as a one-entry message of
// its own — it cannot hold back the replies of entries that shared its
// request message.
func futBody[A, R any](fn func(*Rank, A) Future[R]) rpcBody {
	return rpcBody{kind: rpcReqKind, run: func(trk *Rank, src Intrank, seq uint64, args []byte) ([]byte, bool) {
		var a A
		mustUnmarshal(args, &a)
		inner := fn(trk, a)
		reply := func() {
			inner.c.onReady(func(r R) {
				trk.reply(src, []rpcEntry{{kind: rpcReplyKind, seq: seq, args: mustMarshal(r)}})
			})
		}
		if inner.c.pers == nil || inner.c.pers.onOwnerGoroutine() {
			reply()
		} else {
			// The body handed back a future owned by another persona
			// (e.g. a deferred dist-object fetch pinned to the master
			// persona); futures are persona-local, so the continuation
			// must be registered on the owner's goroutine.
			inner.c.pers.LPC(reply)
		}
		return nil, false
	}}
}

// taskBody adapts a task function (RegisterTask): the entry is queued for the
// rank's task runtime and the reply — like futBody's — deferred to whoever
// runs it (TaskReply). A spawn the runtime cannot take fails its sender.
func taskBody(task TaskBody, ff bool) rpcBody {
	kind := rpcReqKind
	if ff {
		kind = rpcFFKind
	}
	return rpcBody{kind: kind, task: task, run: func(trk *Rank, src Intrank, seq uint64, args []byte) ([]byte, bool) {
		if err := task.Arrive(trk, src, seq, args); err != nil {
			trk.failPeer(src, err)
		}
		return nil, false
	}}
}

// rpcAux is the opaque code-reference token that travels with every RPC
// request message: one body per wire entry, positionally matched; the
// remote-completion landing notification when one was attached; and the
// target-rank persona the bodies were addressed to with RPCBodyOn (nil:
// the target's execution persona). Like the bodies, the persona pointer is
// a code reference — no wire bytes are added for it. A token is immutable:
// a plain call of a registered function sends its registry entry's.
type rpcAux struct {
	bodies   []rpcBody
	rem      remoteCxAux // target-side landing event (zero when absent)
	bodyPers *Persona    // execution persona named by RPCBodyOn (nil: default)
	wire     []byte      // distAuxCodec form, encoded once for a registry entry's token
}

// callOf returns the single-call token of fn: its registry entry's, built
// at registration, or a new one around the body adapt builds.
func callOf(fn any, adapt func() rpcBody) *rpcAux {
	if ent := registered(fn); ent != nil && ent.call != nil {
		return ent.call
	}
	return &rpcAux{bodies: []rpcBody{adapt()}}
}

// checkBodies rejects a request message whose entries the aux token's
// bodies cannot serve: a count or kind disagreement between the two.
func checkBodies(bodies []rpcBody, m rpcMsg) error {
	if len(bodies) != m.count {
		return fmt.Errorf("%s: %d bodies for %d wire entries", rpcFormat, len(bodies), m.count)
	}
	for i := range bodies {
		if k := m.next().kind; k != bodies[i].kind {
			return fmt.Errorf("%s: entry %d is kind %d on the wire but its body serves kind %d", rpcFormat, i, k, bodies[i].kind)
		}
	}
	return nil
}

func mustMarshal[T any](v T) []byte {
	var e serial.Encoder
	if err := serial.Encode(&e, &v); err != nil {
		panic(fmt.Sprintf("upcxx: RPC argument not serializable: %v", err))
	}
	return e.Bytes()
}

func mustUnmarshal[T any](b []byte, ptr *T) {
	if err := serial.Decode(b, ptr); err != nil {
		panic(fmt.Sprintf("upcxx: RPC payload decode failed: %v", err))
	}
}

// bodyQueue decides where an incoming body addressed to persona p runs. A
// nil p is the rank's durable execution persona: the progress persona in
// progress-thread mode, the master persona otherwise (the UPC++ rule that
// RPCs execute on the master persona); a non-nil p was named by the
// initiator (RPCBodyOn, or On for a remote-cx body). The harvesting
// goroutine may be any goroutine making user-level progress — a
// short-lived user goroutine's Wait, for example — and everything a body
// creates (promises, inner futures, deferred replies) binds to the current
// persona, so bodies must not execute on a persona that stops being
// drained when its goroutine exits. bodyQueue returns nil when the calling
// goroutine already holds the persona and no body is queued on it — the
// body runs inline — and otherwise the persona whose queue takes it
// (queueBody), executed when the owning goroutine next makes progress. The
// holder queues too while bodies wait there: they belong to earlier
// messages that another goroutine harvested, and running this one inline
// would overtake them (per-pair FIFO; a Find must not pass the signaling
// put's landing body that publishes what it looks for).
func (rk *Rank) bodyQueue(p *Persona) *Persona {
	if p != nil {
		if p.rk != rk {
			panic(fmt.Sprintf("upcxx: rank %d: body persona %v belongs to rank %d", rk.me, p, p.rk.me))
		}
		if p.onOwnerGoroutine() && p.nbody.Load() == 0 {
			return nil
		}
		return p
	}
	// The harvesting goroutine's id rides along as the conduit poll
	// token (progressWith passes it to PollAMsAs), so a drain of many
	// AMs resolves it once instead of re-deriving it per message —
	// curGID costs ≈ 420 ns per caller stack frame. Outside an AM drain
	// (token 0) fall back to deriving it here.
	gid := rk.ep.PollerToken()
	if gid == 0 {
		gid = curGID()
	}
	return rk.execQueue(gid)
}

// execQueue is bodyQueue(nil) for a caller that knows its goroutine id.
// Code that is not running inside an AM handler must pass curGID(): outside
// a handler the conduit poll token names whichever goroutine happens to be
// draining AMs — possibly the progress thread, concurrently — not the
// caller, and mistaking one for the other would run a body inline on the
// wrong goroutine.
func (rk *Rank) execQueue(gid uint64) *Persona {
	if rk.w.cfg.ProgressThread {
		// Always route to the progress persona (inline only when the
		// progress thread itself harvested the AM). No unheld fallback:
		// during the startup window before progressLoop acquires its
		// persona, running inline would bind deferred state to a
		// transient harvester — queued bodies are drained as soon as
		// the thread comes up.
		if rk.progressP.holder.Load() == gid && rk.progressP.nbody.Load() == 0 {
			return nil
		}
		return rk.progressP
	}
	if h := rk.master.holder.Load(); (h == gid && rk.master.nbody.Load() == 0) || h == 0 {
		// Run inline when the caller holds the master persona — or when
		// nobody does (a World driven without Run): queuing to an unheld
		// master would stall every incoming RPC, and the harvesting
		// goroutine is by definition making progress.
		return nil
	}
	return rk.master
}

// runOn runs fn inline when q is nil and queues it on q otherwise. Hot
// paths branch on the queue themselves so the inline case needs no
// closure.
func runOn(q *Persona, fn func()) {
	if q == nil {
		fn()
		return
	}
	q.queueBody(fn)
}

// splitBodyPersona peels RPCBodyOn pseudo-descriptors off an RPC's
// completion set, returning the named target-rank persona (nil when none)
// and the remaining true completion descriptors. The persona must belong
// to the target rank — the body executes there — and at most one body
// address is meaningful per RPC.
func splitBodyPersona(target Intrank, cxs []Cx) (*Persona, []Cx) {
	var bp *Persona
	n := 0
	for _, cx := range cxs {
		if cx.kind != cxBody {
			cxs[n] = cx
			n++
			continue
		}
		if bp != nil {
			panic("upcxx: at most one RPCBodyOn descriptor per RPC")
		}
		if cx.pers.rk.me != target {
			panic(fmt.Sprintf("upcxx: RPCBodyOn persona %v belongs to rank %d, but the body executes at rank %d",
				cx.pers, cx.pers.rk.me, target))
		}
		bp = cx.pers
	}
	return bp, cxs[:n]
}

// --- RPC wire form -------------------------------------------------------

// There is one RPC message. A single RPC, a fire-and-forget RPC, a flushed
// Batch, and every reply all travel as
//
//	| magic 0xC9 | version 1 | src u32 LE | count uvarint |
//	| count × { kind u8 | seq u64 LE | arglen uvarint | args } |
//	| remlen uvarint | rem |
//
// — a single call is a one-entry message. kind is rpcReqKind/rpcReplyKind/
// rpcFFKind; seq correlates a request with its reply (fire-and-forget
// entries carry 0); src is the sender's world rank, riding in the payload
// (not only the conduit envelope) so the message stays self-describing
// when relayed. Entries of one message all travel in one direction:
// request messages may mix round-trip and fire-and-forget entries, reply
// messages carry only replies. rem is an embedded remote-cx payload (the
// 0xC7 wire form of completion.go) carrying one target-side landing
// notification for the whole message — empty when none was attached, and
// required empty on replies. decodeRPCMsg rejects anything malformed;
// FuzzRPCWire hammers it with hostile bytes and checks the canonical
// round-trip property.

const (
	rpcMagic   = 0xC9
	rpcVersion = 1
	rpcFormat  = "rpc message"
)

// RPC entry kinds.
const (
	rpcReqKind   uint8 = 1 + iota // round-trip request (expects a reply)
	rpcReplyKind                  // reply carrying the result bytes
	rpcFFKind                     // fire-and-forget (upcxx rpc_ff)
)

const rpcKindMax = rpcFFKind

// rpcEntry is one call (or one result) of an RPC message.
type rpcEntry struct {
	kind uint8
	seq  uint64
	args []byte // argument (request) or result (reply) bytes
	// more continues args on the initiator side when the argument was
	// gather-marshalled (Batch): fragments that may borrow caller memory
	// until the conduit captures the message. Decoded entries have none.
	more [][]byte
}

// encodeRPCMsg builds the wire form of one message — contiguous in buf,
// or, with gather set, as the fragment list bufs whose concatenation is
// the same byte stream but in which argument spans of at least
// serial.GatherMinBorrow bytes still alias the caller's memory. A non-nil
// arg is a single call's argument, marshalled here, once, into the message,
// behind whatever header the entry's args hold (a spawn's task header).
func encodeRPCMsg[A any](src Intrank, entries []rpcEntry, arg *A, rem []byte, gather bool) (buf []byte, bufs [][]byte) {
	size := 40 + 20*len(entries) + len(rem)
	if !gather {
		for i := range entries {
			size += len(entries[i].args)
		}
	}
	var e serial.Encoder
	e.Grow(size)
	if gather {
		e.EnableGather()
	}
	e.PutU8(rpcMagic)
	e.PutU8(rpcVersion)
	e.PutU32(uint32(src))
	e.PutUvarint(uint64(len(entries)))
	for i := range entries {
		en := &entries[i]
		e.PutU8(en.kind)
		e.PutU64(en.seq)
		if arg != nil {
			if err := serial.EncodeSized(&e, en.args, arg); err != nil {
				panic(fmt.Sprintf("upcxx: RPC argument not serializable: %v", err))
			}
			continue
		}
		n := len(en.args)
		for _, f := range en.more {
			n += len(f)
		}
		e.PutUvarint(uint64(n))
		e.PutBorrowed(en.args)
		for _, f := range en.more {
			e.PutBorrowed(f)
		}
	}
	e.PutUvarint(uint64(len(rem)))
	e.PutRaw(rem)
	if gather {
		return nil, e.Fragments()
	}
	return e.Bytes(), nil
}

// rpcMsg is one validated RPC message. The entries stay in wire form:
// next walks them without materialising a slice, so a one-entry message
// costs no allocation to decode.
type rpcMsg struct {
	src   uint32
	count int
	reply bool   // a reply message (every entry rpcReplyKind)
	body  []byte // the count entries, validated
	rem   []byte // embedded remote-cx payload (encodeRemoteCx form)
}

// next pops the message's first remaining entry; call it at most count
// times (on a copy, to walk the entries more than once). decodeRPCMsg has
// validated body, so this is the hot path's unchecked re-read.
func (m *rpcMsg) next() rpcEntry {
	b := m.body
	n, w := binary.Uvarint(b[9:])
	end := 9 + w + int(n)
	m.body = b[end:]
	return rpcEntry{kind: b[0], seq: binary.LittleEndian.Uint64(b[1:]), args: b[9+w : end]}
}

// decodeRPCMsg parses and validates the wire form.
func decodeRPCMsg(b []byte) (rpcMsg, error) {
	var m rpcMsg
	d := serial.NewDecoder(b)
	if err := d.Header(rpcFormat, rpcMagic, rpcVersion); err != nil {
		return m, err
	}
	m.src = d.U32()
	count := d.Uvarint()
	if d.Err() != nil {
		return m, d.Err()
	}
	if m.src > 1<<31-1 {
		return m, fmt.Errorf("%s: sender rank %d out of range", rpcFormat, m.src)
	}
	// Every entry occupies at least kind+seq+arglen = 10 bytes, so a count
	// beyond the remaining byte count is hostile, not merely truncated.
	if count == 0 || count > uint64(d.Remaining()) {
		return m, fmt.Errorf("%s: entry count %d with %d bytes remaining", rpcFormat, count, d.Remaining())
	}
	m.count = int(count)
	start := d.Offset()
	replies := 0
	for i := 0; i < m.count; i++ {
		kind, seq := d.U8(), d.U64()
		d.Bytes()
		if d.Err() != nil {
			return m, d.Err()
		}
		if kind == 0 || kind > rpcKindMax {
			return m, fmt.Errorf("%s: entry %d has unknown kind %d", rpcFormat, i, kind)
		}
		if kind == rpcFFKind && seq != 0 {
			return m, fmt.Errorf("%s: fire-and-forget entry %d carries sequence %d", rpcFormat, i, seq)
		}
		if kind == rpcReplyKind {
			replies++
		}
	}
	if replies != 0 && replies != m.count {
		return m, fmt.Errorf("%s: mixes %d replies with %d requests", rpcFormat, replies, m.count-replies)
	}
	m.reply = replies != 0
	m.body = b[start:d.Offset()]
	var err error
	if m.rem, err = d.Tail(rpcFormat); err != nil {
		return m, err
	}
	if m.reply && len(m.rem) > 0 {
		return m, fmt.Errorf("%s: reply carries a remote-cx payload", rpcFormat)
	}
	return m, nil
}

// --- target side ---------------------------------------------------------

// handleRPC is the single conduit AM handler for all RPC traffic. A
// request message's embedded remote-cx landing event fires first — it
// signals the message's arrival, not any body's execution, and may be
// persona-addressed. Then every body of the message executes during
// user-level progress in ONE delivery to the rank's execution persona
// (or the persona named with RPCBodyOn) — the target wakes once per
// message, not once per call — and the results that are ready come back
// as ONE reply message. A reply message completes the initiator's pending
// entries in order: each result is routed to its promise's owning
// persona, and the last one outstanding for a request message fires that
// message's operation edge, no matter which goroutine's progress
// harvested the reply. A message this rank cannot act on fails the
// sending peer rather than the progress goroutine.
func (w *World) handleRPC(ep *gasnet.Endpoint, src gasnet.Rank, payload []byte, aux any) {
	trk := w.ranks[ep.Rank()]
	if err := trk.rpcArrive(Intrank(src), payload, aux); err != nil {
		trk.failPeer(Intrank(src), err)
	}
}

// rpcArrive is handleRPC at the receiving rank; an error is the sender's
// fault.
func (rk *Rank) rpcArrive(from Intrank, payload []byte, aux any) error {
	m, err := decodeRPCMsg(payload)
	if err != nil {
		return err
	}
	if m.reply {
		return rk.rpcLand(m)
	}
	a, _ := aux.(*rpcAux)
	if a == nil {
		return fmt.Errorf("%s: request without a body token (%T)", rpcFormat, aux)
	}
	if err := checkBodies(a.bodies, m); err != nil {
		return err
	}
	if len(m.rem) > 0 {
		initiator, args, err := decodeRemoteCx(m.rem)
		if err != nil {
			return err
		}
		rk.runRemoteBody(a.rem, initiator, args)
	}
	if q := rk.bodyQueue(a.bodyPers); q != nil {
		q.queueBody(func() { rk.runBodies(from, m, a.bodies) })
	} else {
		rk.runBodies(from, m, a.bodies)
	}
	return nil
}

// runBodies executes every body of one request message, in entry order,
// and ships the results that are ready as one reply message.
func (rk *Rank) runBodies(from Intrank, m rpcMsg, bodies []rpcBody) {
	var one [1]rpcEntry // a single call's result needs no heap slice
	replies := one[:0]
	if m.count > 1 {
		replies = make([]rpcEntry, 0, m.count)
	}
	for i := range bodies {
		en := m.next()
		if res, now := bodies[i].run(rk, from, en.seq, en.args); now {
			replies = append(replies, rpcEntry{kind: rpcReplyKind, seq: en.seq, args: res})
		}
	}
	if len(replies) > 0 {
		rk.reply(from, replies)
	}
}

// reply ships RPC results back to the initiator as one message through
// the same injection path as every other operation (defQ → conduit),
// mirroring Fig 2's return flow through the target's queues.
func (rk *Rank) reply(dst Intrank, results []rpcEntry) {
	buf, _ := encodeRPCMsg[Unit](rk.me, results, nil, nil, false)
	rk.inject(rk.newInjection(dst).single(rmaOp{kind: opAM, dstPeer: dst, amID: rk.w.amRPC, buf: buf}))
}

// --- initiator side ------------------------------------------------------

// rpcSink is where a round-trip entry's result goes at the initiator: the
// promise behind the future the entry point returned.
type rpcSink interface{ rpcResult(res []byte) }

// rpcResult routes result bytes to the promise on its owning persona,
// whichever goroutine's progress harvested the reply.
func (p *Promise[T]) rpcResult(res []byte) {
	p.c.pers.LPC(func() {
		var r T
		mustUnmarshal(res, &r)
		p.fulfillOwnedResult(r)
	})
}

// rpcPending is the initiator's record of one round-trip entry in flight.
type rpcPending struct {
	sink rpcSink
	inj  *injection // of the entry's request message; counts its replies
}

// rpcLand completes the pending entries a reply message answers.
func (rk *Rank) rpcLand(m rpcMsg) error {
	for i := 0; i < m.count; i++ {
		en := m.next()
		rk.rpcMu.Lock()
		p, ok := rk.rpcPending[en.seq]
		delete(rk.rpcPending, en.seq)
		last := false
		if ok {
			p.inj.replies--
			last = p.inj.replies == 0
		}
		rk.rpcMu.Unlock()
		if !ok {
			return fmt.Errorf("%s: reply for unknown sequence %d", rpcFormat, en.seq)
		}
		p.sink.rpcResult(en.args)
		if last {
			p.inj.opLanded()
		}
	}
	return nil
}

// rpcSend is the one initiator-side lowering of RPC traffic: entries[i] is
// a call of call.bodies[i] — its args filled in by the caller, or, for a
// single call, still in arg — and sinks[i] takes its result — nil for a
// fire-and-forget body. The message lowers through Rank.inject under one
// completion plan: source completion fires when the conduit has captured
// the argument bytes (with gather set, the first moment borrowed argument
// fragments may be reused), operation completion when the last round-trip
// entry's reply has landed — at injection when every entry is
// fire-and-forget — and a remote-cx as_rpc descriptor rides embedded in the
// message and fires at the target on landing, exactly like the conduit does
// for put/copy hop chains. call travels as the aux token (a copy, to add a
// landing event or a body address); entries and sinks are not kept.
func rpcSend[A any](rk *Rank, target Intrank, entries []rpcEntry, arg *A, call *rpcAux, sinks []rpcSink, gather bool, cxs []Cx) CxFutures {
	bodyPers, cxs := splitBodyPersona(target, cxs)
	inj := rk.newInjection(target)
	for _, cx := range cxs {
		inj.add(opRPC, cx)
	}
	futs := inj.futs // the record may be released before inject returns
	if len(entries) == 0 {
		rk.inject(inj)
		return futs
	}
	for i := range entries {
		entries[i].kind = call.bodies[i].kind
		if entries[i].kind == rpcReqKind {
			inj.replies++
		}
	}
	opK := opAM // all fire-and-forget: the operation edge fires at injection
	if inj.replies > 0 {
		opK = opRPC // the last reply fires the operation edge (rpcLand)
		rk.rpcMu.Lock()
		for i := range entries {
			if entries[i].kind == rpcReqKind {
				entries[i].seq = rk.rpcSeq
				rk.rpcSeq++
				rk.rpcPending[entries[i].seq] = rpcPending{sink: sinks[i], inj: inj}
			}
		}
		rk.rpcMu.Unlock()
	}
	var rem []byte
	if am := inj.takeConduitAM(); am != nil || bodyPers != nil {
		call = &rpcAux{bodies: call.bodies, bodyPers: bodyPers}
		if am != nil {
			rem, call.rem = am.Payload, am.Aux.(remoteCxAux)
		}
	}
	op := rmaOp{kind: opK, dstPeer: target, amID: rk.w.amRPC, amAux: call}
	op.buf, op.bufs = encodeRPCMsg(rk.me, entries, arg, rem, gather)
	rk.inject(inj.single(op))
	return futs
}

// rpcOne sends a single call of call's body: a one-entry message whose
// argument is hdr (a spawn's task header; nil for an RPC) followed by arg.
func rpcOne[A any](rk *Rank, target Intrank, call *rpcAux, hdr []byte, arg *A, sink rpcSink, cxs []Cx) CxFutures {
	return rpcSend(rk, target, []rpcEntry{{args: hdr}}, arg, call, []rpcSink{sink}, false, cxs)
}

// --- task spawns ---------------------------------------------------------

// A spawn (internal/task) is a single call of the function's task form: the
// task header, then the argument, marshalled once into the message. The round
// trip is an RPC's, except that whichever rank ran the task sends the reply.
// Its sink is the caller's promise plus the task runtime's completion count.
type taskSink[T any] struct {
	p      *Promise[T]
	credit *atomic.Uint64
}

func (s *taskSink[T]) rpcResult(res []byte) {
	s.p.rpcResult(res)
	s.credit.Add(1)
}

// TaskRPC spawns fn(arg) at target and returns the future for its result,
// owned by the calling persona; credit counts the reply as it lands.
func TaskRPC[A, R any](rk *Rank, target Intrank, fn func(*Rank, A) R, hdr []byte, arg A, credit *atomic.Uint64) Future[R] {
	p := NewPromise[R](rk)
	rpcOne(rk, target, spawnOf(fn), hdr, &arg, &taskSink[R]{p, credit}, nil)
	return p.Future()
}

// TaskRPCFF spawns fire-and-forget fn(arg) at target: no reply entry.
func TaskRPCFF[A any](rk *Rank, target Intrank, fn func(*Rank, A), hdr []byte, arg A) {
	rpcOne(rk, target, spawnOf(fn), hdr, &arg, nil, nil)
}

// TaskReply answers the spawn that home sent as seq. A sequence number home
// does not await — unknown, or answered already — fails the replier there.
func TaskReply(rk *Rank, home Intrank, seq uint64, res []byte) {
	rk.reply(home, []rpcEntry{{kind: rpcReplyKind, seq: seq, args: res}})
}

// FailPeer is failPeer for a task message the task runtime cannot act on.
func FailPeer(rk *Rank, peer Intrank, err error) { rk.failPeer(peer, err) }

// --- public entry points -------------------------------------------------

// RPCWith invokes fn(arg) on the target rank with an explicit
// completion-descriptor set, returning the future for fn's result plus
// the requested completion futures. Operation completion fires when the
// reply lands (the same edge that readies the value future), source
// completion when the argument serialization buffer may be reused, and a
// RemoteCxAsRPC descriptor executes at the target the moment the request
// message arrives — before the body. Any delivery may be
// persona-addressed with On, and an RPCBodyOn descriptor addresses the
// *body itself* to a named persona of the target rank instead of the
// target's execution persona. The calling goroutine's current persona owns
// the returned value future regardless of which goroutine's progress
// observes the reply.
func RPCWith[A, R any](rk *Rank, target Intrank, fn func(*Rank, A) R, arg A, cxs ...Cx) (Future[R], CxFutures) {
	p := NewPromise[R](rk)
	return p.Future(), rpcOne(rk, target, callOf(fn, func() rpcBody { return valueBody(fn) }), nil, &arg, p, cxs)
}

// RPCFutWith is RPCWith for a future-returning fn: the reply is deferred
// until the body's future readies — the deferred-reply form upcxx RPCs
// use when the callee must itself wait on asynchronous work.
func RPCFutWith[A, R any](rk *Rank, target Intrank, fn func(*Rank, A) Future[R], arg A, cxs ...Cx) (Future[R], CxFutures) {
	p := NewPromise[R](rk)
	return p.Future(), rpcOne(rk, target, callOf(fn, func() rpcBody { return futBody(fn) }), nil, &arg, p, cxs)
}

// RPCFFWith invokes fn(arg) on the target rank with no acknowledgment or
// result (upcxx rpc_ff) and an explicit completion set: operation
// completion fires when the conduit accepts the message (there is no
// acknowledgment to wait for), source completion when the argument buffer
// may be reused, and a RemoteCxAsRPC descriptor at the target on landing.
func RPCFFWith[A any](rk *Rank, target Intrank, fn func(*Rank, A), arg A, cxs ...Cx) CxFutures {
	return rpcOne(rk, target, callOf(fn, func() rpcBody { return ffBody(fn) }), nil, &arg, nil, cxs)
}

// RPC invokes fn(arg) on the target rank and returns a future for its
// result. A function of no or several arguments takes a Unit or a struct.
func RPC[A, R any](rk *Rank, target Intrank, fn func(*Rank, A) R, arg A) Future[R] {
	f, _ := RPCWith(rk, target, fn, arg)
	return f
}

// RPCFut invokes fn on the target; fn returns a future, and the reply is
// sent when that future readies.
func RPCFut[A, R any](rk *Rank, target Intrank, fn func(*Rank, A) Future[R], arg A) Future[R] {
	f, _ := RPCFutWith(rk, target, fn, arg)
	return f
}

// RPCFF invokes fn(arg) on the target rank with no acknowledgment or
// result (upcxx rpc_ff): its progression matches the one-way flow of
// rput/rget (paper footnote 5).
func RPCFF[A any](rk *Rank, target Intrank, fn func(*Rank, A), arg A) {
	RPCFFWith(rk, target, fn, arg)
}
