package upcxx

import (
	"encoding/binary"
	"fmt"

	"upcxx/internal/gasnet"
	"upcxx/internal/obs"
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
// Every variant lowers to the one injection path, Rank.inject, and takes the
// full completion-descriptor set (completion.go): source completion once the
// conduit has captured the argument bytes, operation completion when the
// reply lands (for rpc_ff, when the conduit accepts the message), and remote
// completion — as_rpc only — at the target when the request lands, before
// any body runs. Any delivery may be persona-addressed with On. Bodies run
// at the target only during its user-level progress, so an inattentive
// target stalls them (paper §III), unless Config.ProgressThread keeps it
// attentive.

// rpcBody is the one form every remotely executed function takes — RPC and
// rpc_ff bodies, batched entries, remote-completion (as_rpc) bodies and the
// collectives engine's collArrive alike. run decodes the arguments and calls
// the user function at the target. A result that is ready when run returns
// is encoded straight into out, the reply being built for the message, and
// run returns it grown; fire-and-forget bodies return out as it came, and so
// does a future-returning body, which ships its own reply to (src, seq) once
// its future readies. kind says which entries the body can serve: rpcReqKind
// (it produces a result) or rpcFFKind (it never replies). task is set on a
// function's task form: run queues the call with it and runs no user code.
// args alias the arrived message, the receiver's to keep (gasnet.AMHandler),
// unless all its bodies are scoped and ran inline: rpcArrive then hands it back.
// own says a kept message is a body of its own (gasnet.Endpoint.KeepPayload):
// a []byte or string in the argument then aliases it (serial.Codec.DecodeKept)
// and keeps the whole body alive, at most twice the message.
type rpcBody struct {
	kind     uint8
	scoped   bool      // valueBody, ffBody: what a View or Unmarshaler decodes from args lasts as long as run
	name     string    // registry name for cross-process dispatch ("" in-process)
	task     *taskBody // nil: run executes the call
	arg, res any       // the argument's and result's serial.Codec (res nil: no reply)
	run      func(trk *Rank, src Intrank, seq uint64, args []byte, own bool, out replyMsg) replyMsg
}

// The adapters below are the only places a user function meets the wire:
// Register* builds a function's body from one of them once, and every entry
// point uses it, or builds one per call of an unregistered function.

// valueBody adapts a function whose result is ready when it returns.
func valueBody[A, R any](fn func(*Rank, A) R) rpcBody {
	ca, cr := serial.For[A](), serial.For[R]()
	return rpcBody{kind: rpcReqKind, scoped: true, arg: ca, res: cr, run: func(trk *Rank, _ Intrank, seq uint64, args []byte, own bool, out replyMsg) replyMsg {
		var a A
		mustUnmarshal(ca, args, own, &a)
		r := fn(trk, a)
		putResult(&out, seq, cr, &r)
		return out
	}}
}

// ffBody adapts a function with no result (rpc_ff and remote-cx bodies).
func ffBody[A any](fn func(*Rank, A)) rpcBody {
	ca := serial.For[A]()
	return rpcBody{kind: rpcFFKind, scoped: true, arg: ca, run: func(trk *Rank, _ Intrank, _ uint64, args []byte, own bool, out replyMsg) replyMsg {
		var a A
		mustUnmarshal(ca, args, own, &a)
		fn(trk, a)
		return out
	}}
}

// futBody adapts a future-returning function: the reply is deferred until
// the returned future readies, and then travels as a one-entry message of
// its own — it cannot hold back the replies of entries that shared its
// request message.
func futBody[A, R any](fn func(*Rank, A) Future[R]) rpcBody {
	ca, cr := serial.For[A](), serial.For[R]()
	return rpcBody{kind: rpcReqKind, arg: ca, res: cr, run: func(trk *Rank, src Intrank, seq uint64, args []byte, own bool, out replyMsg) replyMsg {
		var a A
		mustUnmarshal(ca, args, own, &a)
		inner := fn(trk, a)
		reply := func() {
			inner.onReady(func(r R) {
				var one replyMsg
				putResult(&one, seq, cr, &r)
				trk.sendAM(src, one.bytes(trk.me), nil)
			})
		}
		if pers := inner.core().pers; pers == nil || pers.onOwnerGoroutine() {
			reply()
		} else {
			// The body handed back a future owned by another persona
			// (e.g. a deferred dist-object fetch pinned to the master
			// persona); futures are persona-local, so the continuation
			// must be registered on the owner's goroutine.
			pers.lpc(reply)
		}
		return out
	}}
}

// spawnBody adapts task (RegisterTask), typed being its call form: the entry
// is queued for the task runtime and the reply — like futBody's — deferred
// to whoever runs it. A spawn the runtime cannot take fails its sender.
func spawnBody(task *taskBody, typed rpcBody) rpcBody {
	return rpcBody{kind: typed.kind, task: task, arg: typed.arg, res: typed.res, run: func(trk *Rank, src Intrank, seq uint64, args []byte, own bool, out replyMsg) replyMsg {
		if err := task.arrive(trk, src, seq, args, own); err != nil {
			trk.failPeer(src, err)
		}
		return out
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

// checkBodies rejects a request message the aux token cannot serve: a count
// or kind disagreement between the wire entries and the token's bodies, or
// a landing on the wire without a landing body in the token, or the reverse.
func checkBodies(a *rpcAux, m rpcMsg) error {
	if len(a.bodies) != m.count {
		return fmt.Errorf("%s: %d bodies for %d wire entries", rpcFormat, len(a.bodies), m.count)
	}
	for i := range a.bodies {
		if k := m.next().kind; k != a.bodies[i].kind {
			return fmt.Errorf("%s: entry %d is kind %d on the wire but its body serves kind %d", rpcFormat, i, k, a.bodies[i].kind)
		}
	}
	if body := a.rem.body.run != nil; body != m.landing {
		return fmt.Errorf("%s: landing on the wire: %t, landing body in the token: %t", rpcFormat, m.landing, body)
	}
	return nil
}

func mustMarshal[T any](v T) []byte { return marshalWith(serial.For[T](), &v) }

// marshalWith is mustMarshal with T's codec resolved.
func marshalWith[T any](c serial.Codec[T], v *T) []byte {
	var e serial.Encoder
	if err := c.Encode(&e, v); err != nil {
		panic(fmt.Sprintf("upcxx: RPC argument not serializable: %v", err))
	}
	return e.Bytes()
}

// mustUnmarshal decodes an argument, in place when own.
func mustUnmarshal[T any](c serial.Codec[T], b []byte, own bool, ptr *T) {
	if err := c.DecodeKept(b, own, ptr); err != nil {
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
	switch {
	case p == nil && rk.w.cfg.ProgressThread:
		// No unheld fallback: during the startup window before
		// progressLoop acquires its persona, running inline would bind
		// deferred state to a transient harvester — queued bodies are
		// drained as soon as the thread comes up.
		p = rk.progressP
	case p == nil:
		p = rk.master
		if p.holder.Load() == 0 {
			// Nobody holds the master (a World driven without Run):
			// queuing to it would stall every incoming RPC, and the
			// harvesting goroutine is by definition making progress.
			return nil
		}
	case p.rk != rk:
		panic(fmt.Sprintf("upcxx: rank %d: body persona %v belongs to rank %d", rk.me, p, p.rk.me))
	}
	if p.onOwnerGoroutine() && p.nbody.Load() == 0 {
		return nil
	}
	return p
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
		if cx.via != cxBody {
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

// There is one message: the only payload the runtime puts on the conduit,
// and handleRPC its only handler. A single RPC, a fire-and-forget RPC, a
// flushed Batch, every reply, every collective message (coll.go) and every
// remote-cx landing a put or copy carries all travel as
//
//	| magic 0xC9 | version 1 | src u32 LE | count uvarint |
//	| count × { kind u8 | seq u64 LE | arglen uvarint | args } |
//	| land uvarint | largs |
//
// — a single call is a one-entry message. kind is rpcReqKind/rpcReplyKind/
// rpcFFKind; seq correlates a request with its reply (fire-and-forget
// entries carry 0); src is the sender's world rank, riding in the payload
// (not only the conduit envelope) so the message stays self-describing
// when relayed — a landing body learns its initiator from it. Entries of
// one message all travel in one direction: request messages may mix
// round-trip and fire-and-forget entries, reply messages carry only
// replies. The trailer is one target-side landing notification
// (RemoteCxAsRPC) for the whole message: land is 0 when none rides it, and
// otherwise 1 + the length of largs, the landing body's argument bytes.
// Replies carry none, and a request with no entries — the landing a put or
// copy carries — must carry one. decodeRPCMsg rejects anything malformed;
// FuzzRPCWire, FuzzRemoteCxWire and FuzzCollWire hammer it with hostile
// bytes and check the canonical round-trip property.

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
}

// rpcCall is one entry of an outgoing message: its kind, sequence number,
// span of the argument stream (between spans: what a failed marshal left),
// the sink its result goes to (nil: none comes back), and a Batch entry's body.
type rpcCall struct {
	kind       uint8
	seq        uint64
	start, end int
	sink       rpcSink
	body       *rpcBody
}

// argStream consumes fragments whose concatenation is every entry's argument,
// back to back: next returns the next piece short of stream offset end.
type argStream struct {
	frags [][]byte // what is left to read
	at    int
}

func (s *argStream) next(end int) []byte {
	for s.at < end {
		f := s.frags[0]
		n := min(len(f), end-s.at)
		if s.frags[0] = f[n:]; n == len(f) {
			s.frags = s.frags[1:]
		}
		if s.at += n; n > 0 {
			return f[:n]
		}
	}
	return nil
}

// encodeRPCMsg builds the wire form of one message: one owned buffer buf,
// or, when it borrowed a run, the fragment list bufs whose concatenation is
// the same byte stream. Runs of at least serial.GatherMinBorrow bytes are
// borrowed: the pieces of stream (what a Batch marshalled) and the view and
// []byte runs of a non-nil arg — a single call's argument, marshalled here
// with c, its serial.Codec, once, into the message, behind hdr (a spawn's
// task header). The conduit copies them at capture, before the sending call
// returns. A non-nil land is the landing's argument bytes, copied: alone, it
// makes a one-buffer message.
func encodeRPCMsg[A any](src Intrank, calls []rpcCall, stream [][]byte, hdr []byte, arg *A, c any, land *[]byte) (buf []byte, bufs [][]byte) {
	size := 40 + 20*len(calls) + len(hdr)
	if land != nil {
		size += len(*land)
	}
	var e serial.Encoder
	e.Grow(size)
	e.EnableGather(true)
	putRPCHead(&e, src, len(calls))
	args := argStream{frags: stream}
	for i := range calls {
		en := &calls[i]
		e.PutU8(en.kind)
		e.PutU64(en.seq)
		if arg != nil {
			if err := c.(serial.Codec[A]).EncodeSized(&e, hdr, arg); err != nil {
				panic(fmt.Sprintf("upcxx: RPC argument not serializable: %v", err))
			}
			continue
		}
		for args.next(en.start) != nil {
		}
		e.PutUvarint(uint64(en.end - en.start))
		for p := args.next(en.end); p != nil; p = args.next(en.end) {
			e.PutBorrowed(p)
		}
	}
	if land == nil {
		e.PutUvarint(0)
	} else {
		e.PutUvarint(1 + uint64(len(*land)))
		e.PutRaw(*land)
	}
	if bufs = e.Fragments(); bufs == nil {
		buf = e.Bytes()
	}
	return buf, bufs
}

// encodeFFMsg builds, in one buffer, the message from src of one
// fire-and-forget entry, whose argument is head then data, and no landing:
// what the collectives engine sends (encodeCollMsg).
func encodeFFMsg(src Intrank, head, data []byte) []byte {
	var e serial.Encoder
	e.Grow(32 + len(head) + len(data))
	putRPCHead(&e, src, 1)
	e.PutU8(rpcFFKind)
	e.PutU64(0)
	e.PutUvarint(uint64(len(head) + len(data)))
	e.PutRaw(head)
	e.PutRaw(data)
	e.PutUvarint(0) // no landing
	return e.Bytes()
}

// putRPCHead opens a message of count entries from src.
func putRPCHead(e *serial.Encoder, src Intrank, count int) {
	e.PutU8(rpcMagic)
	e.PutU8(rpcVersion)
	e.PutU32(uint32(src))
	e.PutUvarint(uint64(count))
}

// rpcMsg is one validated RPC message. The entries stay in wire form:
// next walks them without materialising a slice, so a one-entry message
// costs no allocation to decode.
type rpcMsg struct {
	src     uint32
	count   int
	reply   bool   // a reply message (every entry rpcReplyKind)
	body    []byte // the count entries, validated
	landing bool   // a landing notification rides the message
	largs   []byte // its argument bytes
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
	if count > uint64(d.Remaining()) {
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
	land := d.Uvarint()
	if m.landing = land > 0; m.landing {
		land--
	}
	if d.Err() != nil || land != uint64(d.Remaining()) {
		return m, fmt.Errorf("%s: landing length does not match the %d bytes remaining", rpcFormat, d.Remaining())
	}
	m.largs = d.Raw(int(land))
	switch {
	case m.reply && m.landing:
		return m, fmt.Errorf("%s: reply carries a landing", rpcFormat)
	case m.count == 0 && !m.landing:
		return m, fmt.Errorf("%s: no entries and no landing", rpcFormat)
	}
	return m, nil
}

// --- target side ---------------------------------------------------------

// handleRPC is the conduit AM handler, the one a world registers. A request
// message's landing notification fires first — it signals the message's
// arrival (for a zero-entry message, the carrying put's or copy's data in
// place), not any body's execution, and may be persona-addressed. Then every
// body of the message executes during user-level progress in ONE delivery to
// the rank's execution persona (or the persona named with RPCBodyOn) — the
// target wakes once per message, not once per call — and the results that
// are ready come back as ONE reply message. A reply message completes the
// initiator's pending entries in order: each result is decoded where it
// lands and fulfils its promise there or by LPC to the owning persona
// (Promise.rpcResult), and the last one outstanding for a request message
// fires that message's operation edge, no matter which goroutine's progress
// harvested the reply. A message this rank cannot act on fails the sending
// peer rather than the progress goroutine.
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
		return rk.rpcLand(m, rk.ep.KeepPayload())
	}
	a, _ := aux.(*rpcAux)
	if a == nil {
		return fmt.Errorf("%s: request without a body token (%T)", rpcFormat, aux)
	}
	if err := checkBodies(a, m); err != nil {
		return err
	}
	// Decided before any body runs: the message is kept when a landing
	// rides it, the bodies are queued or one is not scoped; otherwise every
	// body runs inline and nothing reads the message once they return.
	own := false
	if m.landing {
		own = rk.ep.KeepPayload()
		rk.runRemoteBody(a.rem, Intrank(m.src), m.largs, own)
		if m.count == 0 {
			return nil
		}
	}
	q := rk.bodyQueue(a.bodyPers) // behind the landing body, if it queued
	switch {
	case m.landing: // kept above
	case q != nil || !a.scoped():
		own = rk.ep.KeepPayload()
	default:
		rk.ep.ReleasePayload()
	}
	if q != nil {
		q.queueBody(func() { rk.runBodies(from, m, a.bodies, own) })
	} else {
		rk.runBodies(from, m, a.bodies, own)
	}
	return nil
}

// scoped reports whether every body is scoped (rpcBody).
func (a *rpcAux) scoped() bool {
	for i := range a.bodies {
		if !a.bodies[i].scoped {
			return false
		}
	}
	return true
}

// runBodies executes every body of one request message, in entry order, and
// ships the results that are ready as one reply message.
func (rk *Rank) runBodies(from Intrank, m rpcMsg, bodies []rpcBody, own bool) {
	var out replyMsg
	for i := range bodies {
		en := m.next()
		out = bodies[i].run(rk, from, en.seq, en.args, own, out)
	}
	if out.n > 0 {
		rk.sendAM(from, out.bytes(rk.me), nil)
	}
}

// replyMsg is a reply message under construction: each ready result is
// encoded once, straight into it; bytes writes the head last, in front. A
// body takes and returns it by value, so it stays on the handler's stack.
type replyMsg struct {
	b []byte
	n int
}

// replyHeadMax is the longest head: magic, version, src and the count.
const replyHeadMax = 6 + binary.MaxVarintLen64

// putResult appends the entry answering seq with result r, marshalled with
// c; the first one reserves the room for the head.
func putResult[R any](m *replyMsg, seq uint64, c serial.Codec[R], r *R) {
	if m.n++; m.n == 1 {
		m.b = make([]byte, replyHeadMax, replyHeadMax+32)
	}
	e := serial.NewEncoder(m.b)
	e.PutU8(rpcReplyKind)
	e.PutU64(seq)
	if err := c.EncodeSized(e, nil, r); err != nil {
		panic(fmt.Sprintf("upcxx: RPC result not serializable: %v", err))
	}
	m.b = e.Bytes()
}

// bytes closes the message from src: landing length 0 (a reply carries
// none), then the head, written into the end of the room reserved for it.
func (m *replyMsg) bytes(src Intrank) []byte {
	b := append(m.b, 0)
	var count [binary.MaxVarintLen64]byte
	off := replyHeadMax - 6 - binary.PutUvarint(count[:], uint64(m.n))
	putRPCHead(serial.NewEncoder(b[off:off]), src, m.n)
	return b[off:]
}

// sendAM hands the conduit a runtime-internal one-way message — a reply, a
// collective hop — on the calling goroutine, so per-pair FIFO holds. With no
// completion to deliver it takes no injection record, but with stats on it
// records what one would: an ops.am, its bytes and the inject→done edge.
func (rk *Rank) sendAM(dst Intrank, buf []byte, aux any) {
	var tag obs.OpTag
	if rk.ro != nil {
		tag = rk.ro.OpStart(obs.KindAM, len(buf))
		defer rk.ro.OpDone(tag, len(buf))
	}
	rk.ep.AMTag(dst, rk.w.amRPC, buf, nil, aux, tag)
}

// --- initiator side ------------------------------------------------------

// rpcSink is where a round-trip entry's result goes at the initiator: the
// promise behind the future the entry point returned. c is the codec of the
// result (the body's res); own says the reply is a body of its own, which the
// result may alias (rpcBody). Result bytes that do not decode are the replying
// peer's fault.
type rpcSink interface {
	rpcResult(c any, res []byte, own bool) error
}

// rpcResult decodes the result where the reply lands, in place when own, and
// fulfils the promise with it (fulfilHere).
func (p *Promise[T]) rpcResult(c any, res []byte, own bool) error {
	var r T
	if err := c.(serial.Codec[T]).DecodeKept(res, own, &r); err != nil {
		return fmt.Errorf("%s: reply does not decode: %w", rpcFormat, err)
	}
	p.fulfilHere(r)
	return nil
}

// rpcPending is the initiator's record of one round-trip entry in flight.
type rpcPending struct {
	sink rpcSink
	res  any        // the result's codec, for sink
	inj  *injection // of the entry's request message; counts its replies
}

// rpcLand completes the pending entries a reply message answers, own as
// rpcResult takes it. The operation edge of the last one stays an LPC,
// queued after the value.
func (rk *Rank) rpcLand(m rpcMsg, own bool) error {
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
		if err := p.sink.rpcResult(p.res, en.args, own); err != nil {
			return err
		}
		if last {
			p.inj.opLanded()
		}
	}
	return nil
}

// rpcSend is the one initiator-side lowering of RPC traffic: calls[i] is a
// call of call.bodies[i] — its argument in stream, or, for a single call,
// still in arg, behind hdr — whose sink takes its result. The message lowers through Rank.inject under one
// completion plan: source completion fires when the conduit has captured
// the message — the first moment borrowed argument runs may be reused —
// operation completion when the last round-trip entry's reply has landed —
// at injection when every entry is fire-and-forget — and a remote-cx as_rpc
// descriptor rides embedded in the message and fires at the target on
// landing, exactly like the conduit does for put/copy hop chains. The
// message is encoded before any entry is filed in rpcPending, so an argument
// that fails to marshal leaves nothing waiting for a reply; a sequence
// number is only a name, and one drawn for it is simply never answered.
// call travels as the aux token (a copy, to add a landing event or a body
// address); calls and stream are not kept.
func rpcSend[A any](rk *Rank, target Intrank, call *rpcAux, calls []rpcCall, stream [][]byte, hdr []byte, arg *A, cxs []Cx) CxFutures {
	bodyPers, cxs := splitBodyPersona(target, cxs)
	inj := rk.newInjection(target)
	for i := range cxs {
		inj.add(obs.KindRPC, &cxs[i])
	}
	if len(calls) == 0 {
		return rk.inject(inj, nil)
	}
	var last uint64 // top of a block of sequence numbers, one per entry, drawn at the first round trip
	for i := range calls {
		if calls[i].kind = call.bodies[i].kind; calls[i].kind == rpcReqKind {
			if last == 0 {
				last = rk.rpcSeq.Add(uint64(len(calls)))
			}
			calls[i].seq = last - uint64(i)
			inj.replies++
		}
	}
	var land *[]byte
	if l := inj.landing; l != nil || bodyPers != nil {
		call = &rpcAux{bodies: call.bodies, bodyPers: bodyPers}
		if l != nil { // the message carries it: opDone must not send it again
			call.rem, land, inj.landing = l.tok.rem, &l.args, nil
		}
	}
	op := inj.single()
	op.kind, op.dstPeer, op.amAux = obs.KindAM, target, call // all ff: the operation edge fires at injection
	op.buf, op.bufs = encodeRPCMsg(rk.me, calls, stream, hdr, arg, call.bodies[0].arg, land)
	if inj.replies > 0 {
		op.kind = obs.KindRPC // the last reply fires the operation edge (rpcLand)
		rk.rpcMu.Lock()
		for i := range calls {
			if calls[i].kind == rpcReqKind {
				rk.rpcPending[calls[i].seq] = rpcPending{sink: calls[i].sink, res: call.bodies[i].res, inj: inj}
			}
		}
		rk.rpcMu.Unlock()
	}
	return rk.inject(inj, nil)
}

// rpcOne sends a single call of call's body: a one-entry message whose
// argument is hdr (a spawn's task header; nil for an RPC) followed by arg.
func rpcOne[A any](rk *Rank, target Intrank, call *rpcAux, hdr []byte, arg *A, sink rpcSink, cxs []Cx) CxFutures {
	return rpcSend(rk, target, call, []rpcCall{{sink: sink}}, nil, hdr, arg, cxs)
}

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

// RPCFF invokes fn(arg) on the target rank with no acknowledgment or
// result (upcxx rpc_ff): its progression matches the one-way flow of
// rput/rget (paper footnote 5).
func RPCFF[A any](rk *Rank, target Intrank, fn func(*Rank, A), arg A) {
	RPCFFWith(rk, target, fn, arg)
}
