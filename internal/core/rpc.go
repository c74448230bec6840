package upcxx

import (
	"fmt"

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

// rpcInvoker runs at the target inside the AM handler: decode arguments,
// call the user function, and send the reply (immediately, or when a
// returned future readies).
type rpcInvoker func(trk *Rank, src Intrank, seq uint64, args []byte)

// rpcFFInvoker is the fire-and-forget variant: no sequence, no reply.
type rpcFFInvoker func(trk *Rank, src Intrank, args []byte)

// rpcAux is the opaque code-reference token that travels with every RPC
// wire message: the body invoker (request or fire-and-forget form), the
// remote-completion landing notification when one was attached, and the
// target-rank persona the body was addressed to with RPCBodyOn (nil: the
// target's execution persona). Like the invokers, the persona pointer is
// a code reference — no wire bytes are added for it.
type rpcAux struct {
	inv      rpcInvoker   // rpcReqKind body
	ffInv    rpcFFInvoker // rpcFFKind body
	rem      remoteCxAux  // target-side landing event (zero when absent)
	bodyPers *Persona     // execution persona named by RPCBodyOn (nil: default)
	invName  string       // registry name for cross-process dispatch ("" in-process)
}

func mustMarshal(v any) []byte {
	b, err := serial.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("upcxx: RPC argument not serializable: %v", err))
	}
	return b
}

func mustUnmarshal(b []byte, ptr any) {
	if err := serial.Unmarshal(b, ptr); err != nil {
		panic(fmt.Sprintf("upcxx: RPC payload decode failed: %v", err))
	}
}

// execBody runs an incoming RPC body on the rank's durable execution
// persona: the progress persona in progress-thread mode, the master
// persona otherwise (the UPC++ rule that RPCs execute on the master
// persona). The harvesting goroutine may be any goroutine making
// user-level progress — a short-lived user goroutine's Wait, for
// example — and everything a body creates (promises, inner futures,
// deferred replies) binds to the current persona, so bodies must not
// execute on a persona that stops being drained when its goroutine
// exits. If the calling goroutine already holds the durable persona the
// body runs inline; otherwise it is delivered by LPC.
func (rk *Rank) execBody(fn func()) {
	// The harvesting goroutine's id rides along as the conduit poll
	// token (progressWith passes it to PollAMsAs), so a drain of many
	// AMs resolves it once instead of re-deriving it per message —
	// curGID costs ~1µs of runtime.Stack parsing. Outside an AM drain
	// (token 0) fall back to deriving it here.
	gid := rk.ep.PollerToken()
	if gid == 0 {
		gid = curGID()
	}
	rk.execBodyAs(gid, fn)
}

// execBodyAs is execBody for a caller that knows its goroutine id. Code
// that is not running inside an AM handler must pass curGID(): outside a
// handler the conduit poll token names whichever goroutine happens to be
// draining AMs — possibly the progress thread, concurrently — not the
// caller, and mistaking one for the other would run fn inline on the
// wrong goroutine.
func (rk *Rank) execBodyAs(gid uint64, fn func()) {
	if rk.w.cfg.ProgressThread {
		// Always route to the progress persona (inline only when the
		// progress thread itself harvested the AM). No unheld fallback:
		// during the startup window before progressLoop acquires its
		// persona, running inline would bind deferred state to a
		// transient harvester — queued bodies are drained as soon as
		// the thread comes up.
		if rk.progressP.holder.Load() == gid {
			fn()
			return
		}
		rk.progressP.LPC(fn)
		return
	}
	if h := rk.master.holder.Load(); h == gid || h == 0 {
		// Run inline when the caller holds the master persona — or when
		// nobody does (a World driven without Run): queuing to an unheld
		// master would stall every incoming RPC, and the harvesting
		// goroutine is by definition making progress.
		fn()
		return
	}
	rk.master.LPC(fn)
}

// execBodyOn runs an incoming RPC body on the persona the initiator named
// with RPCBodyOn, or falls back to the rank's durable execution persona
// (execBody) when none was named. Like every persona delivery, the body
// runs inline only when the harvesting goroutine already holds the named
// persona; otherwise it lands in that persona's LPC queue, executed when
// the owning goroutine next makes progress.
func (rk *Rank) execBodyOn(p *Persona, fn func()) {
	if p == nil {
		rk.execBody(fn)
		return
	}
	if p.rk != rk {
		panic(fmt.Sprintf("upcxx: rank %d: rpc body persona %v belongs to rank %d",
			rk.me, p, p.rk.me))
	}
	if p.onOwnerGoroutine() {
		fn()
		return
	}
	p.LPC(fn)
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

// Every RPC message — request, reply, and fire-and-forget — shares one
// self-describing versioned header:
//
//	| magic 0xC8 | version 1 | kind u8 | seq u64 | src u32 LE |
//	| arglen uvarint | args | remlen uvarint | rem |
//
// kind is rpcReqKind/rpcReplyKind/rpcFFKind; seq correlates requests with
// replies (fire-and-forget messages carry 0); src is the sender's world
// rank, riding in the payload (not only the conduit envelope) so the
// message stays self-describing when relayed. rem is an embedded
// remote-cx payload (the 0xC7 wire form of completion.go) carrying the
// target-side landing notification of a request — empty when none was
// attached, and required empty on replies. decodeRPCMsg rejects anything
// malformed; FuzzRPCWire hammers it with hostile bytes and checks the
// canonical round-trip property.

const (
	rpcMagic   = 0xC8
	rpcVersion = 1
)

// RPC message kinds.
const (
	rpcReqKind   uint8 = 1 + iota // round-trip request (expects a reply)
	rpcReplyKind                  // reply carrying the result bytes
	rpcFFKind                     // fire-and-forget (upcxx rpc_ff)
)

const rpcKindMax = rpcFFKind

// rpcMsg is one decoded RPC wire message.
type rpcMsg struct {
	kind uint8
	seq  uint64
	src  uint32
	args []byte
	rem  []byte // embedded remote-cx payload (encodeRemoteCx form)
}

// encodeRPCMsg builds the wire form.
func encodeRPCMsg(m rpcMsg) []byte {
	e := serial.NewEncoder(make([]byte, 0, 24+len(m.args)+len(m.rem)))
	e.PutU8(rpcMagic)
	e.PutU8(rpcVersion)
	e.PutU8(m.kind)
	e.PutU64(m.seq)
	e.PutU32(m.src)
	e.PutUvarint(uint64(len(m.args)))
	e.PutRaw(m.args)
	e.PutUvarint(uint64(len(m.rem)))
	e.PutRaw(m.rem)
	return e.Bytes()
}

// decodeRPCMsg parses and validates the wire form.
func decodeRPCMsg(b []byte) (rpcMsg, error) {
	var m rpcMsg
	d := serial.NewDecoder(b)
	magic := d.U8()
	version := d.U8()
	m.kind = d.U8()
	m.seq = d.U64()
	m.src = d.U32()
	alen := d.Uvarint()
	if d.Err() != nil {
		return m, d.Err()
	}
	if magic != rpcMagic {
		return m, fmt.Errorf("rpc message: bad magic %#x", magic)
	}
	if version != rpcVersion {
		return m, fmt.Errorf("rpc message: unsupported version %d", version)
	}
	if m.kind == 0 || m.kind > rpcKindMax {
		return m, fmt.Errorf("rpc message: unknown kind %d", m.kind)
	}
	if m.src > 1<<31-1 {
		return m, fmt.Errorf("rpc message: sender rank %d out of range", m.src)
	}
	if m.kind == rpcFFKind && m.seq != 0 {
		return m, fmt.Errorf("rpc message: fire-and-forget carries sequence %d", m.seq)
	}
	if alen > uint64(d.Remaining()) {
		return m, fmt.Errorf("rpc message: argument length %d exceeds remaining %d bytes", alen, d.Remaining())
	}
	m.args = d.Raw(int(alen))
	rlen := d.Uvarint()
	if d.Err() != nil {
		return m, d.Err()
	}
	if rlen != uint64(d.Remaining()) {
		return m, fmt.Errorf("rpc message: remote-cx length %d does not match remaining %d bytes", rlen, d.Remaining())
	}
	if rlen > 0 && m.kind == rpcReplyKind {
		return m, fmt.Errorf("rpc message: reply carries a remote-cx payload")
	}
	m.rem = d.Raw(int(rlen))
	if err := d.Finish(); err != nil {
		return m, err
	}
	return m, nil
}

// handleRPC is the single conduit AM handler for all RPC traffic. Requests
// and fire-and-forget bodies execute at the target during user-level
// progress, on the rank's execution persona (execBody); a request's
// embedded remote-cx landing event fires first — it signals the message's
// arrival, not the body's execution, and may be persona-addressed.
// Replies complete the initiator's pending operation: the continuation
// routes the result to the initiating persona's LPC queue and fires the
// operation's completion plan, no matter which goroutine's progress
// harvested the reply.
func (w *World) handleRPC(ep *gasnet.Endpoint, src gasnet.Rank, payload []byte, aux any) {
	trk := w.ranks[ep.Rank()]
	m, err := decodeRPCMsg(payload)
	if err != nil {
		panic(fmt.Sprintf("upcxx: rank %d malformed RPC message from %d: %v", trk.me, src, err))
	}
	switch m.kind {
	case rpcReqKind, rpcFFKind:
		a := aux.(rpcAux)
		if len(m.rem) > 0 {
			initiator, args, derr := decodeRemoteCx(m.rem)
			if derr != nil {
				panic(fmt.Sprintf("upcxx: rank %d corrupt RPC remote-cx payload from %d: %v", trk.me, src, derr))
			}
			trk.runRemoteBody(a.rem, initiator, args)
		}
		if m.kind == rpcReqKind {
			trk.execBodyOn(a.bodyPers, func() { a.inv(trk, Intrank(src), m.seq, m.args) })
		} else {
			trk.execBodyOn(a.bodyPers, func() { a.ffInv(trk, Intrank(src), m.args) })
		}
	case rpcReplyKind:
		trk.rpcMu.Lock()
		cont, ok := trk.rpcPending[m.seq]
		delete(trk.rpcPending, m.seq)
		trk.rpcMu.Unlock()
		if !ok {
			panic(fmt.Sprintf("upcxx: rank %d received RPC reply for unknown sequence %d", trk.me, m.seq))
		}
		cont(m.args)
	}
}

// --- lowering ------------------------------------------------------------

// rpcOpFor lowers one RPC wire message to an injectable operation,
// claiming the plan's remote-cx notification (if any) so it travels
// embedded in this message instead of as a separate AM: the target fires
// it at landing, exactly like the conduit does for put/copy hop chains.
func rpcOpFor(rk *Rank, target Intrank, kind uint8, seq uint64, argBytes []byte, aux rpcAux, plan *cxPlan) rmaOp {
	var rem []byte
	if am := plan.takeConduitAM(); am != nil {
		rem = am.Payload
		aux.rem = am.Aux.(remoteCxAux)
	}
	opK := opAM // one-way: the operation edge fires at injection
	if kind == rpcReqKind {
		opK = opRPC // the reply continuation fires the operation edge
	}
	return rmaOp{
		kind:    opK,
		dstPeer: target,
		amID:    rk.w.amRPC,
		buf:     encodeRPCMsg(rpcMsg{kind: kind, seq: seq, src: uint32(rk.me), args: argBytes, rem: rem}),
		amAux:   aux,
	}
}

// rpcRoundTrip is the one generic core entry every round-trip RPC variant
// wraps: pre-serialized argument bytes, a body invoker riding as a code
// reference, and the full completion-descriptor set. The request lowers
// through Rank.inject; the value future (and any operation-cx deliveries)
// fire when the reply lands, source-cx when the conduit has captured the
// argument bytes, and a remote-cx as_rpc descriptor at the target when the
// request arrives. The calling goroutine's current persona owns the
// returned value future regardless of which goroutine's progress observes
// the reply; completion descriptors may address other personas.
func rpcRoundTrip[R any](rk *Rank, target Intrank, argBytes []byte, inv rpcInvoker, name string, cxs []Cx) (Future[R], CxFutures) {
	bodyPers, cxs := splitBodyPersona(target, cxs)
	plan := &cxPlan{rk: rk, remotePeer: target}
	for _, cx := range cxs {
		plan.add(opRPC, cx)
	}
	p := NewPromise[R](rk)
	pers := p.c.pers // the current persona, resolved once by NewPromise
	rk.rpcMu.Lock()
	seq := rk.rpcSeq
	rk.rpcSeq++
	rk.rpcPending[seq] = func(res []byte) {
		pers.LPC(func() {
			var r R
			mustUnmarshal(res, &r)
			p.fulfillOwnedResult(r)
		})
		// Completion deliveries enqueue before actCount drops: a quiescing
		// owner must never observe actQ empty while a completion is
		// unqueued.
		plan.opDone()
		rk.actCount.Add(-1)
	}
	rk.rpcMu.Unlock()
	rk.inject([]rmaOp{rpcOpFor(rk, target, rpcReqKind, seq, argBytes, rpcAux{inv: inv, bodyPers: bodyPers, invName: name}, plan)}, plan)
	return p.Future(), plan.futs
}

// rpcOneWay is the generic fire-and-forget core entry: operation
// completion fires once the conduit has accepted the message (there is no
// acknowledgment to wait for), source completion when the argument bytes
// are captured, and a remote-cx as_rpc descriptor at the target on
// landing.
func rpcOneWay(rk *Rank, target Intrank, argBytes []byte, inv rpcFFInvoker, name string, cxs []Cx) CxFutures {
	bodyPers, cxs := splitBodyPersona(target, cxs)
	plan := &cxPlan{rk: rk, remotePeer: target}
	for _, cx := range cxs {
		plan.add(opRPC, cx)
	}
	rk.inject([]rmaOp{rpcOpFor(rk, target, rpcFFKind, 0, argBytes, rpcAux{ffInv: inv, bodyPers: bodyPers, invName: name}, plan)}, plan)
	return plan.futs
}

// replyTo ships an RPC result back to the initiator through the same
// injection path as every other operation (defQ → conduit), mirroring
// Fig 2's return flow through the target's queues.
func (rk *Rank) replyTo(dst Intrank, seq uint64, result []byte) {
	op := rmaOp{
		kind:    opAM,
		dstPeer: dst,
		amID:    rk.w.amRPC,
		buf:     encodeRPCMsg(rpcMsg{kind: rpcReplyKind, seq: seq, src: uint32(rk.me), args: result}),
	}
	rk.inject([]rmaOp{op}, &cxPlan{rk: rk, remotePeer: dst})
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
// target's execution persona.
func RPCWith[A, R any](rk *Rank, target Intrank, fn func(*Rank, A) R, arg A, cxs ...Cx) (Future[R], CxFutures) {
	inv := rpcInvoker(func(trk *Rank, src Intrank, seq uint64, args []byte) {
		var a A
		mustUnmarshal(args, &a)
		trk.replyTo(src, seq, mustMarshal(fn(trk, a)))
	})
	return rpcRoundTrip[R](rk, target, mustMarshal(arg), inv, rk.wireName(fn), cxs)
}

// RPCFutWith is RPCWith for a future-returning fn: the reply is deferred
// until the body's future readies — the deferred-reply form upcxx RPCs
// use when the callee must itself wait on asynchronous work.
func RPCFutWith[A, R any](rk *Rank, target Intrank, fn func(*Rank, A) Future[R], arg A, cxs ...Cx) (Future[R], CxFutures) {
	inv := rpcInvoker(func(trk *Rank, src Intrank, seq uint64, args []byte) {
		var a A
		mustUnmarshal(args, &a)
		inner := fn(trk, a)
		reply := func() {
			inner.c.onReady(func(r R) {
				trk.replyTo(src, seq, mustMarshal(r))
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
	})
	return rpcRoundTrip[R](rk, target, mustMarshal(arg), inv, rk.wireName(fn), cxs)
}

// RPCFFWith invokes fn(arg) on the target rank with no acknowledgment or
// result (upcxx rpc_ff) and an explicit completion set: operation
// completion fires when the conduit accepts the message, source completion
// when the argument buffer may be reused, and a RemoteCxAsRPC descriptor
// at the target on landing.
func RPCFFWith[A any](rk *Rank, target Intrank, fn func(*Rank, A), arg A, cxs ...Cx) CxFutures {
	inv := rpcFFInvoker(func(trk *Rank, src Intrank, args []byte) {
		var a A
		mustUnmarshal(args, &a)
		fn(trk, a)
	})
	return rpcOneWay(rk, target, mustMarshal(arg), inv, rk.wireName(fn), cxs)
}

// RPC invokes fn(arg) on the target rank and returns a future for its
// result.
func RPC[A, R any](rk *Rank, target Intrank, fn func(*Rank, A) R, arg A) Future[R] {
	f, _ := RPCWith(rk, target, fn, arg)
	return f
}

// RPC0 invokes a no-argument fn on the target rank.
func RPC0[R any](rk *Rank, target Intrank, fn func(*Rank) R) Future[R] {
	inv := rpcInvoker(func(trk *Rank, src Intrank, seq uint64, _ []byte) {
		trk.replyTo(src, seq, mustMarshal(fn(trk)))
	})
	f, _ := rpcRoundTrip[R](rk, target, nil, inv, "", nil)
	return f
}

// RPC2 invokes a two-argument fn on the target rank.
func RPC2[A, B, R any](rk *Rank, target Intrank, fn func(*Rank, A, B) R, a A, b B) Future[R] {
	argBytes := mustMarshal(a)
	argBytes = append(argBytes, mustMarshal(b)...)
	inv := rpcInvoker(func(trk *Rank, src Intrank, seq uint64, args []byte) {
		var av A
		var bv B
		n, err := serial.DecodeInto(args, &av)
		if err != nil {
			panic(fmt.Sprintf("upcxx: RPC2 first argument decode: %v", err))
		}
		mustUnmarshal(args[n:], &bv)
		trk.replyTo(src, seq, mustMarshal(fn(trk, av, bv)))
	})
	f, _ := rpcRoundTrip[R](rk, target, argBytes, inv, rk.wireName(fn), nil)
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

// RPCFF0 is RPCFF with no argument.
func RPCFF0(rk *Rank, target Intrank, fn func(*Rank)) {
	inv := rpcFFInvoker(func(trk *Rank, src Intrank, _ []byte) { fn(trk) })
	rpcOneWay(rk, target, nil, inv, "", nil)
}

// RPCFF2 is RPCFF with two arguments.
func RPCFF2[A, B any](rk *Rank, target Intrank, fn func(*Rank, A, B), a A, b B) {
	argBytes := mustMarshal(a)
	argBytes = append(argBytes, mustMarshal(b)...)
	inv := rpcFFInvoker(func(trk *Rank, src Intrank, args []byte) {
		var av A
		var bv B
		n, err := serial.DecodeInto(args, &av)
		if err != nil {
			panic(fmt.Sprintf("upcxx: RPCFF2 first argument decode: %v", err))
		}
		mustUnmarshal(args[n:], &bv)
		fn(trk, av, bv)
	})
	rpcOneWay(rk, target, argBytes, inv, "", nil)
}
