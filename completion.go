package upcxx

import (
	"fmt"

	"upcxx/internal/gasnet"
	"upcxx/internal/obs"
	"upcxx/internal/serial"
)

// Completion objects (paper §III; UPC++ v1.0 spec §7): every communication
// operation exposes up to three events, each of which the initiator may
// request through a completion descriptor —
//
//   - operation completion (obs.EvOp): the whole operation is finished; for a
//     put, the data is globally visible at the target.
//   - source completion (obs.EvSource): the initiator-side source buffer may
//     be reused. Puts only — a copy's source is a global pointer read when
//     the hop chain reaches it, not an initiator-local buffer. This conduit
//     captures put source buffers eagerly, so the event fires as soon as
//     the operation has been handed to the conduit.
//   - remote completion (obs.EvRemote): the data is visible in the
//     destination segment, observed *at the destination*. Deliverable
//     target-side as an RPC (the signaling put) and initiator-side as a
//     future/promise/LPC keyed off the conduit ack, which this conduit only
//     returns after remote visibility — including the destination DMA hop
//     for device-kind memory.
//
// Each requested event is delivered as a future (…AsFuture), into a
// caller-supplied promise (…AsPromise), as an LPC onto a chosen persona
// (…AsLPC), or — for the remote event only — as an RPC executed at the
// target after the data lands (RemoteCxAsRPC). Descriptors compose: pass
// any set of them to the …With entry points (RPutWith, RGetWith, CopyWith,
// the vector/indexed/strided variants, the collective …With calls, and
// RPCWith/RPCFFWith), which all feed the single internal injection path,
// Rank.inject, whose record carries the plan until it fires.
//
// Deliveries are persona-addressed (paper §II: personas are the unit of
// completion affinity). By default every initiator-side event lands on
// the persona that would naturally own it — futures and promises on the
// initiating persona, target-side RPCs on the target's execution persona.
// The On combinator redirects any delivery to a *named* persona instead:
// a future created by OpCxAsFuture().On(p) is owned by p and only consumable from the goroutine holding p; an LPC
// runs in p's queue; a RemoteCxAsRPC body lands on a named persona of
// the *target* rank — the signaling-put notification a worker persona
// harvests directly in progress-thread mode.

// CxEvent identifies one of the three completion events of an operation:
// obs.EvOp (upcxx operation_cx), obs.EvSource (source_cx) and obs.EvRemote
// (remote_cx). A descriptor delivers its event by an obs.CxVia (future,
// promise, LPC or RPC), and the completion matrix counts it under the pair.
type CxEvent = obs.CxEvent

// cxBody marks the RPCBodyOn pseudo-descriptor: not a completion event at
// all, but the execution-persona address of an RPC *body*. rpcSend peels
// it off (splitBodyPersona) before completion-plan resolution;
// cxPlan.add rejects it on every other operation.
const cxBody obs.CxVia = 0xFF

// Cx is one completion descriptor: an event paired with a delivery
// method. Construct them with the OpCx…/SourceCx…/RemoteCx… functions and
// pass any combination to a …With communication entry point. A Cx is a
// value; it may be built ahead of the call, but a descriptor carrying a
// promise or RPC payload should be passed to exactly one operation.
type Cx struct {
	ev  CxEvent
	via obs.CxVia

	prom *Promise[Unit] // ViaPromise
	pers *Persona       // delivery persona (nil: the descriptor's default)
	fn   func()         // ViaLPC body

	rpcArgs []byte  // ViaRPC serialized arguments
	rpcBody rpcBody // ViaRPC body (code reference)
}

// On returns a copy of the descriptor addressed to persona p instead of
// its default delivery persona. For futures, the produced future is owned
// by p (created as if by NewPromiseOn) and must only be consumed from the
// goroutine holding p; for promises, p must be the persona that owns the
// promise (create it with NewPromiseOn); for LPCs, fn runs in p's queue;
// for RemoteCxAsRPC, p names a persona of the *target* rank and the body
// is delivered to its LPC queue instead of the target's execution
// persona. The persona pointer travels as a code reference, like RPC
// function values — valid everywhere because SPMD ranks share one
// process.
func (cx Cx) On(p *Persona) Cx {
	if p == nil {
		panic("upcxx: Cx.On(nil persona)")
	}
	cx.pers = p
	return cx
}

// RPCBodyOn names the target-rank persona an RPC *body* executes on,
// overriding the default routing to the target's execution persona (the
// progress persona in progress-thread mode, the master persona otherwise).
// Valid only where RPCs are sent — RPCWith, RPCFutWith, RPCFFWith, and
// Batch.Flush, where it addresses every body of the message; any other
// operation rejects it. Unlike the completion descriptors it rides
// alongside, it names no event — it addresses the request's execution
// itself, letting an initiator deliver work straight into a worker
// persona's LPC queue with no target-side re-dispatch. The persona pointer
// travels as a code reference, like RPC function values; no wire field is
// added. p must belong to the target rank, validated at injection.
func RPCBodyOn(p *Persona) Cx {
	if p == nil {
		panic("upcxx: RPCBodyOn(nil persona)")
	}
	return Cx{via: cxBody, pers: p}
}

// OpCxAsFuture requests operation completion as a future, returned in
// CxFutures.Op — the default completion of every operation.
func OpCxAsFuture() Cx { return Cx{ev: obs.EvOp, via: obs.ViaFuture} }

// OpCxAsPromise registers operation completion as one anonymous
// dependency on p, discharged when the operation completes — the paper's
// flood-bandwidth idiom (§IV-B).
func OpCxAsPromise(p *Promise[Unit]) Cx { return Cx{ev: obs.EvOp, via: obs.ViaPromise, prom: p} }

// OpCxAsLPC delivers operation completion by running fn as an LPC on
// persona pers (nil: the initiating goroutine's current persona).
func OpCxAsLPC(pers *Persona, fn func()) Cx {
	return Cx{ev: obs.EvOp, via: obs.ViaLPC, pers: pers, fn: fn}
}

// SourceCxAsFuture requests source completion as a future
// (CxFutures.Source). Source descriptors are valid on puts only.
func SourceCxAsFuture() Cx { return Cx{ev: obs.EvSource, via: obs.ViaFuture} }

// SourceCxAsPromise registers source completion on p (puts only).
func SourceCxAsPromise(p *Promise[Unit]) Cx {
	return Cx{ev: obs.EvSource, via: obs.ViaPromise, prom: p}
}

// SourceCxAsLPC delivers source completion as an LPC on pers (puts only).
func SourceCxAsLPC(pers *Persona, fn func()) Cx {
	return Cx{ev: obs.EvSource, via: obs.ViaLPC, pers: pers, fn: fn}
}

// RemoteCxAsFuture requests remote completion as an initiator-side future
// (CxFutures.Remote): it readies once the data is known to be visible in
// the destination segment.
func RemoteCxAsFuture() Cx { return Cx{ev: obs.EvRemote, via: obs.ViaFuture} }

// RemoteCxAsPromise registers remote completion on p.
func RemoteCxAsPromise(p *Promise[Unit]) Cx {
	return Cx{ev: obs.EvRemote, via: obs.ViaPromise, prom: p}
}

// RemoteCxAsLPC delivers remote completion as an LPC on pers.
func RemoteCxAsLPC(pers *Persona, fn func()) Cx {
	return Cx{ev: obs.EvRemote, via: obs.ViaLPC, pers: pers, fn: fn}
}

// RemoteCxAsRPC attaches fn(arg) to the *remote* completion of a put,
// copy, collective, or RPC: it executes at the destination rank, on its
// execution persona (or a persona named with On), strictly after the
// transferred data is visible in the destination segment (for device
// destinations, after the final DMA hop; for RPC, at the request's
// landing). This is the signaling put: the notification piggybacks on the
// transfer itself, with no extra round trip. arg is serialized at
// descriptor construction; fn travels as a code reference, exactly like
// an RPCFF body.
func RemoteCxAsRPC[A any](fn func(*Rank, A), arg A) Cx {
	body := callOf(fn, func() rpcBody { return ffBody(fn) }).bodies[0]
	return Cx{ev: obs.EvRemote, via: obs.ViaRPC, rpcArgs: marshalWith(body.arg.(serial.Codec[A]), &arg), rpcBody: body}
}

// remoteCxAux is the code-reference half of a target-side remote-completion
// notification: the body (a fire-and-forget rpcBody) and the target-rank
// persona it is addressed to (nil: the target's execution persona). It
// travels in the RPC message's token (rpcAux.rem), never as payload bytes.
type remoteCxAux struct {
	body rpcBody
	pers *Persona
}

// landing is one such notification on its way: the token of the zero-entry
// message that carries it, and the body's argument bytes, the trailer.
type landing struct {
	tok  rpcAux
	args []byte
}

// runRemoteBody delivers one target-side remote-completion body at this
// rank: on the named persona when the descriptor was addressed with On,
// on the rank's execution persona otherwise (bodyQueue). Callers invoke it
// only after the owning transfer's data is visible locally.
func (rk *Rank) runRemoteBody(aux remoteCxAux, initiator Intrank, args []byte, own bool) {
	if rk.ro != nil {
		rk.ro.Add(obs.EvRemote.Via(obs.ViaRPC), 1)
	}
	if q := rk.bodyQueue(aux.pers); q != nil {
		q.queueBody(func() { aux.body.run(rk, initiator, 0, args, own, replyMsg{}) })
	} else {
		aux.body.run(rk, initiator, 0, args, own, replyMsg{})
	}
}

// CxFutures carries the futures produced by …AsFuture descriptors of one
// operation. Only the fields whose events were requested as futures are
// valid (Future.Valid reports which).
type CxFutures struct {
	Op     Future[Unit]
	Source Future[Unit]
	Remote Future[Unit]
}

// cxDelivery is one initiator-side completion delivery: fn runs as an LPC
// on pers, or one dependency of prom is discharged. An LPC and a
// persona-addressed future are resolved at descriptor registration; a future
// of the initiating persona and a promise are left open (pers nil) for
// settle, which gives the future a promise of its own unless the event has
// already fired. ev and via identify the delivery in the completion matrix
// for the introspection counters.
type cxDelivery struct {
	pers *Persona
	fn   func()
	prom *Promise[Unit] // obs.ViaPromise, or the future's own
	ev   CxEvent
	via  obs.CxVia
}

// cxPlan is the resolved completion set of one logical operation — the
// cxSet side of the inject(op, cxSet) pair, embedded in the operation's
// injection record (a collective's plan stands alone: its engine fires it).
// One plan may span several conduit operations (a vector put's fragments);
// events aggregate across them: source fires once every fragment's buffer is
// captured, operation and remote fire once every fragment has completed.
type cxPlan struct {
	rk   *Rank
	futs CxFutures

	op, src, rem []cxDelivery

	// The RemoteCxAsRPC notification. A put or copy carries it as a
	// zero-entry RPC message (takeConduitAM) that the conduit enqueues at the
	// destination when the *last-landing* fragment's bytes are in place — no
	// initiator-side gating round trip. An RPC embeds it in its own message
	// (rpcSend), a collective fires it member-side (collRemoteLocal), and a
	// batch with no carrier at all ships it on its own from opDone.
	landing    *landing
	remotePeer Intrank
	notice     *gasnet.RemoteAM // what a collective's copy carries instead (copyTo)

	// Observability identity of the logical operation: obsTag carries the
	// inject timestamp, kind, and (when traced) the op's trace ID; set by
	// inject (or the collectives engine) only when stats are enabled.
	// The inject→op-complete histogram records on the plan's final edge —
	// here rather than in the conduit so the edge covers multi-fragment
	// batches and the RPC round trip, whose completion fires from the
	// reply continuation, not a conduit ack.
	obsTag   obs.OpTag
	obsBytes int
}

// obsDone records the operation-complete edge (histogram + trace event)
// if the plan was armed.
func (c *cxPlan) obsDone() {
	if c.obsTag.Rec != nil {
		c.obsTag.Rec.OpDone(c.obsTag, c.obsBytes)
	}
}

// initColl resolves descriptors against one collective operation of rk into
// c, its operation deliveries appended to op; the remote-RPC descriptor fires
// at rk itself (collRemoteLocal). Nothing fires in the call: the engine fires
// the plan from finish, where a future or promise of a persona the engine's
// goroutine holds with nothing queued is readied in place, like an RPC
// result (Promise.fulfilHere), and every other delivery takes one LPC.
func (c *cxPlan) initColl(rk *Rank, cxs []Cx, op []cxDelivery) *cxPlan {
	c.rk, c.remotePeer, c.op = rk, rk.me, op
	c.resolve(obs.KindColl, cxs)
	c.settle(c.op, false)
	return c
}

// resolve registers the descriptors of one operation, whose kind it names
// for validation; none at all means operation completion as a future.
func (c *cxPlan) resolve(kind obs.OpKind, cxs []Cx) {
	if len(cxs) == 0 {
		cxs = []Cx{OpCxAsFuture()}
	}
	for i := range cxs {
		c.add(kind, &cxs[i])
	}
	// A collective plan is born here rather than through inject, so the
	// whole-operation observability edge (one Ops[KindColl] count and the
	// inject→complete latency sample recorded at finish) is armed at
	// plan construction. The lowered tree hops are counted separately as
	// KindCollRound by the collectives engine.
	if kind == obs.KindColl && c.rk.ro != nil {
		c.obsTag = c.rk.ro.OpStart(obs.KindColl, 0)
	}
}

// add validates one descriptor against the operation kind and registers
// its delivery.
func (c *cxPlan) add(kind obs.OpKind, cx *Cx) {
	if cx.via == cxBody {
		// RPCBodyOn is peeled off by rpcSend before plan resolution;
		// seeing one here means it was passed to an operation that has
		// no body to address.
		panic(fmt.Sprintf("upcxx: RPCBodyOn is valid only on RPC entry points, not a %s", kind))
	}
	switch cx.ev {
	case obs.EvSource:
		// Only puts and RPCs have an initiator-local source buffer (a
		// put's source bytes, an RPC's argument serialization). A copy's
		// source is a global pointer — possibly remote, and read by the
		// conduit only when the hop chain reaches it — so a source event
		// at injection time would license overwriting bytes still to be
		// read.
		if kind != obs.KindPut && kind != obs.KindRPC {
			panic(fmt.Sprintf("upcxx: %s completion requested on a %s, which has no local source buffer", cx.ev, kind))
		}
	case obs.EvRemote:
		if kind == obs.KindGet || kind == obs.KindAtomic {
			panic(fmt.Sprintf("upcxx: %s completion requested on a %s, which has no remote-completion event", cx.ev, kind))
		}
		if kind == obs.KindColl && cx.via != obs.ViaRPC {
			// A collective's "remote" side is every member; the only
			// deliverable event is the member-side RPC fired when the
			// collective's data lands locally. An initiator-side
			// remote future/promise/LPC would need an ack wave (a
			// second barrier) to mean anything.
			panic("upcxx: remote completion on a collective is deliverable only as_rpc (fired at each member when the data lands)")
		}
		if kind == obs.KindRPC && cx.via != obs.ViaRPC {
			// An RPC's remote event is the request's landing at the
			// target. A fire-and-forget message carries no acknowledgment
			// to ride back, so initiator-side delivery would need an
			// extra wire message; the target-side as_rpc form is the one
			// landing event both RPC shapes share.
			panic("upcxx: remote completion on an rpc is deliverable only as_rpc (fired at the target when the request lands)")
		}
		if c.remotePeer < 0 {
			panic("upcxx: remote completion requires a single destination rank (vector operations with mixed destinations cannot carry one)")
		}
	}
	if cx.via == obs.ViaRPC {
		if cx.ev != obs.EvRemote {
			panic(fmt.Sprintf("upcxx: %s completion cannot be delivered as_rpc (only remote completion executes at the target)", cx.ev))
		}
		if c.landing != nil {
			panic("upcxx: at most one remote_cx as_rpc per operation (compose the work inside one function)")
		}
		if cx.pers != nil && cx.pers.rk.me != c.remotePeer {
			// For puts/copies/RPCs remotePeer is the destination rank; for
			// collectives it is this member itself (the descriptor fires
			// locally when the payload lands here).
			panic(fmt.Sprintf("upcxx: remote_cx as_rpc persona %v belongs to rank %d, but the notification fires at rank %d",
				cx.pers, cx.pers.rk.me, c.remotePeer))
		}
		c.landing = &landing{tok: rpcAux{rem: remoteCxAux{body: cx.rpcBody, pers: cx.pers}}, args: cx.rpcArgs}
		return
	}
	if cx.pers != nil && cx.pers.rk != c.rk {
		panic(fmt.Sprintf("upcxx: %s completion as_%s delivery persona %v belongs to rank %d, not initiating rank %d",
			cx.ev, cx.via, cx.pers, cx.pers.rk.me, c.rk.me))
	}
	var d cxDelivery
	switch cx.via {
	case obs.ViaFuture:
		fut := c.eventFuture(cx.ev)
		if fut.Valid() {
			panic(fmt.Sprintf("upcxx: duplicate %s completion as_future descriptor", cx.ev))
		}
		if cx.pers == nil {
			// The initiating persona's future: settle keeps the rank's ready
			// future in the slot or puts a promise's there.
			*fut = c.rk.done
			break
		}
		// Persona-addressed future: owned by the named persona, so only the
		// goroutine holding it may consume the future.
		p := NewPromiseOn[Unit](c.rk, cx.pers)
		*fut = p.Future()
		d = cxDelivery{pers: p.c.pers, fn: func() { p.FulfillResult(Unit{}) }}
	case obs.ViaPromise:
		p := cx.prom
		if p == nil {
			panic(fmt.Sprintf("upcxx: %s completion as_promise with nil promise", cx.ev))
		}
		if cx.pers != nil && cx.pers != p.c.pers {
			// Promise state is only ever touched from its owning persona;
			// rerouting the fulfillment elsewhere would race the owner.
			panic(fmt.Sprintf("upcxx: %s completion as_promise addressed to %v, but the promise is owned by %v (create it with NewPromiseOn)",
				cx.ev, cx.pers, p.c.pers))
		}
		d = cxDelivery{prom: p} // registered, or not, by settle
	case obs.ViaLPC:
		pers := cx.pers
		if pers == nil {
			pers = c.rk.currentPersona()
		}
		d = cxDelivery{pers: pers, fn: cx.fn}
	default:
		panic(fmt.Sprintf("upcxx: unknown completion delivery %d", cx.via))
	}
	d.ev, d.via = cx.ev, cx.via
	switch cx.ev {
	case obs.EvOp:
		c.op = append(c.op, d)
	case obs.EvSource:
		c.src = append(c.src, d)
	case obs.EvRemote:
		c.rem = append(c.rem, d)
	default:
		panic(fmt.Sprintf("upcxx: unknown completion event %d", cx.ev))
	}
}

// eventFuture returns the CxFutures slot of ev.
func (c *cxPlan) eventFuture(ev CxEvent) *Future[Unit] {
	switch ev {
	case obs.EvOp:
		return &c.futs.Op
	case obs.EvSource:
		return &c.futs.Source
	default:
		return &c.futs.Remote
	}
}

// takeConduitAM hands the conduit what a put or copy carries: a collective's
// notice, or the remote-RPC notification as a zero-entry RPC message. inject
// calls it once per batch and attaches it to every put/copy fragment
// (counted: the last-landing one enqueues it); later calls see nil.
func (c *cxPlan) takeConduitAM() *gasnet.RemoteAM {
	am, l := c.notice, c.landing
	c.notice, c.landing = nil, nil
	if l != nil {
		buf, _ := encodeRPCMsg[Unit](c.rk.me, nil, nil, nil, nil, nil, &l.args)
		am = &gasnet.RemoteAM{Handler: c.rk.w.amRPC, Payload: buf, Aux: &l.tok}
	}
	return am
}

// collRemoteLocal fires a collective's member-side remote-RPC
// descriptor on the calling goroutine — the rank's execution persona,
// reached from the arrival path strictly after the collective's data has
// landed locally (post-DMA for device operands) — or routes it to the
// named persona the descriptor was addressed to. Idempotent: the
// descriptor fires at most once per collective.
func (c *cxPlan) collRemoteLocal() {
	l := c.landing
	if l == nil {
		return
	}
	c.landing = nil
	if c.rk.ro != nil {
		c.rk.ro.Add(obs.EvRemote.Via(obs.ViaRPC), 1)
	}
	rem := l.tok.rem
	if rem.pers != nil {
		rem.pers.lpc(func() { rem.body.run(c.rk, c.rk.me, 0, l.args, false, replyMsg{}) })
		return
	}
	rem.body.run(c.rk, c.rk.me, 0, l.args, false, replyMsg{})
}

// settle closes the deliveries of one event that add left open. If the event
// fired inside the call, a future keeps the rank's ready future and a promise
// of a persona this goroutine holds never registers its dependency: neither
// is delivered. Otherwise a future gets a promise of the initiating persona in
// its slot, a promise registers one dependency, and deliver discharges it.
func (c *cxPlan) settle(ds []cxDelivery, fired bool) {
	for i := range ds {
		d := &ds[i]
		switch p := d.prom; {
		case d.pers != nil:
		case p != nil && fired && p.c.pers.onOwnerGoroutine():
			d.prom = nil
		case p != nil:
			p.RequireAnonymous(1)
		case !fired:
			d.prom = NewPromise[Unit](c.rk)
			*c.eventFuture(d.ev) = d.prom.Future()
		}
	}
}

// deliver routes one bucket of completions, in descriptor order, counting
// each in the completion matrix — a delivery settle closed in the call too.
// Each is one LPC to its persona's queue: the firing goroutine is whichever
// one harvested the conduit completion, and futures/promises must only be
// touched from their owning persona. With here, a promise (a future's
// included) is discharged in place when this goroutine holds its persona and
// nothing is queued there, so it overtakes no earlier delivery.
func (c *cxPlan) deliver(ds []cxDelivery, here bool) {
	for _, d := range ds {
		if c.rk.ro != nil {
			c.rk.ro.Add(d.ev.Via(d.via), 1)
		}
		switch p := d.prom; {
		case d.pers != nil:
			d.pers.lpc(d.fn)
		case p == nil: // fired in the call: nothing left to deliver
		case here && p.c.pers.quiet():
			p.FulfillAnonymous(1)
		default:
			p.c.pers.lpc(func() { p.FulfillAnonymous(1) })
		}
	}
}
