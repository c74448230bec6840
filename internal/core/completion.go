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
//   - operation completion (OpDone): the whole operation is finished; for a
//     put, the data is globally visible at the target.
//   - source completion (SourceDone): the initiator-side source buffer may
//     be reused. Puts only — a copy's source is a global pointer read when
//     the hop chain reaches it, not an initiator-local buffer. This conduit
//     captures put source buffers eagerly, so the event fires as soon as
//     the operation has been handed to the conduit.
//   - remote completion (RemoteDone): the data is visible in the
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
// Rank.inject.
//
// Deliveries are persona-addressed (paper §II: personas are the unit of
// completion affinity). By default every initiator-side event lands on
// the persona that would naturally own it — futures and promises on the
// initiating persona, target-side RPCs on the target's execution persona.
// The On combinator (and the …On constructors) redirect any delivery to
// a *named* persona instead: a future created by OpCxAsFutureOn(p) is
// owned by p and only consumable from the goroutine holding p; an LPC
// runs in p's queue; a RemoteCxAsRPC body lands on a named persona of
// the *target* rank — the signaling-put notification a worker persona
// harvests directly in progress-thread mode.

// CxEvent identifies one of the three completion events of an operation.
type CxEvent uint8

const (
	// OpDone is operation completion (upcxx operation_cx).
	OpDone CxEvent = iota
	// SourceDone is source-buffer completion (upcxx source_cx).
	SourceDone
	// RemoteDone is remote completion at the destination (upcxx remote_cx).
	RemoteDone
)

// String returns the event mnemonic.
func (ev CxEvent) String() string {
	switch ev {
	case OpDone:
		return "operation_cx"
	case SourceDone:
		return "source_cx"
	case RemoteDone:
		return "remote_cx"
	default:
		return fmt.Sprintf("cx_event(%d)", uint8(ev))
	}
}

type cxKind uint8

const (
	cxFuture cxKind = iota
	cxPromise
	cxLPC
	cxRPC
)

// cxBody marks the RPCBodyOn pseudo-descriptor: not a completion event at
// all, but the execution-persona address of an RPC *body*. rpcSend peels
// it off (splitBodyPersona) before completion-plan resolution;
// cxPlan.add rejects it on every other operation.
const cxBody cxKind = 0xFF

func (k cxKind) String() string {
	switch k {
	case cxFuture:
		return "as_future"
	case cxPromise:
		return "as_promise"
	case cxLPC:
		return "as_lpc"
	case cxRPC:
		return "as_rpc"
	case cxBody:
		return "rpc_body_on"
	default:
		return fmt.Sprintf("cx_kind(%d)", uint8(k))
	}
}

// Cx is one completion descriptor: an event paired with a delivery
// method. Construct them with the OpCx…/SourceCx…/RemoteCx… functions and
// pass any combination to a …With communication entry point. A Cx is a
// value; it may be built ahead of the call, but a descriptor carrying a
// promise or RPC payload should be passed to exactly one operation.
type Cx struct {
	ev   CxEvent
	kind cxKind

	prom *Promise[Unit] // cxPromise
	pers *Persona       // delivery persona (nil: the descriptor's default)
	fn   func()         // cxLPC body

	rpcArgs []byte  // cxRPC serialized arguments
	rpcBody rpcBody // cxRPC body (code reference)
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
	return Cx{kind: cxBody, pers: p}
}

// OpCxAsFuture requests operation completion as a future, returned in
// CxFutures.Op — the default completion of every operation.
func OpCxAsFuture() Cx { return Cx{ev: OpDone, kind: cxFuture} }

// OpCxAsPromise registers operation completion as one anonymous
// dependency on p, discharged when the operation completes — the paper's
// flood-bandwidth idiom (§IV-B).
func OpCxAsPromise(p *Promise[Unit]) Cx { return Cx{ev: OpDone, kind: cxPromise, prom: p} }

// OpCxAsLPC delivers operation completion by running fn as an LPC on
// persona pers (nil: the initiating goroutine's current persona).
func OpCxAsLPC(pers *Persona, fn func()) Cx { return Cx{ev: OpDone, kind: cxLPC, pers: pers, fn: fn} }

// OpCxAsFutureOn requests operation completion as a future owned by the
// named persona p: only the goroutine holding p may consume it. The
// persona-addressed form of OpCxAsFuture (equivalent to
// OpCxAsFuture().On(p)).
func OpCxAsFutureOn(p *Persona) Cx { return OpCxAsFuture().On(p) }

// SourceCxAsFutureOn requests source completion as a future owned by the
// named persona p (puts and RPC argument buffers only).
func SourceCxAsFutureOn(p *Persona) Cx { return SourceCxAsFuture().On(p) }

// RemoteCxAsFutureOn requests remote completion as an initiator-side
// future owned by the named persona p.
func RemoteCxAsFutureOn(p *Persona) Cx { return RemoteCxAsFuture().On(p) }

// SourceCxAsFuture requests source completion as a future
// (CxFutures.Source). Source descriptors are valid on puts only.
func SourceCxAsFuture() Cx { return Cx{ev: SourceDone, kind: cxFuture} }

// SourceCxAsPromise registers source completion on p (puts only).
func SourceCxAsPromise(p *Promise[Unit]) Cx { return Cx{ev: SourceDone, kind: cxPromise, prom: p} }

// SourceCxAsLPC delivers source completion as an LPC on pers (puts only).
func SourceCxAsLPC(pers *Persona, fn func()) Cx {
	return Cx{ev: SourceDone, kind: cxLPC, pers: pers, fn: fn}
}

// RemoteCxAsFuture requests remote completion as an initiator-side future
// (CxFutures.Remote): it readies once the data is known to be visible in
// the destination segment.
func RemoteCxAsFuture() Cx { return Cx{ev: RemoteDone, kind: cxFuture} }

// RemoteCxAsPromise registers remote completion on p.
func RemoteCxAsPromise(p *Promise[Unit]) Cx { return Cx{ev: RemoteDone, kind: cxPromise, prom: p} }

// RemoteCxAsLPC delivers remote completion as an LPC on pers.
func RemoteCxAsLPC(pers *Persona, fn func()) Cx {
	return Cx{ev: RemoteDone, kind: cxLPC, pers: pers, fn: fn}
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
	call := callOf(fn, func() rpcBody { return ffBody(fn) })
	return Cx{ev: RemoteDone, kind: cxRPC, rpcArgs: mustMarshal(arg), rpcBody: call.bodies[0]}
}

// remoteCxAux is the opaque code-reference half of a target-side
// remote-completion notification: the body (a fire-and-forget rpcBody) plus
// the target-rank persona it is addressed to (nil: the target's execution
// persona). It travels as the conduit AM's aux, never as payload bytes.
type remoteCxAux struct {
	body rpcBody
	pers *Persona
}

// runRemoteBody delivers one target-side remote-completion body at this
// rank: on the named persona when the descriptor was addressed with On,
// on the rank's execution persona otherwise (bodyQueue). Callers invoke it
// only after the owning transfer's data is visible locally.
func (rk *Rank) runRemoteBody(aux remoteCxAux, initiator Intrank, args []byte) {
	if rk.ro != nil {
		rk.ro.Completion(obs.EvRemote, obs.ViaRPC)
	}
	if q := rk.bodyQueue(aux.pers); q != nil {
		q.queueBody(func() { aux.body.run(rk, initiator, 0, args) })
	} else {
		aux.body.run(rk, initiator, 0, args)
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
// on pers, which is resolved once at descriptor registration (futures and
// promises deliver to their owning persona, explicit LPCs to the persona
// they name). ev and via identify the delivery in the completion matrix
// for the introspection counters.
type cxDelivery struct {
	pers *Persona
	fn   func()
	ev   CxEvent
	via  cxKind
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

	// Remote-RPC notification. For a single-fragment put/copy the AM is
	// handed to the conduit, which fires it at the destination when the
	// final hop lands; a multi-fragment batch to one destination shares a
	// counted AM that the conduit enqueues when the *last-landing*
	// fragment arrives (no initiator-side gating round trip). Only a
	// batch with no put/copy carrier at all falls back to shipping the
	// notification as a plain AM from opDone. Collectives fire it
	// member-side through collRemoteLocal instead.
	remoteAM   *gasnet.RemoteAM
	remotePeer Intrank

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

// newCxPlan resolves descriptors against one collective operation;
// remotePeer is the destination rank a gated remote RPC would be sent to
// (-1 when the operation has no single destination — remote descriptors
// then panic).
func newCxPlan(rk *Rank, kind opKind, remotePeer Intrank, cxs []Cx) *cxPlan {
	c := &cxPlan{rk: rk, remotePeer: remotePeer}
	c.resolve(kind, cxs)
	return c
}

// resolve registers the descriptors of one operation, whose kind it names
// for validation; none at all means operation completion as a future.
func (c *cxPlan) resolve(kind opKind, cxs []Cx) {
	if len(cxs) == 0 {
		cxs = []Cx{OpCxAsFuture()}
	}
	for _, cx := range cxs {
		c.add(kind, cx)
	}
	// A collective plan is born here rather than through inject, so the
	// whole-operation observability edge (one Ops[KindColl] count and the
	// inject→complete latency sample recorded by collOpDone) is armed at
	// plan construction. The lowered tree hops are counted separately as
	// KindCollRound by the collectives engine.
	if kind == opColl && c.rk.ro != nil {
		c.obsTag = c.rk.ro.OpStart(obs.KindColl, 0)
	}
}

// add validates one descriptor against the operation kind and registers
// its delivery.
func (c *cxPlan) add(kind opKind, cx Cx) {
	if cx.kind == cxBody {
		// RPCBodyOn is peeled off by rpcSend before plan resolution;
		// seeing one here means it was passed to an operation that has
		// no body to address.
		panic(fmt.Sprintf("upcxx: RPCBodyOn is valid only on RPC entry points, not a %s", kind))
	}
	switch cx.ev {
	case SourceDone:
		// Only puts and RPCs have an initiator-local source buffer (a
		// put's source bytes, an RPC's argument serialization). A copy's
		// source is a global pointer — possibly remote, and read by the
		// conduit only when the hop chain reaches it — so a source event
		// at injection time would license overwriting bytes still to be
		// read.
		if kind != opPut && kind != opRPC {
			panic(fmt.Sprintf("upcxx: %s requested on a %s, which has no local source buffer", cx.ev, kind))
		}
	case RemoteDone:
		if kind == opGet || kind == opAMO {
			panic(fmt.Sprintf("upcxx: %s requested on a %s, which has no remote-completion event", cx.ev, kind))
		}
		if kind == opColl && cx.kind != cxRPC {
			// A collective's "remote" side is every member; the only
			// deliverable event is the member-side RPC fired when the
			// collective's data lands locally. An initiator-side
			// remote future/promise/LPC would need an ack wave (a
			// second barrier) to mean anything.
			panic(fmt.Sprintf("upcxx: %s on a collective is deliverable only as_rpc (fired at each member when the data lands)", cx.ev))
		}
		if kind == opRPC && cx.kind != cxRPC {
			// An RPC's remote event is the request's landing at the
			// target. A fire-and-forget message carries no acknowledgment
			// to ride back, so initiator-side delivery would need an
			// extra wire message; the target-side as_rpc form is the one
			// landing event both RPC shapes share.
			panic(fmt.Sprintf("upcxx: %s on an rpc is deliverable only as_rpc (fired at the target when the request lands)", cx.ev))
		}
		if c.remotePeer < 0 {
			panic(fmt.Sprintf("upcxx: %s requires a single destination rank (vector operations with mixed destinations cannot carry one)", cx.ev))
		}
	}
	if cx.kind == cxRPC {
		if cx.ev != RemoteDone {
			panic(fmt.Sprintf("upcxx: %s cannot be delivered as_rpc (only remote_cx executes at the target)", cx.ev))
		}
		if c.remoteAM != nil {
			panic("upcxx: at most one remote_cx as_rpc per operation (compose the work inside one function)")
		}
		if cx.pers != nil && cx.pers.rk.me != c.remotePeer {
			// For puts/copies/RPCs remotePeer is the destination rank; for
			// collectives it is this member itself (the descriptor fires
			// locally when the payload lands here).
			panic(fmt.Sprintf("upcxx: remote_cx as_rpc persona %v belongs to rank %d, but the notification fires at rank %d",
				cx.pers, cx.pers.rk.me, c.remotePeer))
		}
		c.remoteAM = &gasnet.RemoteAM{
			Handler: c.rk.w.amRemote,
			Payload: encodeRemoteCx(c.rk.me, cx.rpcArgs),
			Aux:     remoteCxAux{body: cx.rpcBody, pers: cx.pers},
		}
		return
	}
	if cx.pers != nil && cx.pers.rk != c.rk {
		panic(fmt.Sprintf("upcxx: %s %s delivery persona %v belongs to rank %d, not initiating rank %d",
			cx.ev, cx.kind, cx.pers, cx.pers.rk.me, c.rk.me))
	}
	var d cxDelivery
	switch cx.kind {
	case cxFuture:
		fut := c.eventFuture(cx.ev)
		if fut.Valid() {
			panic(fmt.Sprintf("upcxx: duplicate %s as_future descriptor", cx.ev))
		}
		var p *Promise[Unit]
		if cx.pers != nil {
			// Persona-addressed future: owned by the named persona, so
			// only the goroutine holding it may consume the future.
			p = NewPromiseOn[Unit](c.rk, cx.pers)
		} else {
			p = NewPromise[Unit](c.rk)
		}
		*fut = p.Future()
		d = cxDelivery{pers: p.c.pers, fn: func() { p.fulfillOwnedResult(Unit{}) }}
	case cxPromise:
		p := cx.prom
		if p == nil {
			panic(fmt.Sprintf("upcxx: %s as_promise with nil promise", cx.ev))
		}
		if cx.pers != nil && cx.pers != p.c.pers {
			// Promise state is only ever touched from its owning persona;
			// rerouting the fulfillment elsewhere would race the owner.
			panic(fmt.Sprintf("upcxx: %s as_promise addressed to %v, but the promise is owned by %v (create it with NewPromiseOn)",
				cx.ev, cx.pers, p.c.pers))
		}
		p.RequireAnonymous(1)
		d = cxDelivery{pers: p.c.pers, fn: func() { p.fulfillAnon(1, true) }}
	case cxLPC:
		pers := cx.pers
		if pers == nil {
			pers = c.rk.currentPersona()
		}
		d = cxDelivery{pers: pers, fn: cx.fn}
	default:
		panic(fmt.Sprintf("upcxx: unknown completion delivery %d", cx.kind))
	}
	d.ev, d.via = cx.ev, cx.kind
	switch cx.ev {
	case OpDone:
		c.op = append(c.op, d)
	case SourceDone:
		c.src = append(c.src, d)
	case RemoteDone:
		c.rem = append(c.rem, d)
	default:
		panic(fmt.Sprintf("upcxx: unknown completion event %d", cx.ev))
	}
}

// eventFuture returns the CxFutures slot of ev.
func (c *cxPlan) eventFuture(ev CxEvent) *Future[Unit] {
	switch ev {
	case OpDone:
		return &c.futs.Op
	case SourceDone:
		return &c.futs.Source
	default:
		return &c.futs.Remote
	}
}

// takeConduitAM hands the remote-RPC notification to the conduit:
// inject calls it once per batch and attaches the AM to every put/copy
// fragment (counted, so the last-landing fragment enqueues it at the
// target). Subsequent calls see nil; a batch with no carrier leaves the
// AM in place for opDone's plain-AM fallback.
func (c *cxPlan) takeConduitAM() *gasnet.RemoteAM {
	am := c.remoteAM
	c.remoteAM = nil
	return am
}

// collRemoteLocal fires a collective's member-side remote-RPC
// descriptor on the calling goroutine — the rank's execution persona,
// reached from the arrival path strictly after the collective's data has
// landed locally (post-DMA for device operands) — or routes it to the
// named persona the descriptor was addressed to. Idempotent: the
// descriptor fires at most once per collective.
func (c *cxPlan) collRemoteLocal() {
	am := c.remoteAM
	if am == nil {
		return
	}
	c.remoteAM = nil
	initiator, args, err := decodeRemoteCx(am.Payload)
	if err != nil {
		panic(fmt.Sprintf("upcxx: rank %d corrupt collective remote-cx payload: %v", c.rk.me, err))
	}
	aux := am.Aux.(remoteCxAux)
	if c.rk.ro != nil {
		c.rk.ro.Completion(obs.EvRemote, obs.ViaRPC)
	}
	if aux.pers != nil {
		aux.pers.LPC(func() { aux.body.run(c.rk, initiator, 0, args) })
		return
	}
	aux.body.run(c.rk, initiator, 0, args)
}

// collOpDone delivers a collective's operation completions to their
// initiating personas (the collective analogue of the last opDone).
func (c *cxPlan) collOpDone() {
	c.obsDone()
	c.deliver(c.op)
}

// deliver routes one bucket of completions, each to its persona's LPC
// queue, counting each delivery in the completion matrix. Delivery is
// always by LPC: the firing goroutine is whichever one harvested the
// conduit completion, and futures/promises must only be touched from
// their owning persona (the fulfillOwned fast path in future.go relies
// on exactly this routing).
func (c *cxPlan) deliver(ds []cxDelivery) {
	ro := c.rk.ro
	if len(ds) == 1 {
		d := ds[0]
		if ro != nil {
			ro.Completion(obs.CxEvent(d.ev), obs.CxVia(d.via))
		}
		d.pers.LPC(d.fn)
		return
	}
	// Group runs of same-persona deliveries into LPCBatch pushes: one CAS
	// and one doorbell ring per run instead of per completion. Batched
	// operations fan many completions into one plan, so the common case
	// is one run covering the whole bucket.
	for i := 0; i < len(ds); {
		j := i + 1
		for j < len(ds) && ds[j].pers == ds[i].pers {
			j++
		}
		fns := make([]func(), 0, j-i)
		for k := i; k < j; k++ {
			if ro != nil {
				ro.Completion(obs.CxEvent(ds[k].ev), obs.CxVia(ds[k].via))
			}
			fns = append(fns, ds[k].fn)
		}
		ds[i].pers.LPCBatch(fns)
		i = j
	}
}

// --- remote-cx wire form -------------------------------------------------

// The remote-cx AM payload is self-describing:
//
//	| magic 0xC7 | version 1 | initiator u32 LE | arglen uvarint | args |
//
// The initiator rank rides in the payload (not only in the conduit
// envelope) so the notification body can learn who signaled it even when
// relayed, and the explicit arglen pins the args span. decodeRemoteCx
// rejects anything malformed — FuzzRemoteCxWire hammers it with hostile
// bytes and checks the canonical round-trip property.

const (
	remoteCxMagic   = 0xC7
	remoteCxVersion = 1
)

// encodeRemoteCx builds the remote-cx AM payload.
func encodeRemoteCx(initiator Intrank, args []byte) []byte {
	e := serial.NewEncoder(make([]byte, 0, 16+len(args)))
	e.PutU8(remoteCxMagic)
	e.PutU8(remoteCxVersion)
	e.PutU32(uint32(initiator))
	e.PutUvarint(uint64(len(args)))
	e.PutRaw(args)
	return e.Bytes()
}

// decodeRemoteCx parses and validates a remote-cx AM payload.
func decodeRemoteCx(b []byte) (initiator Intrank, args []byte, err error) {
	const format = "remote-cx AM"
	d := serial.NewDecoder(b)
	if err := d.Header(format, remoteCxMagic, remoteCxVersion); err != nil {
		return 0, nil, err
	}
	init := d.U32()
	if args, err = d.Tail(format); err != nil {
		return 0, nil, err
	}
	if init > 1<<31-1 {
		return 0, nil, fmt.Errorf("%s: initiator rank %d out of range", format, init)
	}
	return Intrank(init), args, nil
}

// handleRemoteCx is the conduit AM handler for remote-completion RPCs. It
// runs at the destination of a put/copy; the conduit enqueues it only
// after the transferred bytes are in place, so the body observes them.
// Like every incoming RPC, the body executes on the rank's durable
// execution persona — or on the named persona the descriptor was
// addressed to with On. A notification this rank cannot act on fails the
// sending peer, like handleRPC.
func (w *World) handleRemoteCx(ep *gasnet.Endpoint, src gasnet.Rank, payload []byte, aux any) {
	trk := w.ranks[ep.Rank()]
	initiator, args, err := decodeRemoteCx(payload)
	a, ok := aux.(remoteCxAux)
	if err == nil && !ok {
		err = fmt.Errorf("remote-cx AM without a body token (%T)", aux)
	}
	if err != nil {
		trk.failPeer(Intrank(src), err)
		return
	}
	trk.runRemoteBody(a, initiator, args)
}
