package upcxx

import (
	"fmt"
	"sync"
	"sync/atomic"

	"upcxx/internal/gasnet"
	"upcxx/internal/obs"
	"upcxx/internal/serial"
)

// One-sided Remote Memory Access. All operations are non-blocking and
// asynchronous by default (paper principle #1); each returns a Future, and
// the …With variants accept arbitrary completion-descriptor sets (see
// completion.go) — operation, source, and remote events delivered as
// futures, promises, LPCs, or target-side RPCs. Source buffers are
// captured before the operation is in flight; destination buffers of gets
// must not be touched until the operation completes.
//
// Every entry point — RPut/RGet/CopyGG, the vector/indexed/strided
// variants, and the remote atomics in atomic.go — lowers its arguments to
// one or more rmaOp descriptors and hands them to Rank.inject, the single
// injection path. There is exactly one place where a conduit operation is
// born and exactly one shape of completion routing.

// rmaOp is one conduit operation in lowered, byte-addressed form. Puts
// fill the dst side and buf (source bytes); gets fill the src side and
// buf (destination bytes); copies fill both sides and nbytes; atomics
// fill the dst side plus the amo fields.
//
// kind is the operation class, in obs's vocabulary. KindAM is a
// fire-and-forget RPC message, handed to the conduit synchronously, so its
// operation edge fires at injection; KindRPC is a round-trip request, an AM
// whose operation edge the initiator's reply continuation fires (rpcLand).
// KindColl only names a whole collective for completion-descriptor
// validation: its rounds lower to one-way messages (sendAM) and KindCopy
// operations. A record exists to fire a plan, so an RPC message lowers to
// an rmaOp only when its call names a descriptor: replies, collective hops
// and RPC messages with none skip the injection record (rpcSend).
type rmaOp struct {
	kind obs.OpKind

	srcPeer Intrank
	srcSeg  gasnet.SegID
	srcOff  uint64

	dstPeer Intrank
	dstSeg  gasnet.SegID
	dstOff  uint64

	buf    []byte
	nbytes int

	amo        gasnet.AMOOp
	amoA, amoB uint64

	amAux any // KindAM/KindRPC: the RPC message's token; buf carries the message

	// bufs is the scatter-gather alternative to buf for KindAM/KindRPC: the
	// payload travels as an iovec of fragments that the conduit flattens
	// at its capture stage. Until capture, fragment bytes alias caller
	// memory — the zero-copy window that makes source-cx meaningful for
	// serialized argument views.
	bufs [][]byte
}

// obsBytes returns the payload bytes the op moves, for the introspection
// counters and size-class histograms.
func (op *rmaOp) obsBytes() int {
	switch op.kind {
	case obs.KindCopy:
		return op.nbytes
	case obs.KindAtomic:
		return 8
	default:
		return msgBytes(op.buf, op.bufs)
	}
}

// injection is one logical operation on its way from the entry point to the
// conduit, as a single pooled record: its lowered operations, the plan they
// share, and the conduit's callbacks for them, bound once per record. Whoever
// discharges the last outstanding operation (opDone) routes the plan's final
// deliveries and releases the record; a released record is poisoned, so a
// stray callback panics instead of completing another operation (DESIGN §2).
type injection struct {
	cxPlan
	ops []rmaOp
	one [1]rmaOp // backs ops for a single operation

	// nops counts the conduit operations outstanding, plus the sentinel
	// inject holds until it has settled the plan; negative once released.
	nops atomic.Int64
	// replies counts the round-trip entries of an RPC request message still
	// awaiting their results; the last one fires the operation edge
	// (rpcLand). Guarded by the initiating rank's rpcMu.
	replies int
	// amo is the cell of an atomic that did not fire inside inject: the
	// result callback leaves the word in one[0].amoA, opDone copies it here.
	amo *futCore[uint64]

	landed  func()           // inj.opLanded
	fetched func(old uint64) // inj.amoFetched
}

var injections sync.Pool

// newInjection takes a record for an operation rk initiates; remotePeer is
// the destination rank of a remote-completion notification (see cxPlan).
func (rk *Rank) newInjection(remotePeer Intrank) *injection {
	inj, _ := injections.Get().(*injection)
	if inj == nil {
		inj = new(injection)
		inj.landed, inj.fetched = inj.opLanded, inj.amoFetched
	}
	inj.rk, inj.remotePeer = rk, remotePeer
	return inj
}

// single makes the record's inline operation its one operation and returns
// it, zeroed, for the entry point to lower its arguments into in place.
func (inj *injection) single() *rmaOp {
	inj.ops = inj.one[:1]
	return &inj.one[0]
}

// release poisons the record — plan zeroed field by field but for the
// delivery lists' cleared backing arrays, nops negative — and returns it to
// the pool.
func (inj *injection) release() {
	clear(inj.op)
	clear(inj.src)
	clear(inj.rem)
	c := &inj.cxPlan
	c.rk, c.futs, c.landing, c.notice, c.remotePeer = nil, CxFutures{}, nil, nil, 0
	c.op, c.src, c.rem = c.op[:0], c.src[:0], c.rem[:0]
	c.obsTag, c.obsBytes = obs.OpTag{}, 0
	inj.one[0], inj.ops, inj.replies, inj.amo = rmaOp{}, nil, 0, nil
	inj.nops.Store(-1)
	injections.Put(inj)
}

// inject hands the record's operations to the conduit under its plan — the
// inject(op, cxSet) path of every RMA, copy, atomic, AM and RPC entry point —
// on the calling goroutine (see run), polls completions while one is still
// outstanding, settles the plan and returns its futures. One goroutine's
// operations therefore reach the conduit in the order they were issued.
// Holding the sentinel, inject alone can tell an event that fired inside the
// call (settled here, cxPlan.settle) from one a later opDone delivers by LPC,
// whichever goroutine harvests it. The record is not the caller's any more
// once inject returns. An atomic's fetched word goes to word: inline when the
// atomic fired in the call, else a cell the record fills (opDone).
func (rk *Rank) inject(inj *injection, word *Future[uint64]) CxFutures {
	inj.nops.Store(int64(len(inj.ops)) + 1)
	inj.run()
	if inj.nops.Load() > 1 {
		rk.InternalProgress()
	}
	// Every operation completed: only the sentinel is left. A round-trip RPC's
	// operation edge stays an LPC: it must not ready before its value's LPC.
	fired := inj.nops.Load() == 1 && (len(inj.ops) == 0 || inj.ops[0].kind != obs.KindRPC)
	if len(inj.src)+len(inj.op)+len(inj.rem) > 0 {
		// Source completion: the conduit captures a put's or an RPC's source
		// bytes before the call returns (copies reject source descriptors).
		inj.settle(inj.src, true)
		inj.deliver(inj.src, false)
		inj.settle(inj.op, fired)
		inj.settle(inj.rem, fired)
	} else if word != nil { // an atomic: no descriptors, its word as the future
		d := cxDelivery{} // op-cx as a future, in the completion matrix
		if fired {
			*word = ReadyFuture(rk, inj.one[0].amoA)
		} else {
			c := newFutCore[uint64](rk)
			inj.amo, *word = c, Future[uint64]{c: &c.cell}
			d.pers, d.fn = c.pers, func() { c.fulfill(c.val) }
		}
		inj.op = append(inj.op, d)
	}
	futs := inj.futs
	inj.opDone() // the sentinel: with every operation completed, this fires the plan
	return futs
}

// run injects the batch: every operation goes to the conduit, and one the
// conduit reports finished in its call (now) is discharged here, as a
// one-way message always is. Operation and remote completions aggregate
// across the batch (see cxPlan); an empty batch completes when inject drops
// the sentinel.
func (inj *injection) run() {
	rk, ops := inj.rk, inj.ops
	// Remote-RPC notification: with one put/copy fragment its message rides
	// that fragment's hop chain; with several (all to one destination,
	// validated at plan construction) the same message is attached to every
	// fragment, counted, and the conduit enqueues it at the target when
	// the *last-landing* fragment arrives — destination-side timing,
	// no initiator gating round trip. A batch with no carrier leaves
	// it for the sentinel opDone to ship on its own.
	var rem *gasnet.RemoteAM
	if n := remoteCarriers(ops); n > 0 {
		rem = inj.takeConduitAM()
		if rem != nil && n > 1 {
			rem.SetFragments(n)
		}
	}
	ro := rk.ro
	var planBytes int
	for i := range ops {
		op := &ops[i]
		rk.actCount.Add(1)
		// Observability: count the op at the injection point and build
		// the tag its hop chain carries. The first fragment's tag also
		// becomes the plan's identity, so the inject→complete histogram
		// and the Delivered trace event fire on the plan's final edge.
		var tag obs.OpTag
		if ro != nil {
			b := op.obsBytes()
			tag = ro.OpStart(op.kind, b)
			planBytes += b
			if i == 0 {
				inj.obsTag = tag
			}
		}
		now := false
		switch op.kind {
		case obs.KindPut:
			now = rk.ep.PutSegTag(op.dstPeer, op.dstSeg, op.dstOff, op.buf, inj.landed, rem, tag)
		case obs.KindGet:
			now = rk.ep.GetSegTag(op.srcPeer, op.srcSeg, op.srcOff, op.buf, inj.landed, tag)
		case obs.KindCopy:
			now = rk.ep.CopySegTag(op.srcPeer, op.srcSeg, op.srcOff,
				op.dstPeer, op.dstSeg, op.dstOff, op.nbytes, inj.landed, rem, tag)
		case obs.KindAtomic:
			if old, done := rk.ep.AMOTag(op.dstPeer, op.dstOff, op.amo, op.amoA, op.amoB, inj.fetched, tag); done {
				inj.amoFetched(old)
			}
		case obs.KindAM, obs.KindRPC:
			// The conduit takes over the runtime's own message buffer and
			// captures borrowed fragments before the call returns: source
			// completion can fire at injection.
			rk.ep.AMTag(op.dstPeer, rk.w.amRPC, op.buf, op.bufs, op.amAux, tag)
			// A one-way message's operation edge fires here; a round-trip
			// request's when its last reply lands (rpcLand).
			now = op.kind == obs.KindAM
		default:
			panic(fmt.Sprintf("upcxx: inject of unknown op kind %d", op.kind))
		}
		if now {
			inj.opLanded()
		}
	}
	if ro != nil && len(ops) > 0 {
		inj.obsBytes = planBytes
	}
}

// opLanded is the conduit's completion callback for one operation. LPC
// deliveries precede the actCount decrement: a quiescing owner must never
// observe actQ empty while a completion is unqueued.
func (inj *injection) opLanded() {
	rk := inj.rk // opDone may release the record
	inj.opDone()
	rk.actCount.Add(-1)
}

// amoFetched is the conduit's result callback for the record's atomic: the
// previous value goes into its operation, read after the nops decrement.
func (inj *injection) amoFetched(old uint64) {
	inj.one[0].amoA = old
	inj.opLanded()
}

// opDone notes one operation's completion; the last one fires operation
// and remote completions and releases the record. Conduit acks imply
// remote visibility in this conduit, so initiator-side remote deliveries
// ride the same edge. A remote RPC still held here belongs to a batch with
// no put/copy carrier; it ships now as a zero-entry RPC message.
func (inj *injection) opDone() {
	if n := inj.nops.Add(-1); n > 0 {
		return
	} else if n < 0 {
		panic("upcxx: a completion reached a released injection record")
	}
	if am := inj.takeConduitAM(); am != nil {
		inj.rk.ep.AMTag(inj.remotePeer, am.Handler, am.Payload, nil, am.Aux, inj.obsTag)
	}
	if c := inj.amo; c != nil {
		c.val = inj.one[0].amoA
	}
	inj.obsDone()
	inj.deliver(inj.rem, false)
	inj.deliver(inj.op, false)
	inj.release()
}

// remoteCarriers counts the operations of a batch whose hop chains can
// carry a remote-completion AM to the destination.
func remoteCarriers(ops []rmaOp) int {
	n := 0
	for i := range ops {
		if ops[i].kind == obs.KindPut || ops[i].kind == obs.KindCopy {
			n++
		}
	}
	return n
}

// injectCx resolves cxs into inj's plan, injects it, and returns the
// requested futures.
func (rk *Rank) injectCx(inj *injection, kind obs.OpKind, cxs []Cx) CxFutures {
	inj.resolve(kind, cxs)
	return rk.inject(inj, nil)
}

// injectBatch is injectCx for a vector operation's fragments.
func (rk *Rank) injectBatch(ops []rmaOp, kind obs.OpKind, remotePeer Intrank, cxs []Cx) CxFutures {
	inj := rk.newInjection(remotePeer)
	inj.ops = ops
	return rk.injectCx(inj, kind, cxs)
}

// lowerPut lowers one put fragment into op, a zeroed rmaOp.
func lowerPut[T serial.Scalar](op *rmaOp, src []T, dst GPtr[T], opName string) {
	if dst.IsNil() {
		panic("upcxx: " + opName + " to nil GPtr")
	}
	op.kind, op.dstPeer, op.dstSeg, op.dstOff, op.buf = obs.KindPut, dst.Owner, dst.segID(opName), dst.Off, serial.AsBytes(src)
}

// lowerGet lowers one get fragment into op, a zeroed rmaOp.
func lowerGet[T serial.Scalar](op *rmaOp, src GPtr[T], dst []T, opName string) {
	if src.IsNil() {
		panic("upcxx: " + opName + " from nil GPtr")
	}
	op.kind, op.srcPeer, op.srcSeg, op.srcOff, op.buf = obs.KindGet, src.Owner, src.segID(opName), src.Off, serial.AsBytes(dst)
}

// RPutWith copies src into the remote memory at dst with an explicit
// completion set; with no descriptors it defaults to operation completion
// as a future. dst may be of any memory kind; device destinations route
// through the target's DMA engine, and a RemoteCxAsRPC notification fires
// at dst.Owner only after that DMA hop lands.
func RPutWith[T serial.Scalar](rk *Rank, src []T, dst GPtr[T], cxs ...Cx) CxFutures {
	inj := rk.newInjection(dst.Owner)
	lowerPut(inj.single(), src, dst, "RPut")
	return rk.injectCx(inj, obs.KindPut, cxs)
}

// RPut copies src into the remote memory at dst, returning a future that
// readies at operation completion (data globally visible at the target).
func RPut[T serial.Scalar](rk *Rank, src []T, dst GPtr[T]) Future[Unit] {
	return RPutWith(rk, src, dst).Op
}

// RPutPromise is RPut with promise-based completion
// (operation_cx::as_promise) — the paper's flood-bandwidth idiom.
func RPutPromise[T serial.Scalar](rk *Rank, src []T, dst GPtr[T], p *Promise[Unit]) {
	RPutWith(rk, src, dst, OpCxAsPromise(p))
}

// RGetWith copies from the remote memory at src into the local buffer dst
// with an explicit completion set. Gets expose only operation completion
// (there is no reusable source buffer and no destination-side event).
func RGetWith[T serial.Scalar](rk *Rank, src GPtr[T], dst []T, cxs ...Cx) CxFutures {
	inj := rk.newInjection(-1)
	lowerGet(inj.single(), src, dst, "RGet")
	return rk.injectCx(inj, obs.KindGet, cxs)
}

// RGet copies from the remote memory at src into the local buffer dst,
// returning a future that readies once dst holds the data. dst may be
// ordinary private memory. Device-kind sources drain through the owning
// rank's DMA engine before crossing the wire.
func RGet[T serial.Scalar](rk *Rank, src GPtr[T], dst []T) Future[Unit] {
	return RGetWith(rk, src, dst).Op
}

// GetValue fetches a single value from remote memory.
func GetValue[T serial.Scalar](rk *Rank, src GPtr[T]) Future[T] {
	buf := make([]T, 1)
	if f := RGet(rk, src, buf); !f.Ready() {
		return Then(f, func(Unit) T { return buf[0] })
	}
	return ReadyFuture(rk, buf[0])
}

// CopyWith copies n elements from one global location to another with an
// explicit completion set — upcxx::copy over any pair of memory kinds.
// The conduit executes the whole transfer as one operation: source-side
// DMA when the source is device memory, a wire hop when the ranks differ,
// destination-side DMA when the destination is device memory (same-rank
// device→device copies collapse to a single on-node DMA). The initiator
// may be a third party to both sides; initiator-side completions land on
// its chosen personas, and a RemoteCxAsRPC notification executes at
// dst.Owner once the destination bytes are in place.
func CopyWith[T serial.Scalar](rk *Rank, src GPtr[T], dst GPtr[T], n int, cxs ...Cx) CxFutures {
	if src.IsNil() {
		panic("upcxx: CopyGG from nil GPtr")
	}
	if dst.IsNil() {
		panic("upcxx: CopyGG to nil GPtr")
	}
	inj := rk.newInjection(dst.Owner)
	op := inj.single()
	op.kind, op.nbytes = obs.KindCopy, n*serial.SizeOf[T]()
	op.srcPeer, op.srcSeg, op.srcOff = src.Owner, src.segID("CopyGG"), src.Off
	op.dstPeer, op.dstSeg, op.dstOff = dst.Owner, dst.segID("CopyGG"), dst.Off
	return rk.injectCx(inj, obs.KindCopy, cxs)
}

// CopyGG copies n elements from one global location to another, returning
// a future that readies at operation completion.
func CopyGG[T serial.Scalar](rk *Rank, src GPtr[T], dst GPtr[T], n int) Future[Unit] {
	return CopyWith(rk, src, dst, n).Op
}

// PutPair names one (local source, remote destination) fragment of a
// vector put.
type PutPair[T serial.Scalar] struct {
	Src []T
	Dst GPtr[T]
}

// GetPair names one (remote source, local destination) fragment of a
// vector get.
type GetPair[T serial.Scalar] struct {
	Src GPtr[T]
	Dst []T
}

// uniformDst returns the shared destination rank of a put batch, or -1
// when fragments target different ranks (remote completion then has no
// single destination to fire at).
func uniformDst(ops []rmaOp) Intrank {
	if len(ops) == 0 {
		return -1
	}
	dst := ops[0].dstPeer
	for _, op := range ops[1:] {
		if op.dstPeer != dst {
			return -1
		}
	}
	return dst
}

// RPutVWith issues a vector put with an explicit completion set: every
// fragment transfers independently, and operation/remote completion fire
// once all fragments have landed. This is the VIS (vector/indexed/strided)
// entry point the paper lists among UPC++'s non-contiguous RMA support.
func RPutVWith[T serial.Scalar](rk *Rank, frags []PutPair[T], cxs ...Cx) CxFutures {
	ops := make([]rmaOp, len(frags))
	for i, f := range frags {
		lowerPut(&ops[i], f.Src, f.Dst, "RPutVWith")
	}
	return rk.injectBatch(ops, obs.KindPut, uniformDst(ops), cxs)
}

// RGetVWith issues a vector get with an explicit completion set.
func RGetVWith[T serial.Scalar](rk *Rank, frags []GetPair[T], cxs ...Cx) CxFutures {
	ops := make([]rmaOp, len(frags))
	for i, f := range frags {
		lowerGet(&ops[i], f.Src, f.Dst, "RGetVWith")
	}
	return rk.injectBatch(ops, obs.KindGet, -1, cxs)
}

// RPutIndexedWith scatters equally-sized blocks of src to element offsets
// within a remote base pointer with an explicit completion set: block i
// (blockElems elements) lands at base.Add(indices[i]). len(src) must
// equal len(indices)*blockElems.
func RPutIndexedWith[T serial.Scalar](rk *Rank, src []T, base GPtr[T], indices []int, blockElems int, cxs ...Cx) CxFutures {
	if len(src) != len(indices)*blockElems {
		panic(fmt.Sprintf("upcxx: RPutIndexedWith size mismatch: %d src elems, %d blocks of %d",
			len(src), len(indices), blockElems))
	}
	ops := make([]rmaOp, len(indices))
	for i, idx := range indices {
		lowerPut(&ops[i], src[i*blockElems:(i+1)*blockElems], base.Add(idx), "RPutIndexedWith")
	}
	return rk.injectBatch(ops, obs.KindPut, base.Owner, cxs)
}

// RGetIndexedWith gathers equally-sized blocks from element offsets within
// a remote base pointer into dst, with an explicit completion set.
func RGetIndexedWith[T serial.Scalar](rk *Rank, base GPtr[T], indices []int, blockElems int, dst []T, cxs ...Cx) CxFutures {
	if len(dst) != len(indices)*blockElems {
		panic(fmt.Sprintf("upcxx: RGetIndexedWith size mismatch: %d dst elems, %d blocks of %d",
			len(dst), len(indices), blockElems))
	}
	ops := make([]rmaOp, len(indices))
	for i, idx := range indices {
		lowerGet(&ops[i], base.Add(idx), dst[i*blockElems:(i+1)*blockElems], "RGetIndexedWith")
	}
	return rk.injectBatch(ops, obs.KindGet, -1, cxs)
}

// RPutStrided2DWith puts rows blocks of rowLen elements with an explicit
// completion set: block i is src[i*srcStride : i*srcStride+rowLen] and
// lands at dst.Add(i*dstStride). This expresses the regular sections
// multidimensional-array halo exchanges need.
func RPutStrided2DWith[T serial.Scalar](rk *Rank, src []T, srcStride int, dst GPtr[T], dstStride, rowLen, rows int, cxs ...Cx) CxFutures {
	ops := make([]rmaOp, rows)
	for i := 0; i < rows; i++ {
		lo := i * srcStride
		lowerPut(&ops[i], src[lo:lo+rowLen], dst.Add(i*dstStride), "RPutStrided2DWith")
	}
	return rk.injectBatch(ops, obs.KindPut, dst.Owner, cxs)
}

// RGetStrided2DWith gathers rows blocks of rowLen elements from a strided
// remote section into a strided local buffer, with an explicit completion
// set.
func RGetStrided2DWith[T serial.Scalar](rk *Rank, src GPtr[T], srcStride int, dst []T, dstStride, rowLen, rows int, cxs ...Cx) CxFutures {
	ops := make([]rmaOp, rows)
	for i := 0; i < rows; i++ {
		lo := i * dstStride
		lowerGet(&ops[i], src.Add(i*srcStride), dst[lo:lo+rowLen], "RGetStrided2DWith")
	}
	return rk.injectBatch(ops, obs.KindGet, -1, cxs)
}
