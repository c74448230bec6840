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

// opKind names the conduit operation class of an rmaOp.
type opKind uint8

const (
	opPut opKind = iota
	opGet
	opCopy
	opAMO
	// opAM is a one-way Active Message hop (collective headers, RPC
	// replies and fire-and-forget RPCs): captured and handed to the
	// conduit synchronously, so its operation edge fires at injection.
	opAM
	// opColl names a whole collective operation for completion-descriptor
	// validation; collectives resolve their cxPlan against it and lower
	// each round to opAM / opCopy operations.
	opColl
	// opRPC is a round-trip RPC request: it travels as an AM like opAM,
	// but its operation edge is deferred — the initiator's reply
	// continuation fires the plan (and releases actCount) when the reply
	// lands. Also the completion-validation kind of every RPC variant.
	opRPC
)

// String returns the kind mnemonic (used in completion-validation faults).
func (k opKind) String() string {
	switch k {
	case opPut:
		return "put"
	case opGet:
		return "get"
	case opCopy:
		return "copy"
	case opAMO:
		return "atomic"
	case opAM:
		return "am"
	case opColl:
		return "collective"
	case opRPC:
		return "rpc"
	default:
		return fmt.Sprintf("op(%d)", uint8(k))
	}
}

// rmaOp is one conduit operation in lowered, byte-addressed form. Puts
// fill the dst side and buf (source bytes); gets fill the src side and
// buf (destination bytes); copies fill both sides and nbytes; atomics
// fill the dst side plus the amo fields.
type rmaOp struct {
	kind opKind

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
	amoOld     *uint64 // where the previous value goes before op-cx fires

	amID  gasnet.HandlerID // opAM: handler; buf carries the payload
	amAux any              // opAM: opaque code-reference token

	// bufs is the scatter-gather alternative to buf for opAM/opRPC: the
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
	case opCopy:
		return op.nbytes
	case opAMO:
		return 8
	default:
		if op.bufs != nil {
			n := 0
			for _, b := range op.bufs {
				n += len(b)
			}
			return n
		}
		return len(op.buf)
	}
}

// injection is one logical operation on its way from the facade to the
// conduit, as a single pooled record: its lowered operations, the plan they
// share, and the conduit's callbacks for them, bound once per record. Whoever
// discharges the last outstanding operation (opDone) routes the plan's final
// deliveries and releases the record; a released record is poisoned, so a
// stray callback panics instead of completing another operation (DESIGN §2).
type injection struct {
	cxPlan
	ops []rmaOp
	one [1]rmaOp // backs ops for a single operation

	// nops counts the conduit operations outstanding, plus the sentinel run
	// holds while it injects; negative on a released record.
	nops atomic.Int64
	// replies counts the round-trip entries of an RPC request message still
	// awaiting their results; the last one fires the operation edge
	// (rpcLand). Guarded by the initiating rank's rpcMu.
	replies int

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

// single makes op the record's one operation.
func (inj *injection) single(op rmaOp) *injection {
	inj.one[0], inj.ops = op, inj.one[:1]
	return inj
}

// release poisons the record — plan zeroed but for the delivery lists'
// cleared backing arrays, nops negative — and returns it to the pool.
func (inj *injection) release() {
	clear(inj.op)
	clear(inj.src)
	clear(inj.rem)
	inj.cxPlan = cxPlan{op: inj.op[:0], src: inj.src[:0], rem: inj.rem[:0]}
	inj.one[0], inj.ops, inj.replies = rmaOp{}, nil, 0
	inj.nops.Store(-1)
	injections.Put(inj)
}

// inject hands the record's operations to the conduit under its plan — the
// inject(op, cxSet) path of every RMA, copy, atomic, AM and RPC entry point —
// as one deferred unit (defQ → conduit, see run). The record is not the
// caller's any more once inject returns.
func (rk *Rank) inject(inj *injection) {
	inj.nops.Store(int64(len(inj.ops)) + 1)
	rk.defMu.Lock()
	rk.defQ = append(rk.defQ, inj)
	rk.defMu.Unlock()
	rk.InternalProgress()
}

// run injects the batch: every operation goes to the conduit, after which
// source completion fires; operation and remote completions aggregate
// across the batch (see cxPlan). An empty batch completes immediately.
func (inj *injection) run() {
	rk, ops := inj.rk, inj.ops
	// Remote-RPC notification: with one put/copy fragment the AM rides
	// that fragment's hop chain; with several (all to one destination,
	// validated at plan construction) the same AM is attached to every
	// fragment, counted, and the conduit enqueues it at the target when
	// the *last-landing* fragment arrives — destination-side timing,
	// no initiator gating round trip. A batch with no carrier leaves
	// it for the sentinel opDone to ship as a plain AM.
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
			tag = ro.OpStart(obs.OpKind(op.kind), b)
			planBytes += b
			if i == 0 {
				inj.obsTag = tag
			}
		}
		switch op.kind {
		case opPut:
			rk.ep.PutSegTag(gasnetRank(op.dstPeer), op.dstSeg, op.dstOff, op.buf, inj.landed, rem, tag)
		case opGet:
			rk.ep.GetSegTag(gasnetRank(op.srcPeer), op.srcSeg, op.srcOff, op.buf, inj.landed, tag)
		case opCopy:
			rk.ep.CopySegTag(gasnetRank(op.srcPeer), op.srcSeg, op.srcOff,
				gasnetRank(op.dstPeer), op.dstSeg, op.dstOff, op.nbytes, inj.landed, rem, tag)
		case opAMO:
			rk.ep.AMOTag(gasnetRank(op.dstPeer), op.dstOff, op.amo, op.amoA, op.amoB, inj.fetched, tag)
		case opAM, opRPC:
			// The conduit takes over the runtime's own message buffer and
			// captures borrowed fragments before the call returns: source
			// completion can fire at injection.
			rk.ep.AMTag(gasnetRank(op.dstPeer), op.amID, op.buf, op.bufs, op.amAux, tag)
			// A one-way message's operation edge fires here; a round-trip
			// request's when its last reply lands (rpcLand).
			if op.kind == opAM {
				inj.opLanded()
			}
		default:
			panic(fmt.Sprintf("upcxx: inject of unknown op kind %d", op.kind))
		}
	}
	if ro != nil && len(ops) > 0 {
		inj.obsBytes = planBytes
	}
	// Source completion: only puts carry source descriptors
	// (cxPlan.add), and PutSegTag captures its source bytes before
	// returning on every path — a copy's source is read lazily when
	// the hop chain reaches it, which is why copies reject them.
	inj.deliver(inj.src)
	// Discharge the batch sentinel: with zero operations this is the
	// edge that fires op/remote completion.
	inj.opDone()
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
// previous value goes where it was asked for before the operation edge fires.
func (inj *injection) amoFetched(old uint64) {
	*inj.one[0].amoOld = old
	inj.opLanded()
}

// opDone notes one operation's completion; the last one fires operation
// and remote completions and releases the record. Conduit acks imply
// remote visibility in this conduit, so initiator-side remote deliveries
// ride the same edge. A remote RPC still held here belongs to a batch with
// no put/copy carrier; it ships now as one one-way AM.
func (inj *injection) opDone() {
	if n := inj.nops.Add(-1); n > 0 {
		return
	} else if n < 0 {
		panic("upcxx: a completion reached a released injection record")
	}
	if am := inj.takeConduitAM(); am != nil {
		inj.rk.ep.AMTag(gasnetRank(inj.remotePeer), am.Handler, am.Payload, nil, am.Aux, inj.obsTag)
	}
	inj.obsDone()
	inj.deliver(inj.rem)
	inj.deliver(inj.op)
	inj.release()
}

// remoteCarriers counts the operations of a batch whose hop chains can
// carry a remote-completion AM to the destination.
func remoteCarriers(ops []rmaOp) int {
	n := 0
	for i := range ops {
		if ops[i].kind == opPut || ops[i].kind == opCopy {
			n++
		}
	}
	return n
}

// injectCx resolves cxs into inj's plan, injects it, and returns the
// requested futures.
func (rk *Rank) injectCx(inj *injection, kind opKind, cxs []Cx) CxFutures {
	inj.resolve(kind, cxs)
	futs := inj.futs // the record may be released before inject returns
	rk.inject(inj)
	return futs
}

// injectBatch is injectCx for a vector operation's fragments.
func (rk *Rank) injectBatch(ops []rmaOp, kind opKind, remotePeer Intrank, cxs []Cx) CxFutures {
	inj := rk.newInjection(remotePeer)
	inj.ops = ops
	return rk.injectCx(inj, kind, cxs)
}

// lowerPut builds the rmaOp of one put fragment.
func lowerPut[T serial.Scalar](src []T, dst GPtr[T], opName string) rmaOp {
	if dst.IsNil() {
		panic("upcxx: " + opName + " to nil GPtr")
	}
	return rmaOp{
		kind:    opPut,
		dstPeer: dst.Owner,
		dstSeg:  dst.segID(opName),
		dstOff:  dst.Off,
		buf:     serial.AsBytes(src),
	}
}

// lowerGet builds the rmaOp of one get fragment.
func lowerGet[T serial.Scalar](src GPtr[T], dst []T, opName string) rmaOp {
	if src.IsNil() {
		panic("upcxx: " + opName + " from nil GPtr")
	}
	return rmaOp{
		kind:    opGet,
		srcPeer: src.Owner,
		srcSeg:  src.segID(opName),
		srcOff:  src.Off,
		buf:     serial.AsBytes(dst),
	}
}

// RPutWith copies src into the remote memory at dst with an explicit
// completion set; with no descriptors it defaults to operation completion
// as a future. dst may be of any memory kind; device destinations route
// through the target's DMA engine, and a RemoteCxAsRPC notification fires
// at dst.Owner only after that DMA hop lands.
func RPutWith[T serial.Scalar](rk *Rank, src []T, dst GPtr[T], cxs ...Cx) CxFutures {
	return rk.injectCx(rk.newInjection(dst.Owner).single(lowerPut(src, dst, "RPut")), opPut, cxs)
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

// PutValue writes a single value to remote memory.
func PutValue[T serial.Scalar](rk *Rank, v T, dst GPtr[T]) Future[Unit] {
	return RPut(rk, []T{v}, dst)
}

// RGetWith copies from the remote memory at src into the local buffer dst
// with an explicit completion set. Gets expose only operation completion
// (there is no reusable source buffer and no destination-side event).
func RGetWith[T serial.Scalar](rk *Rank, src GPtr[T], dst []T, cxs ...Cx) CxFutures {
	return rk.injectCx(rk.newInjection(-1).single(lowerGet(src, dst, "RGet")), opGet, cxs)
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
	return Then(RGet(rk, src, buf), func(Unit) T { return buf[0] })
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
	op := rmaOp{
		kind:    opCopy,
		srcPeer: src.Owner,
		srcSeg:  src.segID("CopyGG"),
		srcOff:  src.Off,
		dstPeer: dst.Owner,
		dstSeg:  dst.segID("CopyGG"),
		dstOff:  dst.Off,
		nbytes:  n * serial.SizeOf[T](),
	}
	return rk.injectCx(rk.newInjection(dst.Owner).single(op), opCopy, cxs)
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
		ops[i] = lowerPut(f.Src, f.Dst, "RPutV")
	}
	return rk.injectBatch(ops, opPut, uniformDst(ops), cxs)
}

// RPutV issues a vector put; the returned future readies when all
// fragments have completed.
func RPutV[T serial.Scalar](rk *Rank, frags []PutPair[T]) Future[Unit] {
	return RPutVWith(rk, frags).Op
}

// RGetVWith issues a vector get with an explicit completion set.
func RGetVWith[T serial.Scalar](rk *Rank, frags []GetPair[T], cxs ...Cx) CxFutures {
	ops := make([]rmaOp, len(frags))
	for i, f := range frags {
		ops[i] = lowerGet(f.Src, f.Dst, "RGetV")
	}
	return rk.injectBatch(ops, opGet, -1, cxs)
}

// RGetV issues a vector get; the future readies when every fragment has
// landed.
func RGetV[T serial.Scalar](rk *Rank, frags []GetPair[T]) Future[Unit] {
	return RGetVWith(rk, frags).Op
}

// RPutIndexedWith scatters equally-sized blocks of src to element offsets
// within a remote base pointer with an explicit completion set: block i
// (blockElems elements) lands at base.Add(indices[i]). len(src) must
// equal len(indices)*blockElems.
func RPutIndexedWith[T serial.Scalar](rk *Rank, src []T, base GPtr[T], indices []int, blockElems int, cxs ...Cx) CxFutures {
	if len(src) != len(indices)*blockElems {
		panic(fmt.Sprintf("upcxx: RPutIndexed size mismatch: %d src elems, %d blocks of %d",
			len(src), len(indices), blockElems))
	}
	ops := make([]rmaOp, len(indices))
	for i, idx := range indices {
		ops[i] = lowerPut(src[i*blockElems:(i+1)*blockElems], base.Add(idx), "RPutIndexed")
	}
	return rk.injectBatch(ops, opPut, base.Owner, cxs)
}

// RPutIndexed scatters equally-sized blocks of src to element offsets
// within a remote base pointer.
func RPutIndexed[T serial.Scalar](rk *Rank, src []T, base GPtr[T], indices []int, blockElems int) Future[Unit] {
	return RPutIndexedWith(rk, src, base, indices, blockElems).Op
}

// RGetIndexedWith gathers equally-sized blocks from element offsets within
// a remote base pointer into dst, with an explicit completion set.
func RGetIndexedWith[T serial.Scalar](rk *Rank, base GPtr[T], indices []int, blockElems int, dst []T, cxs ...Cx) CxFutures {
	if len(dst) != len(indices)*blockElems {
		panic(fmt.Sprintf("upcxx: RGetIndexed size mismatch: %d dst elems, %d blocks of %d",
			len(dst), len(indices), blockElems))
	}
	ops := make([]rmaOp, len(indices))
	for i, idx := range indices {
		ops[i] = lowerGet(base.Add(idx), dst[i*blockElems:(i+1)*blockElems], "RGetIndexed")
	}
	return rk.injectBatch(ops, opGet, -1, cxs)
}

// RGetIndexed gathers equally-sized blocks from element offsets within a
// remote base pointer into dst.
func RGetIndexed[T serial.Scalar](rk *Rank, base GPtr[T], indices []int, blockElems int, dst []T) Future[Unit] {
	return RGetIndexedWith(rk, base, indices, blockElems, dst).Op
}

// RPutStrided2DWith puts rows blocks of rowLen elements with an explicit
// completion set: block i is src[i*srcStride : i*srcStride+rowLen] and
// lands at dst.Add(i*dstStride). This expresses the regular sections
// multidimensional-array halo exchanges need.
func RPutStrided2DWith[T serial.Scalar](rk *Rank, src []T, srcStride int, dst GPtr[T], dstStride, rowLen, rows int, cxs ...Cx) CxFutures {
	ops := make([]rmaOp, rows)
	for i := 0; i < rows; i++ {
		lo := i * srcStride
		ops[i] = lowerPut(src[lo:lo+rowLen], dst.Add(i*dstStride), "RPutStrided2D")
	}
	return rk.injectBatch(ops, opPut, dst.Owner, cxs)
}

// RPutStrided2D puts rows blocks of rowLen elements from a strided local
// buffer into a strided remote section.
func RPutStrided2D[T serial.Scalar](rk *Rank, src []T, srcStride int, dst GPtr[T], dstStride, rowLen, rows int) Future[Unit] {
	return RPutStrided2DWith(rk, src, srcStride, dst, dstStride, rowLen, rows).Op
}

// RGetStrided2DWith gathers rows blocks of rowLen elements from a strided
// remote section into a strided local buffer, with an explicit completion
// set.
func RGetStrided2DWith[T serial.Scalar](rk *Rank, src GPtr[T], srcStride int, dst []T, dstStride, rowLen, rows int, cxs ...Cx) CxFutures {
	ops := make([]rmaOp, rows)
	for i := 0; i < rows; i++ {
		lo := i * dstStride
		ops[i] = lowerGet(src.Add(i*srcStride), dst[lo:lo+rowLen], "RGetStrided2D")
	}
	return rk.injectBatch(ops, opGet, -1, cxs)
}

// RGetStrided2D gathers rows blocks of rowLen elements from a strided
// remote section into a strided local buffer.
func RGetStrided2D[T serial.Scalar](rk *Rank, src GPtr[T], srcStride int, dst []T, dstStride, rowLen, rows int) Future[Unit] {
	return RGetStrided2DWith(rk, src, srcStride, dst, dstStride, rowLen, rows).Op
}
