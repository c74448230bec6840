package gasnet

import "upcxx/internal/obs"

// loopback is the zero-delay in-process backend: every rank lives in this
// process, so an operation is carried out — data moved, notification
// enqueued, completion queued — before the call returns. It also carries
// the rank-local traffic of a wire network.
type loopback struct{}

func (loopback) transfer(ep *Endpoint, x xfer, p hopPlan) {
	sb, db := ep.bytes(x.src, x.n), ep.bytes(x.dst, x.n)
	x.tag.Hop(obs.StageCapture, ep.rank, x.captureBytes())
	for _, h := range p.hops[:p.nhops] {
		switch h.kind {
		case hopD2H, hopH2D, hopD2D:
			x.tag.Hop(obs.StageDMA, h.from, x.n)
		}
	}
	copy(db, sb)
	x.tag.Landing(x.dst.rank, x.n)
	ep.deliverRemote(x.dst.rank, x.rem)
	if x.onDone != nil {
		ep.enqueueComp(x.onDone)
	}
}

func (loopback) am(ep *Endpoint, dst Rank, h HandlerID, head []byte, tail [][]byte, aux any, tag obs.OpTag) {
	staged := capture(head, tail)
	tag.Hop(obs.StageCapture, ep.rank, len(staged))
	ep.net.eps[dst].enqueueAM(inboundAM{src: ep.rank, handler: h, payload: staged, aux: aux})
	tag.Landing(dst, len(staged))
}

func (loopback) amo(ep *Endpoint, dst Rank, off uint64, op AMOOp, op1, op2 uint64, onResult func(old uint64), tag obs.OpTag) {
	tag.Hop(obs.StageCapture, ep.rank, 8)
	old := ep.net.eps[dst].seg.applyAMO(off, op, op1, op2)
	tag.Landing(dst, 8)
	if onResult != nil {
		ep.enqueueComp(func() { onResult(old) })
	}
}

func (loopback) info() ConduitInfo { return ConduitInfo{Backend: "model"} }
func (loopback) failure() error    { return nil }
func (loopback) close()            {}
func (loopback) poll(int32) bool   { return false } // delivery enqueues: nothing arrives by polled memory

// capture returns an AM payload as one buffer the conduit owns: head itself
// when nothing borrowed follows it, and otherwise a freshly staged
// concatenation — the single capture copy of the in-process backends, after
// which every fragment of tail is reusable by the caller.
func capture(head []byte, tail [][]byte) []byte {
	if len(tail) == 0 {
		return head
	}
	staged := append(make([]byte, 0, amLen(head, tail)), head...)
	for _, f := range tail {
		staged = append(staged, f...)
	}
	return staged
}

// amLen is the payload size of an AM given as head followed by tail.
func amLen(head []byte, tail [][]byte) int {
	n := len(head)
	for _, f := range tail {
		n += len(f)
	}
	return n
}
