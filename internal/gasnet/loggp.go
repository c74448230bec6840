package gasnet

import (
	"sync"
	"time"

	"upcxx/internal/obs"
)

// loggp is the model-time in-process backend: loopback's data movement with
// every hop charged its LogGP (network) or PCIeDMA (copy engine) cost on the
// model clocks. The initiator's overhead advances its rank's clock; each hop
// books its sender's NIC or copy-engine channel and lands gap+latency later;
// the bytes move inside the call, and what the landing tells a rank — a
// completion, an Active Message — reaches it through the rank's queue, stamped
// with the landing time, where it is harvested once the rank's clock reaches
// the stamp. No goroutine delivers anything and nothing reads the wall clock.
//
// A rank's NIC and copy engine keep one queue per initiating rank: the hops a
// rank starts serialize on every channel they cross, its own and its peers',
// and hops different ranks start do not contend. So every booking is made by
// the initiator, in its program order, at its clock, and model time depends on
// what each rank does, never on how the host interleaves the ranks.
type loggp struct {
	loopback // info and failure: an in-process conduit like any other
	m        *LogGP
	dma      *PCIeDMA
	ranks    int

	mu       sync.Mutex               // guards the channels
	nic, eng []Channel[time.Duration] // [owner*ranks+initiator]: the NIC, the device copy engine
}

func newLogGP(m *LogGP, dma *PCIeDMA, ranks int) *loggp {
	return &loggp{m: m, dma: dma, ranks: ranks,
		nic: make([]Channel[time.Duration], ranks*ranks), eng: make([]Channel[time.Duration], ranks*ranks)}
}

// cost prices hop h of an n-byte transfer: the CPU overhead it charges
// when it opens the chain, the channel it occupies (the sender's NIC or
// copy engine; nil for a hardware ack) and its gap and latency there.
func (b *loggp) cost(net *Network, h hop, n int) (o time.Duration, ch []Channel[time.Duration], gap, lat time.Duration) {
	intra := net.Intra(h.from, h.to)
	switch h.kind {
	case hopRequest, hopNotify:
		return b.m.Overhead(0, intra), b.nic, b.m.Gap(0, intra), b.m.Latency(0, intra)
	case hopWire, hopLocal:
		return b.m.Overhead(n, intra), b.nic, b.m.Gap(n, intra), b.m.Latency(n, intra)
	case hopD2H, hopH2D:
		return b.dma.Overhead(n), b.eng, b.dma.Gap(n, false), b.dma.Latency(n, false)
	case hopD2D:
		return b.dma.Overhead(n), b.eng, b.dma.Gap(n, true), b.dma.Latency(n, true)
	default: // hopAck
		return 0, nil, 0, b.m.Latency(0, intra)
	}
}

// send books rank r's channel ch for a hop initiator init starts, ready at
// at, and returns when it lands: gap after the channel takes it, plus lat.
func (b *loggp) send(ch []Channel[time.Duration], r, init Rank, at, gap, lat time.Duration) time.Duration {
	b.mu.Lock()
	end := ch[int(r)*b.ranks+int(init)].Book(at, gap)
	b.mu.Unlock()
	return end + lat
}

func (b *loggp) transfer(ep *Endpoint, x *xfer, p *hopPlan) bool {
	o, _, _, _ := b.cost(ep.net, p.hops[0], x.n)
	at := ep.Charge(o)
	x.tag.Hop(obs.StageCapture, ep.rank, x.captureBytes())
	for i, h := range p.hops[:p.nhops] {
		_, ch, gap, lat := b.cost(ep.net, h, x.n)
		if ch == nil {
			at += lat
		} else {
			at = b.send(ch, h.from, ep.rank, at, gap, lat)
		}
		switch h.kind {
		case hopRequest:
			x.tag.Hop(obs.StageWire, h.to, 0)
		case hopWire:
			x.tag.Hop(obs.StageWire, h.to, x.n)
		case hopD2H, hopH2D, hopD2D:
			x.tag.Hop(obs.StageDMA, h.from, x.n)
		}
		if i == p.land {
			copy(ep.bytes(x.dst, x.n), ep.bytes(x.src, x.n))
			x.tag.Landing(x.dst.rank, x.n)
			if x.rem.arm() {
				ep.net.eps[x.dst.rank].deliverAt(at, inboundAM{src: ep.rank, handler: x.rem.Handler, payload: x.rem.Payload, aux: x.rem.Aux}, obs.OpTag{})
			}
			if x.onDone == nil {
				return false // nobody to tell: the return hop is never sent
			}
		}
	}
	ep.completeAt(at, completion{fn: x.onDone})
	return false
}

func (b *loggp) am(ep *Endpoint, dst Rank, h HandlerID, head []byte, tail [][]byte, aux any, tag obs.OpTag) {
	n := amLen(head, tail)
	intra := ep.net.Intra(ep.rank, dst)
	at := ep.Charge(b.m.Overhead(n, intra))
	// The capture is exactly once, exactly here: mutations made after am
	// returns are not observed by the target.
	staged := capture(head, tail)
	tag.Hop(obs.StageCapture, ep.rank, n)
	at = b.send(b.nic, ep.rank, ep.rank, at, b.m.Gap(n, intra), b.m.Latency(n, intra))
	ep.net.eps[dst].deliverAt(at, inboundAM{src: ep.rank, handler: h, payload: staged, aux: aux}, tag)
}

func (b *loggp) amo(ep *Endpoint, dst Rank, off uint64, op AMOOp, op1, op2 uint64, onResult func(old uint64), tag obs.OpTag) (uint64, bool) {
	intra := ep.net.Intra(ep.rank, dst)
	at := ep.Charge(b.m.Overhead(8, intra))
	tag.Hop(obs.StageCapture, ep.rank, 8)
	lat := b.m.Latency(8, intra)
	at = b.send(b.nic, ep.rank, ep.rank, at, b.m.Gap(8, intra), lat)
	old := ep.net.eps[dst].seg.applyAMO(off, op, op1, op2)
	tag.Landing(dst, 8)
	if onResult != nil {
		ep.completeAt(at+lat, completion{res: onResult, old: old})
	}
	return 0, false
}
