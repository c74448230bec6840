package gasnet

import (
	"time"

	"upcxx/internal/obs"
)

// loggp is the engine-timed in-process backend: loopback's data movement
// with every hop charged its LogGP (network) or DMAModel (copy engine)
// cost in real time. Initiator overhead is spun on the calling goroutine;
// gaps serialize on the delivery engine's per-rank NIC and DMA channels,
// and its goroutine moves the bytes once a hop's latency has elapsed — no
// initiator or target CPU attentiveness needed.
type loggp struct {
	loopback // info and failure: an in-process conduit like any other
	m        *LogGP
	dma      DMAModel
	eng      *engine
}

// cost prices hop h of an n-byte transfer: the CPU overhead it charges
// when it opens the chain, the channel it occupies (the sender's NIC or
// copy engine; nil for a hardware ack) and its gap and latency there.
func (b *loggp) cost(net *Network, h hop, n int) (o time.Duration, ch []time.Time, gap, lat time.Duration) {
	intra := net.Intra(h.from, h.to)
	switch h.kind {
	case hopRequest, hopNotify:
		return b.m.Overhead(0, intra), b.eng.nicFree, b.m.Gap(0, intra), b.m.Latency(0, intra)
	case hopWire, hopLocal:
		return b.m.Overhead(n, intra), b.eng.nicFree, b.m.Gap(n, intra), b.m.Latency(n, intra)
	case hopD2H, hopH2D:
		return b.dma.Overhead(n), b.eng.dmaFree, b.dma.Gap(n, false), b.dma.Latency(n, false)
	case hopD2D:
		return b.dma.Overhead(n), b.eng.dmaFree, b.dma.Gap(n, true), b.dma.Latency(n, true)
	default: // hopAck
		return 0, nil, 0, b.m.Latency(0, intra)
	}
}

// chain is one transfer walking its hop plan on the engine.
type chain struct {
	b        *loggp
	ep       *Endpoint
	x        xfer
	p        hopPlan
	i        int                // the hop in flight
	landedFn func(at time.Time) // c.landed, bound once
	// payload is what the landing hop writes into db. It starts as the
	// source memory itself; a put's buffer is captured before transfer
	// returns (source completion is synchronous), a segment source when
	// the chain leaves its rank — a hop that stays on one moves in place.
	payload, db []byte
}

func (b *loggp) transfer(ep *Endpoint, x xfer, p hopPlan) {
	c := &chain{b: b, ep: ep, x: x, p: p, payload: ep.bytes(x.src, x.n), db: ep.bytes(x.dst, x.n)}
	c.landedFn = c.landed
	o, _, _, _ := b.cost(ep.net, p.hops[0], x.n)
	spinFor(o)
	if x.src.isBuf {
		c.payload = append([]byte(nil), c.payload...)
	}
	x.tag.Hop(obs.StageCapture, ep.rank, x.captureBytes())
	c.inject(time.Now())
}

// inject starts hop c.i no earlier than at.
func (c *chain) inject(at time.Time) {
	h := c.p.hops[c.i]
	if h.kind == hopWire && !c.x.src.isBuf {
		c.payload = append([]byte(nil), c.payload...)
	}
	_, ch, gap, lat := c.b.cost(c.ep.net, h, c.x.n)
	if ch == nil {
		c.b.eng.schedule(at.Add(lat), c.landedFn)
	} else {
		c.b.eng.injectOn(ch, int(h.from), at, gap, lat, c.landedFn)
	}
}

// landed runs on the engine goroutine when hop c.i's latency has elapsed.
func (c *chain) landed(at time.Time) {
	x, h, n := &c.x, c.p.hops[c.i], c.x.n
	switch h.kind {
	case hopRequest:
		x.tag.Hop(obs.StageWire, h.to, 0)
	case hopWire:
		x.tag.Hop(obs.StageWire, h.to, n)
	case hopD2H, hopH2D, hopD2D:
		x.tag.Hop(obs.StageDMA, h.from, n)
	}
	if c.i == c.p.land {
		copy(c.db, c.payload)
		x.tag.Landing(x.dst.rank, n)
		c.ep.deliverRemote(x.dst.rank, x.rem)
		if x.onDone == nil {
			return // nobody to tell: the return hop is never sent
		}
	}
	if c.i++; c.i == c.p.nhops {
		c.ep.enqueueComp(x.onDone)
		return
	}
	c.inject(at)
}

func (b *loggp) am(ep *Endpoint, dst Rank, h HandlerID, head []byte, tail [][]byte, aux any, tag obs.OpTag) {
	n := amLen(head, tail)
	intra := ep.net.Intra(ep.rank, dst)
	spinFor(b.m.Overhead(n, intra))
	// The capture is exactly once, exactly here: mutations made after am
	// returns but before wire delivery are not observed by the target.
	staged := capture(head, tail)
	tag.Hop(obs.StageCapture, ep.rank, n)
	tgt := ep.net.eps[dst]
	b.eng.injectOn(b.eng.nicFree, int(ep.rank), time.Now(), b.m.Gap(n, intra), b.m.Latency(n, intra), func(time.Time) {
		tgt.enqueueAM(inboundAM{src: ep.rank, handler: h, payload: staged, aux: aux})
		tag.Landing(dst, n)
	})
}

func (b *loggp) amo(ep *Endpoint, dst Rank, off uint64, op AMOOp, op1, op2 uint64, onResult func(old uint64), tag obs.OpTag) {
	intra := ep.net.Intra(ep.rank, dst)
	spinFor(b.m.Overhead(8, intra))
	tag.Hop(obs.StageCapture, ep.rank, 8)
	tgt := ep.net.eps[dst]
	lat := b.m.Latency(8, intra)
	b.eng.injectOn(b.eng.nicFree, int(ep.rank), time.Now(), b.m.Gap(8, intra), lat, func(at time.Time) {
		old := tgt.seg.applyAMO(off, op, op1, op2)
		tag.Landing(dst, 8)
		if onResult != nil {
			b.eng.schedule(at.Add(lat), func(time.Time) {
				ep.enqueueComp(func() { onResult(old) })
			})
		}
	})
}

func (b *loggp) close() { b.eng.stop() }
