package gasnet

import "upcxx/internal/obs"

// backend is the conduit underneath every Endpoint operation. There are
// exactly three — loopback (zero-delay, in-process), loggp (engine-timed,
// in-process) and wire (OS-process ranks over tcp or shm); NewNetwork
// picks one from Config, and no Endpoint method knows which.
type backend interface {
	// transfer executes x along its planned hop chain p.
	transfer(ep *Endpoint, x xfer, p hopPlan)
	// am delivers an Active Message whose payload is head (the conduit's own)
	// followed by the borrowed fragments of tail. A conduit that does not
	// deliver head itself copies both, once, into memory it reuses — a ring
	// record, the tail of a socket's send queue — before am returns, and may
	// make the caller wait there for room.
	am(ep *Endpoint, dst Rank, h HandlerID, head []byte, tail [][]byte, aux any, tag obs.OpTag)
	// amo executes a remote atomic on the host-segment word at (dst, off).
	amo(ep *Endpoint, dst Rank, off uint64, op AMOOp, op1, op2 uint64, onResult func(old uint64), tag obs.OpTag)
	// poll is a progress pass's look at polled memory — the shm rings; a no-op elsewhere. park
	// is +1 from a goroutine about to block (the doorbell is armed first), -1 when it is back;
	// sock says what is next there is a socket reader's to take: a yield will not see it.
	poll(park int32) (sock bool)
	info() ConduitInfo
	failure() error
	close()
}

// loc is one side of a transfer: memory the initiator holds directly (a
// put's source, a get's destination — host memory on the initiating rank)
// or an address (rank, seg, off) in a registered segment.
type loc struct {
	buf   []byte
	isBuf bool
	rank  Rank
	seg   SegID
	off   uint64
}

func (l loc) dev() bool { return !l.isBuf && l.seg != HostSeg }

// xfer is the transfer descriptor every put, get and copy lowers to: n
// bytes from src to dst on behalf of rank init. onDone is delivered to the
// initiator's completion queue once the bytes are visible at dst; rem is
// enqueued on dst's rank at the instant the final hop lands. Either may
// be nil.
type xfer struct {
	init     Rank
	src, dst loc
	n        int
	onDone   func()
	rem      *RemoteAM
	tag      obs.OpTag
}

// Kind-aware hop planning. A host↔device hop occupies the owning rank's
// copy engine at DMAModel cost; any inter-rank leg crosses the NIC at
// network cost (Choi et al., arXiv:2102.12416). With I the initiator, S
// the source rank and D the destination rank, a chain is:
//
//	request  I→S zero-byte descriptor message      when S ≠ I
//	d2h      S's copy engine drains device memory  device source, S ≠ D, no GDR
//	wire     the payload crosses the NIC S→D       when S ≠ D
//	h2d      D's copy engine fills device memory   device destination, S ≠ D, no GDR
//	ack      completion returns D→I                when D ≠ I
//
// On one rank (S = D) the middle is a single hop: an on-node d2d
// descriptor (device→device), one d2h or h2d descriptor (mixed kinds), or
// a shared-memory move at intra-node NIC cost (host→host). So:
//
//	put  host → remote device:        wire → h2d → ack
//	get  remote device → host:        request → d2h → wire
//	copy device → device, one rank:   d2d
//	copy device → device, two ranks:  d2h → wire → h2d → notify
//
// With a GPUDirect-capable DMA model (a job-wide property) the NIC reads
// and writes device segments itself, so cross-rank chains drop d2h and
// h2d — two fewer PCIe hops and one less host-bounce copy per fragment.
// Descriptor counters still record the device-memory traffic (cross-rank
// d2d split into d2d-direct vs d2d-bounced), but no copy-engine occupancy
// is charged.
//
// The hop before the ack is the landing hop: the payload becomes visible
// at dst there (after the h2d DMA for a staged device destination), and
// remote completion fires from it — never ahead of the copy engine. A put
// is acknowledged by the destination NIC, a pure-latency hop; a
// segment-to-segment copy completes with a zero-byte message the
// destination rank injects, occupying its NIC like any other.
type hopKind uint8

const (
	hopRequest hopKind = iota
	hopD2H
	hopWire
	hopLocal // host→host within one rank
	hopH2D
	hopD2D
	hopAck    // NIC-generated put acknowledgement
	hopNotify // copy-completion message to the initiator
)

// hop is one leg of a chain: rank from's NIC or copy engine → rank to.
type hop struct {
	kind     hopKind
	from, to Rank
}

// hopPlan is the chain, the index of its landing hop and the descriptor
// counters to charge — held by value, so planning allocates nothing.
type hopPlan struct {
	hops  [5]hop
	nhops int
	land  int
	dma   [2]DMAHop // descriptors to account, at most one per side
	ndma  int
}

func (p *hopPlan) add(k hopKind, from, to Rank) {
	p.hops[p.nhops] = hop{k, from, to}
	p.nhops++
}

func (p *hopPlan) charge(r Rank, k obs.DMAKind, n int) {
	p.dma[p.ndma] = DMAHop{Rank: r, Bytes: n, Kind: k}
	p.ndma++
}

// planHops decides the hop chain of x and the DMA descriptors it costs —
// the one place the GDR-vs-bounce decision is made; backends only execute.
func planHops(x *xfer, gdr bool) (p hopPlan) {
	I, S, D := x.init, x.src.rank, x.dst.rank
	srcDev, dstDev := x.src.dev(), x.dst.dev()
	if S != I {
		p.add(hopRequest, I, S)
	}
	switch {
	case S == D && srcDev && dstDev:
		p.add(hopD2D, S, D)
		p.charge(S, obs.DMAD2DDirect, x.n)
	case S == D && srcDev:
		p.add(hopD2H, S, D)
		p.charge(S, obs.DMAD2H, x.n)
	case S == D && dstDev:
		p.add(hopH2D, S, D)
		p.charge(D, obs.DMAH2D, x.n)
	case S == D:
		p.add(hopLocal, S, D)
	default:
		if srcDev && !gdr {
			p.add(hopD2H, S, S)
		}
		p.add(hopWire, S, D)
		if dstDev && !gdr {
			p.add(hopH2D, D, D)
		}
		switch {
		case srcDev && dstDev && gdr:
			p.charge(S, obs.DMAD2DDirect, x.n)
			p.charge(D, obs.DMAD2DDirect, x.n)
		case srcDev && dstDev:
			// The staging halves of one device-to-device transfer.
			p.charge(S, obs.DMAD2DBounced, x.n)
			p.charge(D, obs.DMAD2DBounced, x.n)
		case srcDev:
			p.charge(S, obs.DMAD2H, x.n)
		case dstDev:
			p.charge(D, obs.DMAH2D, x.n)
		}
	}
	p.land = p.nhops - 1
	if D != I {
		back := hopNotify
		if x.src.isBuf {
			back = hopAck
		}
		p.add(back, D, I)
	}
	return p
}

// transfer is the path every put, get and copy takes: plan the chain,
// account its descriptors and wire messages, hand it to the backend. A
// wire network hosts only its own rank: peers count their descriptors.
func (ep *Endpoint) transfer(x *xfer) {
	x.init = ep.rank
	p := planHops(x, ep.net.gdr)
	for _, c := range p.dma[:p.ndma] {
		if at := ep.net.eps[c.Rank]; at != nil {
			at.countDMA(c.Kind, c.Bytes)
		}
	}
	for _, h := range p.hops[:p.nhops] {
		switch h.kind {
		case hopRequest:
			x.tag.WireMsg(h.from, h.to, 0)
		case hopWire:
			x.tag.WireMsg(h.from, h.to, x.n)
		}
	}
	ep.backendFor(x.src.rank == ep.rank && x.dst.rank == ep.rank).transfer(ep, *x, p)
}

// backendFor picks self for an operation that never leaves the initiating
// rank, be otherwise; they differ only on a wire conduit (self = loopback).
func (ep *Endpoint) backendFor(local bool) backend {
	if local {
		return ep.net.self
	}
	return ep.net.be
}

// bytes resolves one side of a transfer to memory — eagerly, so a wild
// pointer faults on the initiating goroutine, not a delivery goroutine.
func (ep *Endpoint) bytes(l loc, n int) []byte {
	if l.isBuf {
		return l.buf
	}
	return ep.net.eps[l.rank].SegByID(l.seg).Bytes(l.off, n)
}

// captureBytes sizes the capture event: a put stages its source buffer,
// a get or copy only builds a descriptor.
func (x *xfer) captureBytes() int {
	if x.src.isBuf {
		return x.n
	}
	return 0
}
