package gasnet

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"upcxx/internal/obs"
)

// Rank identifies a process in a job, 0..Ranks-1.
type Rank = int32

// HandlerID names a registered Active Message handler. Handler tables are
// identical on every rank (SPMD: one binary), so IDs are valid network-wide.
type HandlerID uint16

// AMHandler is an Active Message handler. It runs on the target rank's
// goroutine during Poll. The payload is the handler's to keep: every backend
// delivers a buffer nobody writes again — the sender's owned message
// in-process, a slab the burst was copied into off the socket or the ring —
// so the RPC layer queues bodies, and the task runtime arguments, that alias it
// (TestConformanceAMPayloadIsTheHandlersToKeep), each keeping its slab alive.
// What reaches user code is still a view (upcxx::view), valid for the body's run only.
//
// aux is an opaque token that travels with the message but contributes no
// payload bytes: it models a code address (C++ function pointer / lambda
// invoker) which is valid on every rank because SPMD ranks share one
// binary. The runtime ships RPC invoker functions this way; user data must
// go through the payload.
type AMHandler func(ep *Endpoint, src Rank, payload []byte, aux any)

// Config describes a job.
type Config struct {
	Ranks        int
	RanksPerNode int   // 0 means all ranks share one node
	SegmentSize  int   // per-rank segment bytes; 0 means 8 MiB
	Model        Model // nil means zero-delay delivery
	// DMA is the device copy-engine model used for transfers touching
	// device-kind segments. nil defaults to PCIe3 when Model is a
	// real-time model, NoDelayDMA otherwise; with a zero-delay network
	// model device hops are always instantaneous.
	DMA DMAModel
	// Obs, when non-nil, is the job's observability recorder (sized to
	// Ranks): the conduit records wire messages per peer, DMA
	// descriptors by hop kind, doorbell wakeups, and op-lifecycle hops
	// into it. nil disables all conduit-side recording.
	Obs *obs.Obs
	// Real, when non-nil, selects a real multi-process transport
	// backend ("tcp" or "shm") instead of the in-process conduit. The
	// network then hosts only Real.Rank's endpoint; Model must be nil.
	Real *RealConduit
	// Aux serializes AM aux tokens across process boundaries (required
	// for RPC over a real backend). Ignored by in-process backends.
	Aux AuxCodec
}

// DefaultSegmentSize is the per-rank segment size when Config leaves it 0.
const DefaultSegmentSize = 8 << 20

// Network couples the endpoints of one job. It owns the AM handler table
// and the conduit backend every operation is carried by.
type Network struct {
	cfg Config
	gdr bool // every endpoint's engine is GPUDirect-capable
	// devCost prices synchronous device charges (ChargeFusedFold): the
	// DMA model under a real-time network model, zero otherwise — with a
	// zero-delay network device time is free whatever Config.DMA says.
	devCost DMAModel
	eps     []*Endpoint
	be      backend // carries operations that leave the initiating rank
	self    backend // carries rank-local operations (see backendFor)

	hmu      sync.Mutex
	handlers []AMHandler

	// DMA hop trace: when armed, every device copy-engine descriptor is
	// recorded so tests can prove a transfer path (e.g. that a
	// device-resident collective moved its payload exclusively through
	// the DMA channel, with zero host-staging copies).
	dmaTraceOn atomic.Bool
	dmaMu      sync.Mutex
	dmaTrace   []DMAHop
}

// DMAHop records one device copy-engine descriptor: the rank whose
// engine executed it, the bytes it moved, and the memory kinds it
// bridged. The trace predates the obs subsystem and is kept for tests
// that assert on transfer paths; the per-kind descriptor *counters* now
// live in obs (see countDMA, which feeds both).
type DMAHop struct {
	Rank  Rank
	Bytes int
	Kind  obs.DMAKind
}

// TraceDMA arms (or disarms) the DMA hop trace, clearing any prior
// record. Tracing is for tests and tooling; it serializes descriptor
// accounting while armed.
func (n *Network) TraceDMA(on bool) {
	n.dmaMu.Lock()
	n.dmaTrace = nil
	n.dmaMu.Unlock()
	n.dmaTraceOn.Store(on)
}

// DMATrace returns a copy of the hops recorded since TraceDMA(true).
func (n *Network) DMATrace() []DMAHop {
	n.dmaMu.Lock()
	defer n.dmaMu.Unlock()
	out := make([]DMAHop, len(n.dmaTrace))
	copy(out, n.dmaTrace)
	return out
}

// NewNetwork creates the conduit for a job.
func NewNetwork(cfg Config) *Network {
	if cfg.Ranks <= 0 {
		panic("gasnet: Config.Ranks must be positive")
	}
	if cfg.SegmentSize == 0 {
		cfg.SegmentSize = DefaultSegmentSize
	}
	if cfg.RanksPerNode <= 0 {
		cfg.RanksPerNode = cfg.Ranks
	}
	lg, realtime := cfg.Model.(*LogGP)
	dma := cfg.DMA
	if dma == nil {
		if realtime {
			dma = PCIe3()
		} else {
			dma = NoDelayDMA{}
		}
	}
	if cfg.Obs != nil && cfg.Obs.Ranks() != cfg.Ranks {
		panic("gasnet: Config.Obs sized for a different job")
	}
	n := &Network{cfg: cfg, gdr: dma.GPUDirect(), devCost: NoDelayDMA{}, eps: make([]*Endpoint, cfg.Ranks)}
	hosted := func(r int) {
		n.eps[r] = &Endpoint{
			rank:   Rank(r),
			net:    n,
			seg:    NewSegment(cfg.SegmentSize),
			notify: make(chan struct{}, 1),
		}
		if cfg.Obs != nil {
			n.eps[r].ro = cfg.Obs.Rank(r)
		}
	}
	// The backend is chosen here, once, from what Config says.
	switch {
	case cfg.Real != nil:
		// Real multi-process backend: this process hosts exactly one
		// endpoint; every other rank is a separate OS process reached
		// through the wire. A timing model makes no sense here.
		if realtime {
			panic("gasnet: Config.Model must be nil with a real transport backend")
		}
		self := cfg.Real.Rank
		if self < 0 || self >= cfg.Ranks {
			panic(fmt.Sprintf("gasnet: Real.Rank %d out of range [0,%d)", self, cfg.Ranks))
		}
		hosted(self)
		w, err := newWire(n, cfg.Real)
		if err != nil {
			panic(fmt.Sprintf("gasnet: transport bootstrap failed: %v", err))
		}
		n.be, n.self = w, loopback{}
		return n
	case realtime:
		n.be = &loggp{m: lg, dma: dma, eng: newEngine(cfg.Ranks)}
		n.devCost = dma
	default:
		n.be = loopback{}
	}
	n.self = n.be
	for r := 0; r < cfg.Ranks; r++ {
		hosted(r)
	}
	return n
}

// ConduitInfo snapshots the backend's identity and wire counters; an
// in-process conduit reports Backend "model" and no traffic.
func (n *Network) ConduitInfo() ConduitInfo {
	ci := n.be.info()
	ci.Ranks = n.cfg.Ranks
	return ci
}

// Failed reports a transport-level job failure (a peer process died):
// nil while healthy, an error wrapping ErrPeerLost after a peer is
// lost. In-process conduits never fail.
func (n *Network) Failed() error { return n.be.failure() }

// Ranks returns the job size.
func (n *Network) Ranks() int { return n.cfg.Ranks }

// Node returns the node index hosting rank r.
func (n *Network) Node(r Rank) int { return int(r) / n.cfg.RanksPerNode }

// Intra reports whether ranks a and b share a node.
func (n *Network) Intra(a, b Rank) bool { return n.Node(a) == n.Node(b) }

// Endpoint returns rank r's endpoint.
func (n *Network) Endpoint(r Rank) *Endpoint { return n.eps[r] }

// GPUDirect reports whether the job's direct NIC↔device datapath is in
// effect. The simulated conduit has one DMA model for the whole job, so
// "both endpoints capable" is a job-wide property.
func (n *Network) GPUDirect() bool { return n.gdr }

// RegisterAM installs a handler and returns its ID. All registration must
// happen before communication starts (the runtime registers its handlers at
// world creation, mirroring GASNet's static handler table).
func (n *Network) RegisterAM(h AMHandler) HandlerID {
	n.hmu.Lock()
	defer n.hmu.Unlock()
	n.handlers = append(n.handlers, h)
	if len(n.handlers) > 1<<16 {
		panic("gasnet: AM handler table overflow")
	}
	return HandlerID(len(n.handlers) - 1)
}

func (n *Network) handler(id HandlerID) AMHandler {
	n.hmu.Lock()
	defer n.hmu.Unlock()
	if int(id) >= len(n.handlers) {
		panic(fmt.Sprintf("gasnet: AM to unregistered handler %d", id))
	}
	return n.handlers[id]
}

// Close shuts the backend down (idempotent). Outstanding operations are
// dropped; call only after the job has quiesced.
func (n *Network) Close() { n.be.close() }

// Stats aggregates traffic counters for one endpoint. DMAs counts device
// copy-engine descriptors issued against this rank's devices; DMABytes the
// bytes they moved.
type Stats struct {
	Puts     uint64
	PutBytes uint64
	Gets     uint64
	GetBytes uint64
	AMs      uint64
	AMBytes  uint64
	AMOs     uint64
	DMAs     uint64
	DMABytes uint64
}

// Endpoint is one rank's attachment to the network.
type Endpoint struct {
	rank Rank
	net  *Network
	seg  *Segment
	ro   *obs.RankObs // this rank's observability recorder; nil = disabled

	devMu sync.Mutex
	devs  []*Segment // device segments; SegID i+1 is devs[i]

	qmu     sync.Mutex
	compQ   []func()    // completions to run on the owner during Poll
	amQ     []inboundAM // delivered AMs awaiting handler execution
	polling bool        // guards against recursive progress (restricted context)
	pollTok uint64      // opaque token of the goroutine draining amQ
	// A drain swaps a spare in for the queue it detaches, then hands that back.
	compSpare []func()
	amSpare   []inboundAM

	notify chan struct{} // 1-slot doorbell for WaitPending

	puts, putBytes, gets, getBytes, ams, amBytes, amos atomic.Uint64
	dmas, dmaBytes                                     atomic.Uint64
}

type inboundAM struct {
	src     Rank
	handler HandlerID
	payload []byte
	aux     any
}

// Rank returns this endpoint's rank.
func (ep *Endpoint) Rank() Rank { return ep.rank }

// Network returns the owning network.
func (ep *Endpoint) Network() *Network { return ep.net }

// Segment returns this rank's registered host segment.
func (ep *Endpoint) Segment() *Segment { return ep.seg }

// AddDeviceSegment registers a device-kind segment of size bytes on this
// rank — the conduit half of opening a device allocator — and returns its
// SegID. Device segments live until the network is torn down, like GPU
// segments registered with GASNet-EX memory kinds.
func (ep *Endpoint) AddDeviceSegment(size int) SegID {
	ep.devMu.Lock()
	defer ep.devMu.Unlock()
	if len(ep.devs) >= 1<<16-1 {
		panic("gasnet: device segment table overflow")
	}
	ep.devs = append(ep.devs, NewSegmentKind(size, KindDevice))
	return SegID(len(ep.devs))
}

// CloseDeviceSegment unregisters a device segment — the conduit half of
// closing a device allocator. The id is retired, never reused: later
// resolutions of pointers into the segment fault with a use-after-close
// error rather than silently reading unrelated memory, which is the
// poisoning the runtime promises for GPtrs that outlive their allocator.
func (ep *Endpoint) CloseDeviceSegment(id SegID) {
	ep.devMu.Lock()
	defer ep.devMu.Unlock()
	if id == HostSeg || int(id) > len(ep.devs) {
		panic(fmt.Sprintf("gasnet: rank %d: CloseDeviceSegment(%d): no such device segment (%d registered)",
			ep.rank, id, len(ep.devs)))
	}
	if ep.devs[id-1] == nil {
		panic(fmt.Sprintf("gasnet: rank %d: device segment %d closed twice", ep.rank, id))
	}
	ep.devs[id-1] = nil
}

// GrowDeviceSegment extends device segment id by extra bytes in place.
// Offsets into the segment are stable across growth, so outstanding
// GPtrs stay valid; the caller must quiesce transfers touching the
// segment first (the same contract as CloseDeviceSegment), because
// in-flight hop chains hold byte slices resolved against the old
// backing store. Growing a closed or unknown segment faults like a
// wild/poisoned pointer would.
func (ep *Endpoint) GrowDeviceSegment(id SegID, extra int) {
	ep.devMu.Lock()
	defer ep.devMu.Unlock()
	if id == HostSeg || int(id) > len(ep.devs) {
		panic(fmt.Sprintf("gasnet: rank %d: GrowDeviceSegment(%d): no such device segment (%d registered)",
			ep.rank, id, len(ep.devs)))
	}
	seg := ep.devs[id-1]
	if seg == nil {
		panic(fmt.Sprintf("gasnet: rank %d device segment %d is closed — grow after CloseDeviceAllocator",
			ep.rank, id))
	}
	seg.Grow(extra)
}

// ChargeFusedFold accounts one fused reduction kernel launch on this
// rank's device: `ways` landed child operands of n bytes each folded
// into the accumulator by a single launch. The launch occupies the
// device for the model's FoldGap, charged synchronously (folds run on
// the rank's execution persona, like RunKernel).
func (ep *Endpoint) ChargeFusedFold(n, ways int) {
	if ep.ro != nil {
		ep.ro.FusedFold(ways)
	}
	spinFor(ep.net.devCost.FoldGap(n, ways))
}

// DeviceSegments returns the number of device segments currently
// registered (open) on this rank.
func (ep *Endpoint) DeviceSegments() int {
	ep.devMu.Lock()
	defer ep.devMu.Unlock()
	n := 0
	for _, s := range ep.devs {
		if s != nil {
			n++
		}
	}
	return n
}

// SegByID resolves a segment id: 0 is the host segment, 1.. are device
// segments. An unknown id panics — the analogue of dereferencing a wild
// device pointer — and a closed one panics with a use-after-close fault.
func (ep *Endpoint) SegByID(id SegID) *Segment {
	seg, err := ep.lookupSeg(id)
	if err != nil {
		panic(err.Error())
	}
	return seg
}

// lookupSeg is SegByID reporting a bad id as an error, for ids that
// arrive off the wire rather than from a local pointer.
func (ep *Endpoint) lookupSeg(id SegID) (*Segment, error) {
	if id == HostSeg {
		return ep.seg, nil
	}
	ep.devMu.Lock()
	defer ep.devMu.Unlock()
	if int(id) > len(ep.devs) {
		return nil, fmt.Errorf("gasnet: rank %d has no device segment %d (%d registered) — wild device pointer",
			ep.rank, id, len(ep.devs))
	}
	seg := ep.devs[id-1]
	if seg == nil {
		return nil, fmt.Errorf("gasnet: rank %d device segment %d is closed — GPtr used after CloseDeviceAllocator",
			ep.rank, id)
	}
	return seg, nil
}

// Stats returns a snapshot of this endpoint's traffic counters.
func (ep *Endpoint) Stats() Stats {
	return Stats{
		Puts:     ep.puts.Load(),
		PutBytes: ep.putBytes.Load(),
		Gets:     ep.gets.Load(),
		GetBytes: ep.getBytes.Load(),
		AMs:      ep.ams.Load(),
		AMBytes:  ep.amBytes.Load(),
		AMOs:     ep.amos.Load(),
		DMAs:     ep.dmas.Load(),
		DMABytes: ep.dmaBytes.Load(),
	}
}

// countDMA records one descriptor of hop kind k on this rank's device
// copy engine: the endpoint totals, the obs per-kind counters, and (when
// armed) the legacy DMA hop trace.
func (ep *Endpoint) countDMA(k obs.DMAKind, n int) {
	ep.dmas.Add(1)
	ep.dmaBytes.Add(uint64(n))
	if ep.ro != nil {
		ep.ro.DMA(k, n)
	}
	if ep.net.dmaTraceOn.Load() {
		ep.net.dmaMu.Lock()
		ep.net.dmaTrace = append(ep.net.dmaTrace, DMAHop{Rank: ep.rank, Bytes: n, Kind: k})
		ep.net.dmaMu.Unlock()
	}
}

// syncDirect runs fn — a delivery goroutine's direct touch of segment
// memory or a user buffer (a one-sided put landing, a get serving) —
// under the endpoint queue lock. Every polling goroutine acquires that
// lock each progress pass, so the access is ordered against user-code
// reads and writes of the same memory: the conduit's ack/barrier
// protocol already provides the real-time ordering, but it runs through
// *other processes*, where the race detector cannot follow it; the lock
// turns it into a happens-before edge it can. fn must not enqueue
// (enqueueComp/enqueueAM re-lock the same mutex).
func (ep *Endpoint) syncDirect(fn func()) {
	ep.qmu.Lock()
	defer ep.qmu.Unlock()
	fn()
}

func (ep *Endpoint) enqueueComp(f func()) {
	ep.qmu.Lock()
	ep.compQ = append(ep.compQ, f)
	ep.qmu.Unlock()
	ep.Ring()
}

// enqueueAM queues delivered AMs, however many, under one lock and one ring.
func (ep *Endpoint) enqueueAM(ams ...inboundAM) {
	if len(ams) == 0 {
		return
	}
	ep.qmu.Lock()
	ep.amQ = append(ep.amQ, ams...)
	ep.qmu.Unlock()
	ep.Ring()
}

// Ring signals a blocked WaitPending without ever blocking the caller.
// The runtime rings it for deliveries that bypass the endpoint queues
// (persona LPCs), so a sleeping progress thread wakes for them too.
// Rings coalesce in the 1-slot doorbell: only a deposit that found the
// slot empty is counted (obs "rings"), so a batch of deliveries rung
// back-to-back causes — and counts as — one wakeup, not one per op.
func (ep *Endpoint) Ring() {
	select {
	case ep.notify <- struct{}{}:
		if ep.ro != nil {
			ep.ro.Ring()
		}
	default:
	}
}

// parkTimers holds the stopped timers of WaitPending calls that returned:
// every blocking operation on a process conduit parks once, so a timer per
// park would be a heap object per operation. A stopped timer's channel
// holds no stale tick (go.mod is at 1.24, whose timers guarantee that), so
// Reset on a pooled timer is safe.
var parkTimers sync.Pool

// WaitPending blocks until a delivery is waiting for Poll or d elapses,
// reporting whether work is (or may be) pending. Idle waiters use it to
// give up the processor instead of burning a core; the doorbell is
// best-effort, so callers must still poll after a timeout.
//
// AMs queued while another goroutine is mid-drain do not count as waiting:
// the caller's Poll would be refused them (PollAMsAs coalesces), so
// returning at once would turn its idle loop into a spin that never gives
// up the processor — on a one-P rank, the very processor the draining
// goroutine needs to finish its handler.
func (ep *Endpoint) WaitPending(d time.Duration) bool {
	ep.qmu.Lock()
	waiting := len(ep.compQ) > 0 || len(ep.amQ) > 0 && !ep.polling
	ep.qmu.Unlock()
	if waiting {
		return true
	}
	ep.net.be.poll(+1) // a park: polled memory is armed, then looked at once more (a find rings notify)
	t, _ := parkTimers.Get().(*time.Timer)
	if t == nil {
		t = time.NewTimer(d)
	} else {
		t.Reset(d)
	}
	rung := false
	select {
	case <-ep.notify:
		rung = true
	case <-t.C:
	}
	t.Stop()
	parkTimers.Put(t)
	ep.net.be.poll(-1)
	if rung {
		if ep.ro != nil {
			ep.ro.Wakeup()
		}
		return true
	}
	return ep.Pending()
}

// Yield gives the processor up without parking (core/idle.go): to the rank's other
// goroutines and, between processes, to the OS's next thread — the awaited peer on a
// shared CPU, else back at once. false: no yield will see the next message (poll's sock).
func (ep *Endpoint) Yield() bool {
	if ep.net.be.poll(0) {
		return false
	}
	if ep.ro != nil {
		ep.ro.IdleYield()
	}
	runtime.Gosched()
	if ep.net.cfg.Real != nil {
		osYield()
	}
	return true
}

// PollCompletions drains delivered operation completions (put/get acks,
// AMO results) without executing any Active Message handlers. This is the
// conduit-level half of "internal progress" in the paper's terms: it
// advances actQ bookkeeping but runs no user code beyond the runtime's own
// completion thunks.
func (ep *Endpoint) PollCompletions() int {
	ep.net.be.poll(0)
	ep.qmu.Lock()
	comp := ep.compQ
	if len(comp) == 0 {
		ep.qmu.Unlock()
		return 0
	}
	ep.compQ, ep.compSpare = ep.compSpare, nil
	ep.qmu.Unlock()
	for _, f := range comp {
		f()
	}
	clear(comp)
	ep.qmu.Lock()
	ep.compSpare = comp[:0]
	ep.qmu.Unlock()
	return len(comp)
}

// PollAMs executes delivered Active Messages on the calling goroutine —
// the user-level-progress half. Any goroutine making progress for the
// endpoint may call it; concurrent and recursive calls coalesce through
// the qmu-guarded polling flag (which doubles as UPC++'s restricted
// progress context), so at most one goroutine executes handlers at a
// time and handlers arriving while draining run on the next call.
func (ep *Endpoint) PollAMs() int { return ep.PollAMsAs(0) }

// PollAMsAs is PollAMs carrying an opaque poller token (the runtime passes
// the harvesting goroutine's id). While the call is draining handlers,
// PollerToken returns tok — letting handler code learn which goroutine is
// executing it without re-deriving the id per message.
func (ep *Endpoint) PollAMsAs(tok uint64) int {
	ep.net.be.poll(0)
	ep.qmu.Lock()
	ams := ep.amQ
	if ep.polling || len(ams) == 0 {
		ep.qmu.Unlock()
		return 0
	}
	ep.polling = true
	ep.pollTok = tok
	ep.amQ, ep.amSpare = ep.amSpare, nil
	ep.qmu.Unlock()

	for i := range ams {
		am := &ams[i]
		ep.net.handler(am.handler)(ep, am.src, am.payload, am.aux)
	}
	clear(ams)

	ep.qmu.Lock()
	ep.polling = false
	ep.pollTok = 0
	ep.amSpare = ams[:0]
	ep.qmu.Unlock()
	return len(ams)
}

// PollerToken returns the token passed to the PollAMsAs call currently
// executing handlers, or 0 outside a drain. Only meaningful when called
// from within an AM handler (where the draining claim is held).
func (ep *Endpoint) PollerToken() uint64 {
	ep.qmu.Lock()
	defer ep.qmu.Unlock()
	return ep.pollTok
}

// Poll drains completions then Active Messages, returning the number of
// items processed. An empty poll yields the processor so that delivery
// goroutines are never starved by poll loops on few-core hosts.
func (ep *Endpoint) Poll() int {
	n := ep.PollCompletions() + ep.PollAMs()
	if n == 0 {
		runtime.Gosched()
	}
	return n
}

// Pending reports whether deliveries are waiting for Poll.
func (ep *Endpoint) Pending() bool {
	ep.qmu.Lock()
	defer ep.qmu.Unlock()
	return len(ep.compQ) > 0 || len(ep.amQ) > 0
}

// spinFor burns CPU for d, modeling initiator software overhead.
func spinFor(d time.Duration) {
	if d <= 0 {
		return
	}
	t0 := time.Now()
	for time.Since(t0) < d {
	}
}

// RemoteAM describes an Active Message to deliver at the *destination*
// rank of a put or copy at the moment the transferred bytes become
// visible in the destination segment — the conduit half of remote
// completion (remote_cx), modeled on GASNet-EX's signaling put / remote
// completion events. The notification piggybacks on the transfer: it is
// enqueued on the destination at the landing timestamp of the final
// wire/DMA hop, costs no extra wire message, and the destination's AM
// handler is guaranteed to observe the transferred data.
//
// One RemoteAM may be shared by every fragment of a multi-fragment
// operation to a single destination (SetFragments): the conduit counts
// landings and enqueues the notification exactly once, when the
// last-landing fragment's bytes are in place — so the handler observes
// the whole operation without any initiator-side gating round trip.
type RemoteAM struct {
	Handler HandlerID
	Payload []byte
	Aux     any

	frags atomic.Int32 // shared landing countdown; 0 = single-shot
}

// SetFragments arms the AM to fire on the n'th landing instead of the
// first. Call before handing the AM to the conduit.
func (r *RemoteAM) SetFragments(n int) { r.frags.Store(int32(n)) }

// arm consumes one landing and reports whether it fires the AM: always
// for a single-shot AM, only the last for a counted one, never for nil.
// Backends call it once per fragment, where it lands (or, on the wire,
// where it is sent: per-peer FIFO makes the last sent the last to land).
func (r *RemoteAM) arm() bool {
	return r != nil && !(r.frags.Load() > 0 && r.frags.Add(-1) > 0)
}

// deliverRemote enqueues rem on dst's AM queue, attributed to this
// (initiating) endpoint. Callers invoke it only after the transfer's data
// is in dst's segment, so the enqueue publishes the data to the handler.
func (ep *Endpoint) deliverRemote(dst Rank, rem *RemoteAM) {
	if rem.arm() {
		ep.net.eps[dst].enqueueAM(inboundAM{src: ep.rank, handler: rem.Handler, payload: rem.Payload, aux: rem.Aux})
	}
}

// Put starts a one-sided put of src into (dst, dstOff). The source buffer
// is captured before Put returns (source completion is synchronous, as with
// an eager-copy rput). onAck, if non-nil, is delivered to this endpoint's
// completion queue once the data is globally visible at the target
// (operation completion; requires initiator attentiveness to observe, but
// the transfer itself completes without it).
func (ep *Endpoint) Put(dst Rank, dstOff uint64, src []byte, onAck func()) {
	ep.PutSegTag(dst, HostSeg, dstOff, src, onAck, nil, obs.OpTag{})
}

// PutSegTag is Put targeting any segment of the destination rank (seg 0
// is the host segment, higher ids device segments behind the target's DMA
// engine), with an optional remote-completion AM — enqueued on dst the
// instant the data is visible there, before the ack starts back — and the
// initiator's observability tag.
func (ep *Endpoint) PutSegTag(dst Rank, seg SegID, dstOff uint64, src []byte, onAck func(), rem *RemoteAM, tag obs.OpTag) {
	ep.puts.Add(1)
	ep.putBytes.Add(uint64(len(src)))
	ep.transfer(&xfer{
		src: loc{buf: src, isBuf: true, rank: ep.rank},
		dst: loc{rank: dst, seg: seg, off: dstOff},
		n:   len(src), onDone: onAck, rem: rem, tag: tag,
	})
}

// Get starts a one-sided get of len(dst) bytes from (src, srcOff) into dst.
// dst must not be read (or reused) until onDone is delivered via Poll.
func (ep *Endpoint) Get(src Rank, srcOff uint64, dst []byte, onDone func()) {
	ep.GetSegTag(src, HostSeg, srcOff, dst, onDone, obs.OpTag{})
}

// GetSegTag is Get reading from an arbitrary segment of the source rank
// (device sources drain through the source rank's DMA engine before the
// payload crosses the wire), carrying the initiator's observability tag.
// The payload lands at the *initiator* — that is where a get's data
// becomes visible — so the landing edge is recorded against ep.rank.
func (ep *Endpoint) GetSegTag(src Rank, seg SegID, srcOff uint64, dst []byte, onDone func(), tag obs.OpTag) {
	ep.gets.Add(1)
	ep.getBytes.Add(uint64(len(dst)))
	ep.transfer(&xfer{
		src: loc{rank: src, seg: seg, off: srcOff},
		dst: loc{buf: dst, isBuf: true, rank: ep.rank},
		n:   len(dst), onDone: onDone, tag: tag,
	})
}

// CopySegTag copies n bytes from (srcRank, srcSeg, srcOff) to (dstRank,
// dstSeg, dstOff), initiated by this endpoint, which may be a third party
// to both sides (upcxx::copy). onDone is delivered to this endpoint's
// completion queue; rem, if non-nil, is enqueued on dstRank the instant
// the final hop's bytes are in place. The source is read lazily, when
// the hop chain reaches it.
func (ep *Endpoint) CopySegTag(srcRank Rank, srcSeg SegID, srcOff uint64, dstRank Rank, dstSeg SegID, dstOff uint64, n int, onDone func(), rem *RemoteAM, tag obs.OpTag) {
	ep.puts.Add(1)
	ep.putBytes.Add(uint64(n))
	ep.transfer(&xfer{
		src: loc{rank: srcRank, seg: srcSeg, off: srcOff},
		dst: loc{rank: dstRank, seg: dstSeg, off: dstOff},
		n:   n, onDone: onDone, rem: rem, tag: tag,
	})
}

// AM sends an Active Message carrying payload to the handler h on dst. The
// payload is captured before AM returns. Delivery enqueues the handler on
// the target, which runs it at its next Poll — the target must be attentive
// for the message to execute, exactly as the paper describes for RPC.
//
// aux travels with the message as an opaque token (see AMHandler); pass nil
// when unused.
func (ep *Endpoint) AM(dst Rank, h HandlerID, payload []byte, aux any) {
	ep.AMTag(dst, h, nil, [][]byte{payload}, aux, obs.OpTag{})
}

// AMTag is the one AM path, carrying the initiator's observability tag (the
// landing edge fires when the message is enqueued at the target). The
// message is owned followed by the fragments of borrowed. owned belongs to
// the conduit from the call on (an in-process conduit delivers that very
// buffer); borrowed fragments may alias caller memory and are captured
// before AMTag returns, after which each is reusable (source completion).
func (ep *Endpoint) AMTag(dst Rank, h HandlerID, owned []byte, borrowed [][]byte, aux any, tag obs.OpTag) {
	n := amLen(owned, borrowed)
	ep.ams.Add(1)
	ep.amBytes.Add(uint64(n))
	tag.WireMsg(ep.rank, dst, n)
	ep.backendFor(dst == ep.rank).am(ep, dst, h, owned, borrowed, aux, tag)
}

// AMO issues a NIC-offloaded atomic on the 64-bit word at (dst, off). The
// operation executes at the target's segment without target CPU
// involvement; onResult (if non-nil) is delivered to this endpoint with the
// word's previous value.
func (ep *Endpoint) AMO(dst Rank, off uint64, op AMOOp, op1, op2 uint64, onResult func(old uint64)) {
	ep.AMOTag(dst, off, op, op1, op2, onResult, obs.OpTag{})
}

// AMOTag is AMO carrying the initiator's observability tag.
func (ep *Endpoint) AMOTag(dst Rank, off uint64, op AMOOp, op1, op2 uint64, onResult func(old uint64), tag obs.OpTag) {
	ep.amos.Add(1)
	tag.WireMsg(ep.rank, dst, 8)
	ep.backendFor(dst == ep.rank).amo(ep, dst, off, op, op1, op2, onResult, tag)
}
