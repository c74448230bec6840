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
// goroutine during Poll. The payload is the handler's to keep unless it hands
// it back (Endpoint.ReleasePayload): every backend delivers a buffer nobody
// writes again — the sender's owned message in-process, a slab the burst was
// copied into off the socket or the ring, a bulk frame's own body — so the RPC
// layer queues bodies, and the task runtime arguments, that alias it
// (TestConformanceAMPayloadIsTheHandlersToKeep), each keeping its buffer alive.
// A handler that keeps it asks Endpoint.KeepPayload whether it is a body of its
// own; only then does the RPC layer decode a []byte or string in place, as a
// small one kept from a shared slab would pin the whole burst.
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
	RanksPerNode int    // 0 means all ranks share one node
	SegmentSize  int    // per-rank segment bytes; 0 means 8 MiB
	Model        *LogGP // nil means zero-delay delivery
	// DMA is the device copy-engine model used for transfers touching
	// device-kind segments. nil means PCIe3 under a Model and zero cost
	// otherwise; with a zero-delay network device hops are always
	// instantaneous.
	DMA *PCIeDMA
	// Obs, when non-nil, is the job's observability recorder (sized to
	// Ranks): each endpoint counts into its rank's table, and records
	// doorbell and idle counters, wire messages per peer and op-lifecycle
	// hops too. nil leaves each endpoint a table of its own for the
	// always-on traffic counters and records nothing else.
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
	gdr bool     // every endpoint's engine is GPUDirect-capable
	dma *PCIeDMA // the device copy engine's costs, Config.DMA defaulted
	// clocked: a timing model is installed, and every endpoint keeps a model
	// clock (Charge, Clock) and a timed queue of what lands on it.
	clocked bool
	eps     []*Endpoint
	be      backend // carries operations that leave the initiating rank
	self    backend // carries rank-local operations (see backendFor)

	hmu      sync.Mutex                  // serializes RegisterAM
	handlers atomic.Pointer[[]AMHandler] // replaced by RegisterAM: dispatch reads it without a lock
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
	dma := cfg.DMA
	if dma == nil {
		if cfg.Model != nil {
			dma = PCIe3()
		} else {
			dma = &PCIeDMA{}
		}
	}
	if cfg.Obs != nil && cfg.Obs.Ranks() != cfg.Ranks {
		panic("gasnet: Config.Obs sized for a different job")
	}
	n := &Network{cfg: cfg, gdr: dma.GDR, dma: dma, eps: make([]*Endpoint, cfg.Ranks)}
	n.handlers.Store(new([]AMHandler))
	hosted := func(r int) {
		ep := &Endpoint{rank: Rank(r), net: n, seg: NewSegment(cfg.SegmentSize), notify: make(chan struct{}, 1)}
		if cfg.Obs != nil {
			ep.ro = cfg.Obs.Rank(r)
			ep.ctr = &ep.ro.Table
		} else {
			ep.ctr = new(obs.Table)
		}
		n.eps[r] = ep
	}
	// The backend is chosen here, once, from what Config says.
	switch {
	case cfg.Real != nil:
		// Real multi-process backend: this process hosts exactly one
		// endpoint; every other rank is a separate OS process reached
		// through the wire. A timing model makes no sense here.
		if cfg.Model != nil {
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
	case cfg.Model != nil:
		n.be = newLogGP(cfg.Model, dma, cfg.Ranks)
		n.clocked = true
	default:
		n.be = loopback{}
	}
	n.self = n.be
	for r := 0; r < cfg.Ranks; r++ {
		hosted(r)
	}
	return n
}

// ConduitInfo snapshots the backend's identity and, on a wire conduit, the
// hosted endpoint's transport counters; an in-process conduit reports
// Backend "model" and no traffic.
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
	hs := append(*n.handlers.Load(), h) // past every published length: no reader looks there
	if len(hs) > 1<<16 {
		panic("gasnet: AM handler table overflow")
	}
	n.handlers.Store(&hs)
	return HandlerID(len(hs) - 1)
}

func (n *Network) handler(id HandlerID) AMHandler {
	hs := *n.handlers.Load()
	if int(id) >= len(hs) {
		panic(fmt.Sprintf("gasnet: AM to unregistered handler %d", id))
	}
	return hs[id]
}

// Close shuts the backend down (idempotent). Outstanding operations are
// dropped; call only after the job has quiesced.
func (n *Network) Close() { n.be.close() }

// Stats is the view of an endpoint's operation counters (obs.Puts ..
// obs.AMOs) that the committed benchmark reads.
type Stats struct {
	Puts     uint64
	PutBytes uint64
	Gets     uint64
	GetBytes uint64
	AMs      uint64
	AMBytes  uint64
	AMOs     uint64
}

// Endpoint is one rank's attachment to the network.
type Endpoint struct {
	rank Rank
	net  *Network
	seg  *Segment
	ro   *obs.RankObs // this rank's observability recorder; nil = disabled
	ctr  *obs.Table   // this rank's counters: ro's table, or the endpoint's own

	devMu sync.Mutex
	devs  []*Segment // device segments; SegID i+1 is devs[i]

	qmu      sync.Mutex
	compQ    []completion // completions to run on the owner during Poll
	amQ      []inboundAM  // delivered AMs awaiting handler execution
	polling  bool         // guards against recursive progress (restricted context)
	released bool         // the handler PollAMs runs returned its payload (ReleasePayload)
	amOwn    bool         // its payload is a body of its own (inboundAM.own, KeepPayload)
	// A drain swaps a spare in for the queue it detaches, then hands that back.
	compSpare []completion
	amSpare   []inboundAM

	notify chan struct{} // 1-slot doorbell for WaitPending

	// Model time (a clocked network only): the rank's clock, in nanoseconds
	// since the network was made, and what has been sent to the rank stamped
	// with when it lands — a completion or an AM, harvested into compQ/amQ
	// once the clock reaches the stamp.
	clock atomic.Int64
	tmu   sync.Mutex
	timed Queue[time.Duration]
}

type inboundAM struct {
	src     Rank
	handler HandlerID
	own     bool // payload lies in a bulk frame's body, pooled or not, holding no other message
	payload []byte
	aux     any
	body    *recvBody // the pooled body payload lies in (a bulk frame's); nil: nothing to hand back
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
// device for the model's FoldGap, charged to the rank's clock (folds run
// on the rank's execution persona, like RunKernel).
func (ep *Endpoint) ChargeFusedFold(n, ways int) {
	if ep.ro != nil {
		ep.ro.Add(obs.FusedFolds, 1)
		ep.ro.Add(obs.FusedChildren, uint64(ways))
	}
	ep.Charge(ep.net.dma.FoldGap(n, ways))
}

// Charge advances the rank's model clock by d, the CPU time the rank spends
// on something the model prices — LogGP overhead, a DMA descriptor, a fused
// fold, MPI's protocol costs — and returns the clock. Without a timing model
// it does nothing and returns 0.
func (ep *Endpoint) Charge(d time.Duration) time.Duration {
	if !ep.net.clocked {
		return 0
	}
	return time.Duration(ep.clock.Add(int64(d)))
}

// Clock is the rank's model clock: the model time the rank has spent since
// the network was made. Always 0 without a timing model.
func (ep *Endpoint) Clock() time.Duration { return time.Duration(ep.clock.Load()) }

// completeAt queues c to run on this endpoint's completion queue at model time t.
func (ep *Endpoint) completeAt(t time.Duration, c completion) {
	ep.schedule(t, func() { ep.enqueueComp(c) })
}

// deliverAt queues am on this endpoint's AM queue at model time t, when its
// landing is recorded against tag.
func (ep *Endpoint) deliverAt(t time.Duration, am inboundAM, tag obs.OpTag) {
	ep.schedule(t, func() {
		ep.enqueueAM(am)
		tag.Landing(ep.rank, len(am.payload))
	})
}

func (ep *Endpoint) schedule(t time.Duration, fn func()) {
	ep.tmu.Lock()
	ep.timed.At(t, fn)
	ep.tmu.Unlock()
	ep.Ring()
}

// harvest moves what has landed by the rank's clock from its timed queue to
// the queues Poll drains. A no-op without a timing model.
func (ep *Endpoint) harvest() {
	if !ep.net.clocked {
		return
	}
	ep.tmu.Lock()
	ep.timed.RunUntil(ep.Clock())
	ep.tmu.Unlock()
}

// Advance moves the rank's clock to its next event — what a wait does under a
// timing model: the rank passes model time until something reaches it — and
// reports whether one waits. Without a timing model it does nothing.
func (ep *Endpoint) Advance() bool {
	if !ep.net.clocked {
		return false
	}
	ep.tmu.Lock()
	t, ok := ep.timed.Next()
	ep.tmu.Unlock()
	for c := ep.clock.Load(); ok && c < int64(t) && !ep.clock.CompareAndSwap(c, int64(t)); c = ep.clock.Load() {
	}
	return ok
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

// Counters returns this rank's counter table: the traffic counters the
// conduit keeps always, and under a recorder (Config.Obs) everything else.
func (ep *Endpoint) Counters() *obs.Table { return ep.ctr }

// Stats returns the view of this endpoint's operation counters.
func (ep *Endpoint) Stats() Stats {
	t := ep.ctr
	return Stats{
		Puts: t.Load(obs.Puts), PutBytes: t.Load(obs.PutBytes), Gets: t.Load(obs.Gets), GetBytes: t.Load(obs.GetBytes),
		AMs: t.Load(obs.AMs), AMBytes: t.Load(obs.AMBytes), AMOs: t.Load(obs.AMOs),
	}
}

// countDMA counts one descriptor of kind k, n bytes, on this rank's device
// copy engine.
func (ep *Endpoint) countDMA(k obs.DMAKind, n int) {
	ep.ctr.Add(k.Descriptors(), 1)
	ep.ctr.Add(k.Bytes(), uint64(n))
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

// completion is one queued completion: fn, or an atomic's result callback
// with the previous value — no closure per atomic to bind the two.
type completion struct {
	fn  func()
	res func(old uint64)
	old uint64
}

// enqueueComp queues completions, however many (one ack's), under one lock and one ring.
func (ep *Endpoint) enqueueComp(cs ...completion) {
	ep.qmu.Lock()
	ep.compQ = append(ep.compQ, cs...)
	ep.qmu.Unlock()
	ep.Ring()
}

// queueDone queues the callback of an operation a callback-taking call
// (Put, Get, AMO) saw finish in the call, so Poll delivers it as always.
func (ep *Endpoint) queueDone(c completion) {
	if c.fn != nil || c.res != nil {
		ep.enqueueComp(c)
	}
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
// slot empty is counted (obs.DoorbellRings), so a batch of deliveries rung
// back-to-back causes — and counts as — one wakeup, not one per op.
func (ep *Endpoint) Ring() {
	select {
	case ep.notify <- struct{}{}:
		if ep.ro != nil {
			ep.ro.Add(obs.DoorbellRings, 1)
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
// best-effort, so callers must still poll after a timeout. It keeps the
// model clock: a waiter that passes model time calls Advance first.
//
// AMs queued while another goroutine is mid-drain do not count as waiting:
// the caller's Poll would be refused them (PollAMs coalesces), so
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
			ep.ro.Add(obs.Wakeups, 1)
		}
		return true
	}
	return ep.Pending()
}

// Yield gives the processor up without parking (the runtime's idle.go): to the rank's other
// goroutines and, between processes, to the OS's next thread — the awaited peer on a
// shared CPU, else back at once. false: no yield will see the next message (poll's
// sock) — it is a socket reader's, parked in the netpoller, which runs only once
// some P finds nothing else runnable: a yielding waiter keeps that from happening,
// on one P always, on more whenever the rank's other goroutines poll too.
// worked counts the caller's progress passes that found work: one that moves
// during the Gosched has work for the waiter's next pass, so it keeps the CPU.
func (ep *Endpoint) Yield(worked *atomic.Uint64) bool {
	if ep.net.be.poll(0) {
		return false
	}
	if ep.ro != nil {
		ep.ro.Add(obs.IdleYields, 1)
	}
	w := worked.Load()
	runtime.Gosched()
	if ep.net.cfg.Real != nil && worked.Load() == w {
		if ep.ro != nil {
			ep.ro.Add(obs.OSYields, 1)
		}
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
	ep.harvest()
	ep.qmu.Lock()
	comp := ep.compQ
	if len(comp) == 0 {
		ep.qmu.Unlock()
		return 0
	}
	ep.compQ, ep.compSpare = ep.compSpare, nil
	ep.qmu.Unlock()
	for _, c := range comp {
		if c.res != nil {
			c.res(c.old)
		} else {
			c.fn()
		}
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
func (ep *Endpoint) PollAMs() int {
	ep.net.be.poll(0)
	ep.harvest()
	ep.qmu.Lock()
	ams := ep.amQ
	if ep.polling || len(ams) == 0 {
		ep.qmu.Unlock()
		return 0
	}
	ep.polling = true
	ep.amQ, ep.amSpare = ep.amSpare, nil
	ep.qmu.Unlock()

	for i := range ams {
		am := &ams[i]
		ep.amOwn, ep.released = am.own, false
		ep.net.handler(am.handler)(ep, am.src, am.payload, am.aux)
		if ep.released && am.body != nil {
			am.body.release()
		}
	}
	ep.amOwn = false
	clear(ams)

	ep.qmu.Lock()
	ep.polling = false
	ep.amSpare = ams[:0]
	ep.qmu.Unlock()
	return len(ams)
}

// ReleasePayload, called inside an AM handler PollAMs runs, says nothing reads
// its payload once it returns: the conduit may read another message into it.
func (ep *Endpoint) ReleasePayload() { ep.released = true }

// KeepPayload, called inside an AM handler PollAMs runs by a handler that
// keeps its payload (it does not call ReleasePayload), reports whether the
// payload is a body of its own: a bulk frame's, holding no other message.
// Then a slice of it kept pins no other message's bytes; a pooled body that
// is not released never goes back to its pool.
func (ep *Endpoint) KeepPayload() (own bool) { return ep.amOwn }

// Poll drains completions then Active Messages, returning the number of
// items processed. An empty poll advances the model clock to the rank's next
// event and polls again; with none, it yields the processor so that delivery
// goroutines are never starved by poll loops on few-core hosts.
func (ep *Endpoint) Poll() int {
	n := ep.PollCompletions() + ep.PollAMs()
	if n == 0 {
		if ep.Advance() {
			return ep.PollCompletions() + ep.PollAMs()
		}
		runtime.Gosched()
	}
	return n
}

// Pending reports whether deliveries are waiting for Poll, in model time too.
func (ep *Endpoint) Pending() bool {
	ep.qmu.Lock()
	queued := len(ep.compQ) > 0 || len(ep.amQ) > 0
	ep.qmu.Unlock()
	if queued || !ep.net.clocked {
		return queued
	}
	ep.tmu.Lock()
	defer ep.tmu.Unlock()
	return ep.timed.Len() > 0
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
// the transfer itself completes without it) — through Poll, also when the
// conduit finished the put inside the call.
func (ep *Endpoint) Put(dst Rank, dstOff uint64, src []byte, onAck func()) {
	if ep.PutSegTag(dst, HostSeg, dstOff, src, onAck, nil, obs.OpTag{}) {
		ep.queueDone(completion{fn: onAck})
	}
}

// PutSegTag is Put targeting any segment of the destination rank (seg 0
// is the host segment, higher ids device segments behind the target's DMA
// engine), with an optional remote-completion AM — enqueued on dst the
// instant the data is visible there, before the ack starts back — and the
// initiator's observability tag. now reports a put the conduit finished in
// the call (loopback, a memcpy into a shm peer's host segment): onAck is
// then never called, and nothing is queued — the caller completes it.
func (ep *Endpoint) PutSegTag(dst Rank, seg SegID, dstOff uint64, src []byte, onAck func(), rem *RemoteAM, tag obs.OpTag) (now bool) {
	ep.ctr.Add(obs.Puts, 1)
	ep.ctr.Add(obs.PutBytes, uint64(len(src)))
	return ep.transfer(&xfer{
		src: loc{buf: src, isBuf: true, rank: ep.rank},
		dst: loc{rank: dst, seg: seg, off: dstOff},
		n:   len(src), onDone: onAck, rem: rem, tag: tag,
	})
}

// Get starts a one-sided get of len(dst) bytes from (src, srcOff) into dst.
// dst must not be read (or reused) until onDone is delivered via Poll.
func (ep *Endpoint) Get(src Rank, srcOff uint64, dst []byte, onDone func()) {
	if ep.GetSegTag(src, HostSeg, srcOff, dst, onDone, obs.OpTag{}) {
		ep.queueDone(completion{fn: onDone})
	}
}

// GetSegTag is Get reading from an arbitrary segment of the source rank
// (device sources drain through the source rank's DMA engine before the
// payload crosses the wire), carrying the initiator's observability tag.
// The payload lands at the *initiator* — that is where a get's data
// becomes visible — so the landing edge is recorded against ep.rank. now
// is PutSegTag's: dst already holds the data, and onDone is not called.
func (ep *Endpoint) GetSegTag(src Rank, seg SegID, srcOff uint64, dst []byte, onDone func(), tag obs.OpTag) (now bool) {
	ep.ctr.Add(obs.Gets, 1)
	ep.ctr.Add(obs.GetBytes, uint64(len(dst)))
	return ep.transfer(&xfer{
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
// the hop chain reaches it. now is PutSegTag's.
func (ep *Endpoint) CopySegTag(srcRank Rank, srcSeg SegID, srcOff uint64, dstRank Rank, dstSeg SegID, dstOff uint64, n int, onDone func(), rem *RemoteAM, tag obs.OpTag) (now bool) {
	ep.ctr.Add(obs.Puts, 1)
	ep.ctr.Add(obs.PutBytes, uint64(n))
	return ep.transfer(&xfer{
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
	ep.ctr.Add(obs.AMs, 1)
	ep.ctr.Add(obs.AMBytes, uint64(n))
	tag.WireMsg(ep.rank, dst, n)
	ep.backendFor(dst == ep.rank).am(ep, dst, h, owned, borrowed, aux, tag)
}

// AMO issues a NIC-offloaded atomic on the 64-bit word at (dst, off). The
// operation executes at the target's segment without target CPU
// involvement; onResult (if non-nil) is delivered to this endpoint with the
// word's previous value, through Poll.
func (ep *Endpoint) AMO(dst Rank, off uint64, op AMOOp, op1, op2 uint64, onResult func(old uint64)) {
	if old, now := ep.AMOTag(dst, off, op, op1, op2, onResult, obs.OpTag{}); now {
		ep.queueDone(completion{res: onResult, old: old})
	}
}

// AMOTag is AMO carrying the initiator's observability tag. now reports an
// atomic the conduit finished in the call, whose previous value is old:
// onResult is then never called (PutSegTag's contract).
func (ep *Endpoint) AMOTag(dst Rank, off uint64, op AMOOp, op1, op2 uint64, onResult func(old uint64), tag obs.OpTag) (old uint64, now bool) {
	ep.ctr.Add(obs.AMOs, 1)
	tag.WireMsg(ep.rank, dst, 8)
	return ep.backendFor(dst == ep.rank).amo(ep, dst, off, op, op1, op2, onResult, tag)
}
