package upcxx

import (
	"fmt"
	"sync"
	"sync/atomic"

	"upcxx/internal/obs"
)

// Personas (upcxx::persona, paper §II and the UPC++ v1.0 spec §10): a
// persona is an execution context that owns futures and receives LPCs —
// the unit of progress affinity within a rank. Every communication
// operation is initiated *by* a persona (the initiating goroutine's
// current persona) and its completion is delivered back *to* that
// persona, no matter which goroutine harvests it from the conduit. This
// is what lets a dedicated progress thread drive the network on behalf
// of many user goroutines: the progress thread observes completions and
// hands each one to the persona that initiated it through that persona's
// LPC queue, preserving the rule that futures are only ever touched from
// the goroutine holding their owning persona.
//
// Each rank has a distinguished master persona (held by the rank's SPMD
// goroutine during World.Run) and, in progress-thread mode, an internal
// progress persona owned by the progress goroutine (incoming RPC bodies
// and the collectives engine execute there). Any other goroutine that
// performs communication on a rank is bound a default persona
// automatically, or can create and activate personas explicitly with
// NewPersona and AcquirePersona (the analogue of upcxx::persona_scope).
// Collectives may be initiated from any persona: entry is handed off to
// the rank's execution persona and completions route back to the
// initiator (see coll.go).

// lpcNode is one entry of a persona's LPC queue: an intrusive
// multi-producer stack node. Producers push with a CAS; the owning
// goroutine detaches the whole stack and reverses it, which yields
// global FIFO order (the order in which the pushes linearized).
type lpcNode struct {
	fn   func()
	next *lpcNode
}

// Persona is a per-thread execution context: a lock-free LPC queue plus
// ownership bookkeeping. LPCs may be enqueued from any goroutine; draining
// (which happens inside user-level progress) only ever runs on the
// goroutine currently holding the persona.
type Persona struct {
	rk   *Rank
	name string

	holder atomic.Uint64 // goroutine id holding the persona; 0 when unheld
	head   atomic.Pointer[lpcNode]
	npend  atomic.Int64
	nbody  atomic.Int64 // incoming bodies queued by queueBody and not yet run

	oc *obs.PersonaCount // LPC counters of this persona's name; nil = stats disabled
}

// NewPersona creates an unheld persona on rk. Activate it on a goroutine
// with AcquirePersona before initiating communication through it.
func NewPersona(rk *Rank, name string) *Persona {
	p := &Persona{rk: rk, name: name}
	if rk.ro != nil {
		p.oc = rk.ro.Persona(name)
	}
	return p
}

// Rank returns the rank this persona belongs to.
func (p *Persona) Rank() *Rank { return p.rk }

// Name returns the diagnostic name given at creation.
func (p *Persona) Name() string { return p.name }

// PendingLPCs returns the number of enqueued-but-unexecuted LPCs.
func (p *Persona) PendingLPCs() int { return int(p.npend.Load()) }

func (p *Persona) String() string {
	return fmt.Sprintf("persona %q (rank %d, %d pending)", p.name, p.rk.me, p.npend.Load())
}

// lpc enqueues fn for execution during a future user-level progress call
// of the goroutine holding this persona. Safe to call from any goroutine;
// delivery is FIFO in enqueue order. Every LPC the runtime delivers — a
// completion, a routed fulfilment, a queued body — is one call of it.
func (p *Persona) lpc(fn func()) {
	if p.oc != nil {
		p.oc.Enq.Add(1)
	}
	// Count before publishing: PendingLPCs may transiently over-report,
	// never under-report, so quiescence checks stay conservative.
	p.npend.Add(1)
	nd := &lpcNode{fn: fn}
	for {
		old := p.head.Load()
		nd.next = old
		if p.head.CompareAndSwap(old, nd) {
			break
		}
	}
	// Wake a progress thread sleeping on the conduit doorbell: persona
	// deliveries bypass the endpoint queues it watches. The doorbell has
	// one slot, so LPCs pushed while nobody drains wake the owner once.
	p.rk.ep.Ring()
}

// queueBody enqueues an incoming RPC or remote-completion body — the
// queued half of a bodyQueue decision (rpc.go). nbody counts it until it
// has run, which is what keeps later bodies from overtaking it.
func (p *Persona) queueBody(fn func()) {
	p.nbody.Add(1)
	p.lpc(func() {
		fn()
		p.nbody.Add(-1)
	})
}

// LPCTo delivers fn to persona p — the cross-thread local procedure call
// of upcxx::persona::lpc (fire-and-forget form). It runs during a later
// user-level progress call of the goroutine holding p, after every LPC
// enqueued on p before it.
func LPCTo(p *Persona, fn func()) { p.lpc(fn) }

// drain executes every LPC enqueued before the call, in FIFO order, and
// returns the count. Must only be called by the goroutine holding p.
// LPCs enqueued by the drained functions themselves run at the next
// drain, mirroring the compQ snapshot semantics of user progress.
func (p *Persona) drain() int {
	top := p.head.Swap(nil)
	if top == nil {
		return 0
	}
	// Reverse the detached stack to recover enqueue order.
	var fifo *lpcNode
	n := 0
	for top != nil {
		next := top.next
		top.next = fifo
		fifo = top
		top = next
		n++
	}
	for fifo != nil {
		fifo.fn()
		p.npend.Add(-1) // after execution: PendingLPCs never under-reports
		fifo = fifo.next
	}
	if p.oc != nil {
		p.oc.Exec.Add(uint64(n))
	}
	return n
}

// onOwnerGoroutine reports whether the calling goroutine currently holds
// this persona.
func (p *Persona) onOwnerGoroutine() bool {
	h := p.holder.Load()
	return h != 0 && h == curGID()
}

// quiet reports whether the calling goroutine holds p and nothing is queued
// on it: what may be run in place without overtaking an earlier LPC.
func (p *Persona) quiet() bool { return p.onOwnerGoroutine() && p.npend.Load() == 0 }

// --- per-goroutine persona state ---------------------------------------

// goroutineState is the calling goroutine's persona stack: explicitly
// acquired personas (innermost last) plus lazily created default
// personas, one per rank the goroutine has touched without an explicit
// scope. Only the owning goroutine reads or writes its state; the
// registry map itself is the only cross-goroutine structure.
type goroutineState struct {
	stack      []*Persona
	defaults   map[*Rank]*Persona
	restricted bool // inside user-level progress (callback/RPC body)
}

var tlsStates sync.Map // goroutine id (curGID, goid.go) -> *goroutineState

func curState() *goroutineState {
	id := curGID()
	if v, ok := tlsStates.Load(id); ok {
		return v.(*goroutineState)
	}
	gs := &goroutineState{defaults: make(map[*Rank]*Persona)}
	tlsStates.Store(id, gs)
	return gs
}

// currentPersona returns the calling goroutine's active persona for rk:
// the innermost acquired persona belonging to rk, or a default persona
// bound to this goroutine on first use.
func (rk *Rank) currentPersona() *Persona {
	gs := curState()
	for i := len(gs.stack) - 1; i >= 0; i-- {
		if gs.stack[i].rk == rk {
			return gs.stack[i]
		}
	}
	if p, ok := gs.defaults[rk]; ok {
		return p
	}
	p := NewPersona(rk, "default")
	p.holder.Store(curGID())
	gs.defaults[rk] = p
	return p
}

// CurrentPersona returns the calling goroutine's active persona for this
// rank (upcxx::current_persona).
func (rk *Rank) CurrentPersona() *Persona { return rk.currentPersona() }

// MasterPersona returns the rank's master persona
// (upcxx::master_persona): the persona World.Run activates on the rank's
// SPMD goroutine, and — outside progress-thread mode — the rank's
// durable execution persona (incoming RPC bodies and collective state
// advance there).
func (rk *Rank) MasterPersona() *Persona { return rk.master }

// ProgressPersona returns the persona owned by the rank's dedicated
// progress goroutine, or nil when Config.ProgressThread is off. Incoming
// RPC bodies run with it current in progress-thread mode.
func (rk *Rank) ProgressPersona() *Persona {
	if !rk.w.cfg.ProgressThread {
		return nil
	}
	return rk.progressP
}

// execPersona returns the rank's durable execution persona: the
// progress persona in progress-thread mode, the master persona
// otherwise. Incoming RPC bodies run on it (bodyQueue) and the
// collectives engine advances on it, which is what lets any persona
// initiate a collective — the owner handoff replaces the old
// master-persona pin (and its panic) entirely.
func (rk *Rank) execPersona() *Persona {
	if rk.w.cfg.ProgressThread {
		return rk.progressP
	}
	return rk.master
}

// PersonaScope pins a persona to the calling goroutine for a region of
// code, like the RAII upcxx::persona_scope. Scopes nest (LIFO): the
// innermost scope's persona is the goroutine's current persona for its
// rank, and Release must be called in reverse acquisition order.
type PersonaScope struct {
	gid      uint64
	p        *Persona
	released bool
}

// AcquirePersona makes p current on the calling goroutine until the
// returned scope is released. Acquiring a persona held by another
// goroutine panics: a persona belongs to at most one thread at a time.
// Re-acquiring a persona the goroutine already holds is permitted
// (nested scopes of the same persona).
func AcquirePersona(p *Persona) *PersonaScope {
	id := curGID()
	if !p.holder.CompareAndSwap(0, id) && p.holder.Load() != id {
		panic(fmt.Sprintf("upcxx: %v is already held by another goroutine", p))
	}
	gs := curState()
	gs.stack = append(gs.stack, p)
	return &PersonaScope{gid: id, p: p}
}

// Release ends the scope. It must run on the goroutine that acquired it,
// and scopes must be released innermost-first.
func (sc *PersonaScope) Release() {
	if sc.released {
		panic("upcxx: PersonaScope released twice")
	}
	id := curGID()
	if id != sc.gid {
		panic("upcxx: PersonaScope released on a different goroutine than acquired")
	}
	gs := curState()
	if len(gs.stack) == 0 || gs.stack[len(gs.stack)-1] != sc.p {
		panic("upcxx: PersonaScope released out of LIFO order")
	}
	sc.released = true
	gs.stack = gs.stack[:len(gs.stack)-1]
	if !gs.holds(sc.p) {
		sc.p.holder.Store(0)
	}
	if len(gs.stack) == 0 && len(gs.defaults) == 0 {
		tlsStates.Delete(id)
	}
}

// holds reports whether the goroutine still holds p through a remaining
// scope or as one of its default personas (a default stays held by its
// goroutine even when an explicit re-acquisition of it is released).
func (gs *goroutineState) holds(p *Persona) bool {
	for _, q := range gs.stack {
		if q == p {
			return true
		}
	}
	for _, q := range gs.defaults {
		if q == p {
			return true
		}
	}
	return false
}

// DetachDefaultPersonas discards the calling goroutine's automatically
// bound default personas for every rank and, if no explicit scopes
// remain, removes the goroutine's persona state entirely. Long-lived
// applications that spawn a goroutine per task should defer this in
// every worker goroutine that communicates, after its operations have
// completed — otherwise the global persona registry grows with every
// goroutine ever used for communication. LPCs still queued on a
// detached persona are never delivered.
func DetachDefaultPersonas() {
	id := curGID()
	v, ok := tlsStates.Load(id)
	if !ok {
		return
	}
	gs := v.(*goroutineState)
	for rk, p := range gs.defaults {
		delete(gs.defaults, rk)
		if !gs.holds(p) {
			p.holder.Store(0)
		}
	}
	if len(gs.stack) == 0 {
		tlsStates.Delete(id)
	}
}

// drainPersonas runs the LPC queues of every persona of rk held by the
// calling goroutine (acquired scopes plus the default persona, if any),
// returning the number of LPCs executed.
func (rk *Rank) drainPersonas(gs *goroutineState) int {
	n := 0
	rk.forEachHeldPersona(gs, func(p *Persona) { n += p.drain() })
	return n
}

// forEachHeldPersona visits every persona of rk the calling goroutine
// holds: acquired scopes (snapshotted — visited functions may
// acquire/release scopes themselves) plus the default persona, if any.
func (rk *Rank) forEachHeldPersona(gs *goroutineState, visit func(*Persona)) {
	// Index-based, no snapshot allocation: visit callbacks run on this
	// same goroutine and may only append scopes (Acquire) or pop the
	// tail (Release enforces LIFO), so re-reading len each step keeps
	// the walk safe. This sits inside every Progress call — twice.
	for i := 0; i < len(gs.stack); i++ {
		if p := gs.stack[i]; p.rk == rk {
			visit(p)
		}
	}
	if p, ok := gs.defaults[rk]; ok {
		visit(p)
	}
}
