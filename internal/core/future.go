// Package upcxx implements the UPC++ v1.0 programming model from the paper
// "UPC++: A High-Performance Communication Framework for Asynchronous
// Computation" (IPDPS 2019) on top of the gasnet conduit package.
//
// The package provides SPMD execution (World/Run), a partitioned global
// address space of per-rank segments addressed by global pointers (GPtr),
// one-sided RMA (RPut/RGet and the vector/indexed/strided variants),
// remote procedure calls (RPC/RPCFF) with view-based serialization,
// future/promise asynchrony, teams with non-blocking collectives,
// distributed objects and NIC-offloaded remote atomics.
//
// Asynchrony model (paper §II–III): every communication operation is
// non-blocking and returns a Future (or feeds a Promise). Completions and
// incoming RPCs execute only during user-level progress — Progress, Wait —
// on the goroutine holding the owning persona (see persona.go); the only
// hidden progress goroutines are the optional per-rank progress threads
// enabled by Config.ProgressThread. Futures and promises are deliberately
// NOT thread-safe: like their UPC++ counterparts they are owned by the
// persona that created them, and cross-thread interaction goes through
// persona LPC queues, never through shared future state.
package upcxx

import (
	"fmt"
	"time"
)

// Unit is the empty payload of futures that convey only readiness, the
// analogue of upcxx::future<>.
type Unit = struct{}

// futCore is the shared state behind a Future/Promise pair. It is owned
// by the persona current on the creating goroutine: state is only
// touched from the goroutine holding that persona, and fulfillment
// arriving on any other goroutine is rerouted through the owner's LPC
// queue.
type futCore[T any] struct {
	rk    *Rank
	pers  *Persona
	ready bool
	val   T
	cbs   []func(T)
}

// newFutCore creates future state owned by the calling goroutine's
// current persona.
func newFutCore[T any](rk *Rank) *futCore[T] {
	return &futCore[T]{rk: rk, pers: rk.currentPersona()}
}

func (c *futCore[T]) fulfill(v T) {
	if c.pers != nil && !c.pers.onOwnerGoroutine() {
		// Fulfillment observed off the owning persona's goroutine (a
		// progress thread harvesting a completion, a teammate's LPC):
		// continuations must fire where the future lives.
		c.pers.LPC(func() { c.fulfillOwned(v) })
		return
	}
	c.fulfillOwned(v)
}

// fulfillOwned is fulfill for callers already known to be on the owning
// persona's goroutine — above all LPCs delivered to that persona, whose
// drain only ever runs on the owner. It skips the goroutine-id check
// (curGID walks the stack: ≈ 420 ns per caller frame) that fulfill would otherwise pay on
// every harvested completion; the runtime's RMA/RPC/AMO completion LPCs
// all land here.
func (c *futCore[T]) fulfillOwned(v T) {
	if c.ready {
		panic("upcxx: future fulfilled twice")
	}
	c.val = v
	c.ready = true
	cbs := c.cbs
	c.cbs = nil
	for _, cb := range cbs {
		cb(v)
	}
}

// onReady runs cb when the value is available: immediately if already
// ready, otherwise at fulfillment (which happens during user progress for
// communication-backed futures).
func (c *futCore[T]) onReady(cb func(T)) {
	if c.ready {
		cb(c.val)
		return
	}
	c.cbs = append(c.cbs, cb)
}

// Future is the consumer side of a non-blocking operation: the interface
// through which status is queried, results retrieved, and callbacks
// chained. The zero Future is invalid; futures are created by
// communication operations, promises, and the combinators in this package.
//
// A future is owned by the persona current when it was created and must
// only be touched from the goroutine holding that persona; combinators
// (Then, WhenAll, ...) must conjoin futures of one persona.
type Future[T any] struct {
	c *futCore[T]
}

// Valid reports whether f refers to an operation (non-zero).
func (f Future[T]) Valid() bool { return f.c != nil }

// Ready reports whether the result is available.
func (f Future[T]) Ready() bool { return f.c.ready }

// Result returns the value; it panics if the future is not ready.
func (f Future[T]) Result() T {
	if !f.c.ready {
		panic("upcxx: Result on unready future")
	}
	return f.c.val
}

// Wait drives user-level progress until the future is ready and returns its
// value, idling between empty passes by the idle rule (idle.go). It must
// not be called from inside a callback or RPC body (UPC++'s restricted
// context); doing so panics, since progress cannot recurse and the wait
// could never complete.
func (f Future[T]) Wait() T {
	c := f.c
	if c.ready {
		return c.val // nothing to wait for: no goroutine identity needed
	}
	rk := c.rk
	gs := curState()
	if gs.restricted {
		panic("upcxx: Wait inside restricted context (callback or RPC body)")
	}
	// Ownership check against the cached gid: onOwnerGoroutine would
	// re-derive it (an unheld persona reads holder 0, which never equals
	// a gid, preserving the panic below).
	if c.pers != nil && c.pers.holder.Load() != gs.gid {
		// This goroutine cannot drain the owning persona, so the wait
		// could never complete (and the reads would race with the
		// owner); fail immediately instead of spinning to the timeout.
		panic("upcxx: Wait on a future owned by another goroutine's persona")
	}
	// WaitTimeout is kept by the clock: armed when the wait first goes
	// idle, then checked once per park (a clock read is free next to a
	// park) and once per 2^16 passes for a waiter that never parks.
	var (
		id       idler
		deadline time.Time
		passes   int
	)
	for !c.ready {
		found := rk.progressWith(gs)
		if c.ready {
			break
		}
		if err := rk.w.failed(); err != nil {
			panic(err)
		}
		parked := found == 0 && rk.idle(&id, idlePark)
		if parked || passes%(1<<16) == 0 {
			now := time.Now()
			if deadline.IsZero() {
				deadline = now.Add(rk.w.cfg.WaitTimeout)
			} else if now.After(deadline) {
				panic(fmt.Sprintf("upcxx: rank %d Wait exceeded %v (deadlock?)",
					rk.me, rk.w.cfg.WaitTimeout))
			}
		}
		passes++
	}
	return c.val
}

// Then chains fn onto f: fn runs with f's value once ready (during user
// progress for communication-backed futures) and its return value readies
// the resulting future — upcxx's future::then.
func Then[T, U any](f Future[T], fn func(T) U) Future[U] {
	out := newFutCore[U](f.c.rk)
	f.c.onReady(func(v T) { out.fulfill(fn(v)) })
	return Future[U]{out}
}

// ThenDo chains a callback that produces no value; the result conveys
// readiness only.
func ThenDo[T any](f Future[T], fn func(T)) Future[Unit] {
	return Then(f, func(v T) Unit {
		fn(v)
		return Unit{}
	})
}

// ThenFut chains a future-returning callback, flattening the result: the
// returned future readies when the callback's future does. This is the
// paper's pattern of an RPC callback that launches an rput (§IV-C).
func ThenFut[T, U any](f Future[T], fn func(T) Future[U]) Future[U] {
	out := newFutCore[U](f.c.rk)
	f.c.onReady(func(v T) {
		inner := fn(v)
		inner.c.onReady(func(u U) { out.fulfill(u) })
	})
	return Future[U]{out}
}

// ReadyFuture returns an already-fulfilled future carrying v
// (upcxx::make_future with a value).
func ReadyFuture[T any](rk *Rank, v T) Future[T] {
	return Future[T]{&futCore[T]{rk: rk, ready: true, val: v}}
}

// EmptyFuture returns an already-fulfilled empty future — the starting
// point for conjoining chains, as in the paper's extend-add sketch
// (Fig 7, line 6).
func EmptyFuture(rk *Rank) Future[Unit] { return ReadyFuture(rk, Unit{}) }

// AnyFuture is the type-erased view of a Future, accepted by WhenAll.
type AnyFuture interface {
	Valid() bool
	anyOnReady(cb func())
	owner() *Rank
}

func (f Future[T]) anyOnReady(cb func()) { f.c.onReady(func(T) { cb() }) }
func (f Future[T]) owner() *Rank         { return f.c.rk }

// WhenAll conjoins futures: the result readies when all inputs have
// (upcxx::when_all, readiness only). With no inputs it is ready
// immediately.
func WhenAll(rk *Rank, fs ...AnyFuture) Future[Unit] {
	out := newFutCore[Unit](rk)
	remaining := len(fs)
	if remaining == 0 {
		out.fulfill(Unit{})
		return Future[Unit]{out}
	}
	for _, f := range fs {
		f.anyOnReady(func() {
			remaining--
			if remaining == 0 {
				out.fulfill(Unit{})
			}
		})
	}
	return Future[Unit]{out}
}

// Pair carries the two values produced by WhenAll2.
type Pair[A, B any] struct {
	First  A
	Second B
}

// WhenAll2 conjoins two value-carrying futures, preserving both values.
func WhenAll2[A, B any](fa Future[A], fb Future[B]) Future[Pair[A, B]] {
	out := newFutCore[Pair[A, B]](fa.c.rk)
	remaining := 2
	var p Pair[A, B]
	done := func() {
		remaining--
		if remaining == 0 {
			out.fulfill(p)
		}
	}
	fa.c.onReady(func(v A) { p.First = v; done() })
	fb.c.onReady(func(v B) { p.Second = v; done() })
	return Future[Pair[A, B]]{out}
}

// WhenAllSlice conjoins a homogeneous slice of futures into a future of
// the collected values (in input order).
func WhenAllSlice[T any](rk *Rank, fs []Future[T]) Future[[]T] {
	out := newFutCore[[]T](rk)
	vals := make([]T, len(fs))
	remaining := len(fs)
	if remaining == 0 {
		out.fulfill(vals)
		return Future[[]T]{out}
	}
	for i, f := range fs {
		i := i
		f.c.onReady(func(v T) {
			vals[i] = v
			remaining--
			if remaining == 0 {
				out.fulfill(vals)
			}
		})
	}
	return Future[[]T]{out}
}

// Promise is the producer side of a non-blocking operation. It carries a
// dependency counter: the promise's future readies when the count reaches
// zero. A fresh promise holds one dependency (consumed by FulfillResult or
// Finalize); communication operations register further dependencies via
// RequireAnonymous and discharge them as they complete. Passing one
// promise to many operations and waiting on its single future is the
// paper's flood-bandwidth idiom (§IV-B).
type Promise[T any] struct {
	c         *futCore[T] // &core: the pair is one allocation
	core      futCore[T]
	deps      int64
	resultSet bool
	finalized bool
}

// NewPromise creates a promise with one unfulfilled dependency, owned by
// the calling goroutine's current persona.
func NewPromise[T any](rk *Rank) *Promise[T] {
	return NewPromiseOn[T](rk, rk.currentPersona())
}

// NewPromiseOn creates a promise owned by the named persona pers instead
// of the caller's current one: fulfillments route to pers's LPC queue,
// and the promise (and its future) must only be consumed from the
// goroutine holding pers. This is how a completion descriptor addresses
// a promise to a non-initiating persona — create the promise on the
// target persona, then pass it to …CxAsPromise.
func NewPromiseOn[T any](rk *Rank, pers *Persona) *Promise[T] {
	if pers == nil {
		panic("upcxx: NewPromiseOn(nil persona)")
	}
	if pers.rk != rk {
		panic(fmt.Sprintf("upcxx: NewPromiseOn: %v belongs to rank %d, not rank %d", pers, pers.rk.me, rk.me))
	}
	p := &Promise[T]{core: futCore[T]{rk: rk, pers: pers}, deps: 1}
	p.c = &p.core
	return p
}

// Future returns a future associated with this promise. Multiple calls
// return futures sharing the same state.
func (p *Promise[T]) Future() Future[T] { return Future[T]{p.c} }

// RequireAnonymous registers n additional dependencies.
func (p *Promise[T]) RequireAnonymous(n int) {
	if p.c.ready {
		panic("upcxx: RequireAnonymous on satisfied promise")
	}
	p.deps += int64(n)
}

// FulfillAnonymous discharges n dependencies, readying the future when the
// count reaches zero.
func (p *Promise[T]) FulfillAnonymous(n int) { p.fulfillAnon(int64(n), false) }

func (p *Promise[T]) fulfillAnon(n int64, owned bool) {
	p.deps -= n
	if p.deps < 0 {
		panic("upcxx: promise over-fulfilled")
	}
	if p.deps == 0 {
		var zero T
		if p.resultSet {
			zero = p.c.val
		}
		p.c.val = zero
		if owned {
			p.c.fulfillOwned(zero)
		} else {
			p.c.fulfill(zero)
		}
	}
}

// FulfillResult supplies the result value and discharges the promise's
// original dependency.
func (p *Promise[T]) FulfillResult(v T) {
	if p.resultSet || p.finalized {
		panic("upcxx: FulfillResult after result/finalize")
	}
	p.resultSet = true
	p.c.val = v
	p.FulfillAnonymous(1)
}

// fulfillOwnedResult is FulfillResult for completion LPCs delivered to
// the promise's own persona (see futCore.fulfillOwned): the communication
// paths route completions through exactly that persona's LPC queue, so
// the per-call goroutine-id check is redundant there.
func (p *Promise[T]) fulfillOwnedResult(v T) {
	if p.resultSet || p.finalized {
		panic("upcxx: FulfillResult after result/finalize")
	}
	p.resultSet = true
	p.c.val = v
	p.fulfillAnon(1, true)
}

// Finalize discharges the promise's original dependency, declaring that no
// further dependencies will be registered, and returns the future
// (upcxx::promise::finalize). Used with empty promises that act as
// completion counters.
func (p *Promise[T]) Finalize() Future[T] {
	if !p.finalized && !p.resultSet {
		p.finalized = true
		p.FulfillAnonymous(1)
	}
	return Future[T]{p.c}
}
