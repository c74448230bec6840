package upcxx

import (
	"fmt"
	"time"
)

// Unit is the empty payload of futures that convey only readiness, the
// analogue of upcxx::future<>.
type Unit = struct{}

// cell is the untyped head of a future's state. A ready future holds its
// value inline and points at its rank's one ready cell (inline, shared, never
// written); a pending future points at the cell heading its futCore.
type cell struct {
	rk     *Rank
	pers   *Persona
	ready  bool
	inline bool
}

// futCore is the shared state behind a pending Future/Promise pair. It is
// owned by the persona current on the creating goroutine: state is only
// touched from the goroutine holding that persona, and fulfillment
// arriving on any other goroutine is rerouted through the owner's LPC
// queue.
type futCore[T any] struct {
	cell // first: a pending Future[T]'s *cell is its futCore[T] (pendingOf)
	val  T
	cbs  []func(T)
}

// newFutCore creates future state owned by the calling goroutine's
// current persona.
func newFutCore[T any](rk *Rank) *futCore[T] {
	return &futCore[T]{cell: cell{rk: rk, pers: rk.currentPersona()}}
}

// fulfill is the one way a future readies: on the owning persona's
// goroutine it runs the callbacks; anywhere else it is rerouted through
// the owner's LPC queue and runs there.
func (c *futCore[T]) fulfill(v T) {
	if c.pers != nil && !c.pers.onOwnerGoroutine() {
		// Fulfillment observed off the owning persona's goroutine (a
		// progress thread harvesting a completion, a teammate's LPC):
		// continuations must fire where the future lives.
		c.pers.lpc(func() { c.fulfill(v) })
		return
	}
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
// (Then, WhenAll, ...) must conjoin futures of one persona. A ready future
// holds its value in v, allocating nothing; v is first, as Go pads a
// trailing zero-size field (a Future[Unit] would take two words).
type Future[T any] struct {
	v T
	c *cell
}

// Valid reports whether f refers to an operation (non-zero).
func (f Future[T]) Valid() bool { return f.c != nil }

// core returns f's state head. A zero Future stands for an event that was
// not requested as a future (a CxFutures field left unset): using it panics.
func (f Future[T]) core() *cell {
	if f.c == nil {
		panic("upcxx: zero Future: its event was not requested as_future")
	}
	return f.c
}

// now returns f's value and true when f is ready.
func (f Future[T]) now() (v T, ok bool) {
	if c := f.core(); c.inline {
		return f.v, true
	} else if p := pendingOf[T](c); p.ready {
		return p.val, true
	}
	return v, false
}

// onReady runs cb with f's value once ready: at once if it is.
func (f Future[T]) onReady(cb func(T)) {
	if c := f.core(); c.inline {
		cb(f.v)
	} else {
		pendingOf[T](c).onReady(cb)
	}
}

// Ready reports whether the result is available.
func (f Future[T]) Ready() bool { return f.core().ready }

// Result returns the value; it panics if the future is not ready.
func (f Future[T]) Result() T {
	v, ok := f.now()
	if !ok {
		panic("upcxx: Result on unready future")
	}
	return v
}

// Wait drives user-level progress until the future is ready and returns its
// value, idling between empty passes by the idle rule (idle.go). It must
// not be called from inside a callback or RPC body (UPC++'s restricted
// context); doing so panics, since progress cannot recurse and the wait
// could never complete.
func (f Future[T]) Wait() T {
	if v, ok := f.now(); ok {
		return v // nothing to wait for: no goroutine identity needed
	}
	c := pendingOf[T](f.c)
	rk := c.rk
	gs := curState()
	if gs.restricted {
		panic("upcxx: Wait inside restricted context (callback or RPC body)")
	}
	if c.pers != nil && !c.pers.onOwnerGoroutine() {
		// This goroutine cannot drain the owning persona, so the wait
		// could never complete (and the reads would race with the
		// owner); fail immediately instead of spinning to the timeout.
		panic("upcxx: Wait on a future owned by another goroutine's persona")
	}
	rk.waitUntil(gs, "Wait", func() bool { return c.ready })
	return c.val
}

// waitUntil is the one blocking wait (Future.Wait, Quiesce): progress passes
// until done holds, idling between empty ones by the idle rule (idle.go),
// panicking once the world has failed or the wait has lasted past
// Config.WaitTimeout. The timeout is kept by the clock: armed at the first
// park or the 2^16th pass, whichever comes first, then checked once per park
// (a clock read is free next to a park) and once per 2^16 passes for a waiter
// that never parks. A wait that ends before either reads no clock.
func (rk *Rank) waitUntil(gs *goroutineState, what string, done func() bool) {
	var (
		id       idler
		deadline time.Time
		passes   int
	)
	for {
		found := rk.progressWith(gs)
		if done() {
			return
		}
		if err := rk.w.failed(); err != nil {
			panic(err)
		}
		parked := found == 0 && rk.idle(&id, idlePark)
		if passes++; parked || passes%(1<<16) == 0 {
			now := time.Now()
			if deadline.IsZero() {
				deadline = now.Add(rk.w.cfg.WaitTimeout)
			} else if now.After(deadline) {
				panic(fmt.Sprintf("upcxx: rank %d %s exceeded %v (deadlock?)",
					rk.me, what, rk.w.cfg.WaitTimeout))
			}
		}
	}
}

// Then chains fn onto f: fn runs with f's value once ready (during user
// progress for communication-backed futures) and its return value readies
// the resulting future — upcxx's future::then. On a ready f, fn runs at
// once and the result is ready.
func Then[T, U any](f Future[T], fn func(T) U) Future[U] {
	if v, ok := f.now(); ok {
		return ReadyFuture(f.c.rk, fn(v))
	}
	out := newFutCore[U](f.c.rk)
	pendingOf[T](f.c).onReady(func(v T) { out.fulfill(fn(v)) })
	return Future[U]{c: &out.cell}
}

// ThenDo chains a callback that produces no value; the result conveys
// readiness only.
func ThenDo[T any](f Future[T], fn func(T)) Future[Unit] {
	return Then(f, func(v T) Unit { fn(v); return Unit{} })
}

// ThenFut chains a future-returning callback, flattening the result: the
// returned future readies when the callback's future does. This is the
// paper's pattern of an RPC callback that launches an rput (§IV-C).
func ThenFut[T, U any](f Future[T], fn func(T) Future[U]) Future[U] {
	out := newFutCore[U](f.core().rk)
	f.onReady(func(v T) { fn(v).onReady(out.fulfill) })
	return Future[U]{c: &out.cell}
}

// ReadyFuture returns an already-fulfilled future carrying v
// (upcxx::make_future with a value).
func ReadyFuture[T any](rk *Rank, v T) Future[T] { return Future[T]{v: v, c: rk.done.c} }

// EmptyFuture returns an already-fulfilled empty future — the starting
// point for conjoining chains, as in the paper's extend-add sketch
// (Fig 7, line 6).
func EmptyFuture(rk *Rank) Future[Unit] { return rk.done }

// AnyFuture is the type-erased view of a Future, accepted by WhenAll.
type AnyFuture interface {
	Valid() bool
	Ready() bool
	anyOnReady(cb func())
}

func (f Future[T]) anyOnReady(cb func()) { f.onReady(func(T) { cb() }) }

// WhenAll conjoins futures: the result readies when all inputs have
// (upcxx::when_all, readiness only). With every input ready, none
// included, it is ready at once.
func WhenAll(rk *Rank, fs ...AnyFuture) Future[Unit] {
	var p *Promise[Unit] // a dependency per pending input; closures take q, so p needs no heap
	for _, f := range fs {
		if !f.Ready() {
			if p == nil {
				p = NewPromise[Unit](rk)
			}
			q := p
			q.RequireAnonymous(1)
			f.anyOnReady(func() { q.FulfillAnonymous(1) })
		}
	}
	if p == nil {
		return rk.done
	}
	return p.Finalize()
}

// Pair carries the two values produced by WhenAll2.
type Pair[A, B any] struct {
	First  A
	Second B
}

// WhenAll2 conjoins two value-carrying futures, preserving both values.
func WhenAll2[A, B any](fa Future[A], fb Future[B]) Future[Pair[A, B]] {
	a, aok := fa.now()
	b, bok := fb.now()
	if aok && bok {
		return ReadyFuture(fa.c.rk, Pair[A, B]{a, b})
	}
	out, remaining, p := newFutCore[Pair[A, B]](fa.c.rk), 2, Pair[A, B]{}
	done := func() {
		if remaining--; remaining == 0 {
			out.fulfill(p)
		}
	}
	fa.onReady(func(v A) { p.First = v; done() })
	fb.onReady(func(v B) { p.Second = v; done() })
	return Future[Pair[A, B]]{c: &out.cell}
}

// WhenAllSlice conjoins a homogeneous slice of futures into a future of
// the collected values (in input order).
func WhenAllSlice[T any](rk *Rank, fs []Future[T]) Future[[]T] {
	vals := make([]T, len(fs))
	var p *Promise[[]T] // a dependency per pending input; closures take q, so p needs no heap
	for i, f := range fs {
		if v, ok := f.now(); ok {
			vals[i] = v
			continue
		}
		if p == nil {
			p = NewPromise[[]T](rk)
		}
		q := p
		q.RequireAnonymous(1)
		f.onReady(func(v T) { vals[i] = v; q.FulfillAnonymous(1) })
	}
	if p == nil {
		return ReadyFuture(rk, vals)
	}
	p.FulfillResult(vals)
	return p.Future()
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
	p := new(Promise[T])
	p.init(rk, pers)
	return p
}

// init readies a zero promise in place: one unfulfilled dependency, owned by
// pers.
func (p *Promise[T]) init(rk *Rank, pers *Persona) {
	p.core.cell = cell{rk: rk, pers: pers}
	p.deps = 1
	p.c = &p.core
}

// Future returns a future associated with this promise. Multiple calls
// return futures sharing the same state.
func (p *Promise[T]) Future() Future[T] { return Future[T]{c: &p.c.cell} }

// RequireAnonymous registers n additional dependencies.
func (p *Promise[T]) RequireAnonymous(n int) {
	if p.c.ready {
		panic("upcxx: RequireAnonymous on satisfied promise")
	}
	p.deps += int64(n)
}

// FulfillAnonymous discharges n dependencies, readying the future when the
// count reaches zero.
func (p *Promise[T]) FulfillAnonymous(n int) {
	p.deps -= int64(n)
	if p.deps < 0 {
		panic("upcxx: promise over-fulfilled")
	}
	if p.deps == 0 {
		var zero T
		if p.resultSet {
			zero = p.c.val
		}
		p.c.val = zero
		p.c.fulfill(zero)
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

// fulfilHere is how an RPC result or a collective's value reaches p: inline
// when the calling goroutine holds p's persona and nothing is queued there —
// bodyQueue's rule, so v never overtakes an earlier LPC — else by one LPC.
func (p *Promise[T]) fulfilHere(v T) {
	if pers := p.c.pers; pers.quiet() {
		p.FulfillResult(v)
	} else {
		pers.lpc(func() { p.FulfillResult(v) })
	}
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
	return Future[T]{c: &p.c.cell}
}
