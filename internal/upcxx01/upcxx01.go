// Package upcxx01 reimplements the programming interface of the
// predecessor UPC++ v0.1 (Zheng et al., IPDPS 2014), which the paper
// compares against in §V-A and Fig 9: event-based completion and
// async(place)(fn, args) remote task launch, with no return values, no
// completion chaining, and explicit event-object lifetime management.
//
// It is layered over the v1.0 runtime (internal/core) the way the paper's
// symPACK port is layered over v1.0: each v0.1 construct maps to the v1.0
// feature that subsumes it (async -> rpc, event -> promise), plus the
// extra bookkeeping the old model forced on users. Fig 9's experiment —
// the same solver written against both APIs — runs both layers over the
// identical conduit.
package upcxx01

import (
	"fmt"

	core "upcxx/internal/core"
	"upcxx/internal/serial"
)

// Runtime is one rank's view of the v0.1 library.
type Runtime struct {
	rk *core.Rank
}

// Wrap adapts a v1.0 rank to the v0.1 interface.
func Wrap(rk *core.Rank) *Runtime { return &Runtime{rk: rk} }

// MyRank returns this process's rank (v0.1 myrank()).
func (r *Runtime) MyRank() int32 { return r.rk.Me() }

// Ranks returns the job size (v0.1 ranks()).
func (r *Runtime) Ranks() int32 { return r.rk.N() }

// Rank exposes the underlying v1.0 rank for interoperability.
func (r *Runtime) Rank() *core.Rank { return r.rk }

// Advance polls the progress engine (v0.1 advance()).
func (r *Runtime) Advance() { r.rk.Progress() }

// Barrier blocks until all ranks arrive (v0.1 barrier()).
func (r *Runtime) Barrier() { r.rk.Barrier() }

// Event is the v0.1 completion object: a bare counter carrying readiness
// information only — no value, in contrast to v1.0 futures (the semantic
// gap §V-A highlights). The user owns the event's lifetime and must not
// reuse it while operations are pending against it.
type Event struct {
	rt      *Runtime
	pending int
}

// NewEvent creates an event with no pending operations.
func NewEvent(rt *Runtime) *Event { return &Event{rt: rt} }

// incref registers one pending operation.
func (e *Event) incref() { e.pending++ }

// decref signals one completed operation.
func (e *Event) decref() {
	e.pending--
	if e.pending < 0 {
		panic("upcxx01: event over-signaled")
	}
}

// Done reports whether all registered operations have completed.
func (e *Event) Done() bool { return e.pending == 0 }

// Wait spins progress until the event is signaled (v0.1 event::wait()).
func (e *Event) Wait() {
	for e.pending > 0 {
		e.rt.rk.Progress()
	}
}

// Async launches fn for execution on the target rank (v0.1
// async(place)(fn)). fn cannot return a value; if e is non-nil it is
// signaled after the remote execution completes (round-trip
// acknowledgment, as v0.1 events required).
func (r *Runtime) Async(target int32, e *Event, fn func(rt *Runtime)) {
	if e == nil {
		core.RPCFF(r.rk, target, func(trk *core.Rank, _ core.Unit) { fn(Wrap(trk)) }, core.Unit{})
		return
	}
	e.incref()
	ack := core.RPC(r.rk, target, func(trk *core.Rank, _ core.Unit) core.Unit {
		fn(Wrap(trk))
		return core.Unit{}
	}, core.Unit{})
	core.ThenDo(ack, func(core.Unit) { e.decref() })
}

// AsyncArg is Async with one serialized argument.
func AsyncArg[A any](r *Runtime, target int32, e *Event, fn func(rt *Runtime, a A), arg A) {
	if e == nil {
		core.RPCFF(r.rk, target, func(trk *core.Rank, a A) { fn(Wrap(trk), a) }, arg)
		return
	}
	e.incref()
	ack := core.RPC(r.rk, target, func(trk *core.Rank, a A) core.Unit {
		fn(Wrap(trk), a)
		return core.Unit{}
	}, arg)
	core.ThenDo(ack, func(core.Unit) { e.decref() })
}

// Allocate reserves n elements in this rank's shared segment (v0.1
// allocate<T>()).
func Allocate[T serial.Scalar](r *Runtime, n int) core.GPtr[T] {
	return core.MustNewArray[T](r.rk, n)
}

// Deallocate frees a local shared allocation.
func Deallocate[T serial.Scalar](r *Runtime, p core.GPtr[T]) {
	if err := core.Delete(r.rk, p); err != nil {
		panic(fmt.Sprintf("upcxx01: %v", err))
	}
}

// CopyAsync starts a v0.1 async_copy between global memory locations,
// signaling e (if non-nil) at completion. v0.1 copies could not chain
// further work — the event is the only completion mechanism.
func CopyAsync[T serial.Scalar](r *Runtime, src, dst core.GPtr[T], n int, e *Event) {
	f := core.CopyGG(r.rk, src, dst, n)
	if e != nil {
		e.incref()
		core.ThenDo(f, func(core.Unit) { e.decref() })
	}
}

// Copy is the blocking v0.1 copy().
func Copy[T serial.Scalar](r *Runtime, src, dst core.GPtr[T], n int) {
	core.CopyGG(r.rk, src, dst, n).Wait()
}

// PutBlocking writes local data to global memory and waits — the blocking
// RMA pattern the v0.1 hash-table needed (§V-A: "a blocking remote
// allocation and a blocking RMA").
func PutBlocking[T serial.Scalar](r *Runtime, src []T, dst core.GPtr[T]) {
	core.RPut(r.rk, src, dst).Wait()
}

// GetBlocking reads global memory into a local buffer and waits.
func GetBlocking[T serial.Scalar](r *Runtime, src core.GPtr[T], dst []T) {
	core.RGet(r.rk, src, dst).Wait()
}
