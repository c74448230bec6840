package upcxx

import (
	"fmt"

	"upcxx/internal/gasnet"
	"upcxx/internal/serial"
)

// Remote atomics (upcxx::atomic_domain): read-modify-write operations on
// 64-bit words in shared segments, executed by the target NIC without
// target CPU attentiveness — the Aries offload the paper credits for
// latency and scalability in lock-free data structures. All operations are
// non-blocking and return futures.

// amoOp issues one offloaded atomic through the single injection path
// (Rank.inject); the previous value is delivered to the initiating
// persona as the operation-completion payload.
func (rk *Rank) amoOp(owner Intrank, off uint64, op gasnet.AMOOp, a, b uint64) Future[uint64] {
	p := NewPromise[uint64](rk)
	// The conduit's result callback stores the fetched value in the promise
	// before the completion LPC is enqueued; the enqueue orders the write
	// for the owning persona's drain.
	inj := rk.newInjection(owner)
	inj.op = append(inj.op, cxDelivery{pers: p.c.pers, fn: func() { p.fulfillOwnedResult(p.c.val) }})
	rk.inject(inj.single(rmaOp{
		kind:    opAMO,
		dstPeer: owner,
		dstOff:  off,
		amo:     op,
		amoA:    a,
		amoB:    b,
		amoOld:  &p.c.val,
	}))
	return p.Future()
}

// amoOpPtr validates the target pointer and issues the atomic. Atomic
// domains operate on host memory only: the NIC's AMO unit cannot reach
// device segments (real memory-kinds runtimes have the same restriction).
func amoOpPtr[T serial.Scalar](rk *Rank, p GPtr[T], op gasnet.AMOOp, a, b uint64) Future[uint64] {
	if p.IsNil() {
		panic("upcxx: atomic operation on nil GPtr")
	}
	if p.segID("atomic") != gasnet.HostSeg {
		panic(fmt.Sprintf("upcxx: atomic operation on %v: atomic domains require host-kind memory", p))
	}
	return rk.amoOp(p.Owner, p.Off, op, a, b)
}

// AtomicU64 is an atomic domain over uint64 shared objects.
type AtomicU64 struct{ rk *Rank }

// NewAtomicU64 creates the uint64 atomic domain for this rank.
func NewAtomicU64(rk *Rank) *AtomicU64 { return &AtomicU64{rk: rk} }

// Load atomically reads the remote word.
func (a *AtomicU64) Load(p GPtr[uint64]) Future[uint64] {
	return amoOpPtr(a.rk, p, gasnet.AMOLoad, 0, 0)
}

// Store atomically writes v to the remote word.
func (a *AtomicU64) Store(p GPtr[uint64], v uint64) Future[Unit] {
	return Then(amoOpPtr(a.rk, p, gasnet.AMOStore, v, 0), func(uint64) Unit { return Unit{} })
}

// FetchAdd atomically adds v, returning the previous value.
func (a *AtomicU64) FetchAdd(p GPtr[uint64], v uint64) Future[uint64] {
	return amoOpPtr(a.rk, p, gasnet.AMOAdd, v, 0)
}

// FetchAnd atomically ANDs v, returning the previous value.
func (a *AtomicU64) FetchAnd(p GPtr[uint64], v uint64) Future[uint64] {
	return amoOpPtr(a.rk, p, gasnet.AMOAnd, v, 0)
}

// FetchOr atomically ORs v, returning the previous value.
func (a *AtomicU64) FetchOr(p GPtr[uint64], v uint64) Future[uint64] {
	return amoOpPtr(a.rk, p, gasnet.AMOOr, v, 0)
}

// FetchXor atomically XORs v, returning the previous value.
func (a *AtomicU64) FetchXor(p GPtr[uint64], v uint64) Future[uint64] {
	return amoOpPtr(a.rk, p, gasnet.AMOXor, v, 0)
}

// CompareExchange atomically stores desired if the word equals expected,
// returning the previous value (success iff result == expected).
func (a *AtomicU64) CompareExchange(p GPtr[uint64], expected, desired uint64) Future[uint64] {
	return amoOpPtr(a.rk, p, gasnet.AMOCompSwap, expected, desired)
}

// AtomicI64 is an atomic domain over int64 shared objects, adding the
// signed min/max operations Aries offloads.
type AtomicI64 struct{ rk *Rank }

// NewAtomicI64 creates the int64 atomic domain for this rank.
func NewAtomicI64(rk *Rank) *AtomicI64 { return &AtomicI64{rk: rk} }

// Load atomically reads the remote word.
func (a *AtomicI64) Load(p GPtr[int64]) Future[int64] {
	return Then(amoOpPtr(a.rk, p, gasnet.AMOLoad, 0, 0), u2i)
}

// Store atomically writes v to the remote word.
func (a *AtomicI64) Store(p GPtr[int64], v int64) Future[Unit] {
	return Then(amoOpPtr(a.rk, p, gasnet.AMOStore, uint64(v), 0), func(uint64) Unit { return Unit{} })
}

// FetchAdd atomically adds v, returning the previous value.
func (a *AtomicI64) FetchAdd(p GPtr[int64], v int64) Future[int64] {
	return Then(amoOpPtr(a.rk, p, gasnet.AMOAdd, uint64(v), 0), u2i)
}

// FetchMin atomically replaces the word with min(word, v), returning the
// previous value.
func (a *AtomicI64) FetchMin(p GPtr[int64], v int64) Future[int64] {
	return Then(amoOpPtr(a.rk, p, gasnet.AMOMin, uint64(v), 0), u2i)
}

// FetchMax atomically replaces the word with max(word, v), returning the
// previous value.
func (a *AtomicI64) FetchMax(p GPtr[int64], v int64) Future[int64] {
	return Then(amoOpPtr(a.rk, p, gasnet.AMOMax, uint64(v), 0), u2i)
}

// CompareExchange atomically stores desired if the word equals expected,
// returning the previous value.
func (a *AtomicI64) CompareExchange(p GPtr[int64], expected, desired int64) Future[int64] {
	return Then(amoOpPtr(a.rk, p, gasnet.AMOCompSwap, uint64(expected), uint64(desired)), u2i)
}

func u2i(v uint64) int64 { return int64(v) }
