package upcxx

import (
	"runtime"
	"sync/atomic"
	"time"
)

// The idle rule — how a blocked waiter gives up the processor. Future.Wait,
// ProgressWait and the progress thread all wait the same way: run a
// progress pass and, when it found nothing, call Rank.idle. The rule:
//
//	a waiter yields (runtime.Gosched) while a spin budget lasts, then parks
//	in the conduit's notified wait (Endpoint.WaitPending) until the
//	doorbell rings or the park times out.
//
// The budget is idleSpins, except on a multi-process world whose rank has
// one P, where it is 0. A yield hands the P to a goroutine that is already
// runnable. In an in-process world that is exactly the peer rank whose
// message the waiter needs, so yielding is the fastest way to get it; on a
// rank with several Ps an idle P polls the network while the waiter spins.
// But with one P and the peer in another process, the only goroutine that
// can deliver the completion is this process's socket reader, and it is
// not runnable: it is parked in the netpoller, which the scheduler
// consults only when it runs out of runnable goroutines. A yielding waiter
// goes to the global run queue and is taken straight back, so the
// scheduler never gets that far, and every yield is a wasted progress pass
// that delays the read. Parking is what lets the reader run.
//
// Finding work re-arms the budget in an in-process world (the peer is
// live, the next message is a yield away) and not in a multi-process one
// (the next message is a wire round trip away). What counts is work found
// by any progress pass of the rank since the waiter last idled, not only by
// the waiter's own pass: a poll loop that mixes Progress and ProgressWait,
// or shares the rank with a progress thread, is busy all the same.
//
// Parking is only safe because whatever can end a wait rings the doorbell:
// conduit completions and AMs (Endpoint.enqueueComp/enqueueAM), persona
// LPCs (Persona.LPC/LPCBatch) and failures (wire.fail, Rank.failPeer).
// The doorbell has one slot and wakes one waiter, so a waiter woken for
// somebody else's delivery passes it on through that delivery's own ring;
// the park bound is the backstop, not the mechanism.

const (
	idleSpins = 128                    // yields before a waiter parks
	idlePark  = 200 * time.Microsecond // park bound of the runtime's own waits
)

// idler is one waiter's place in the idle rule. The zero value is a wait
// that has not gone idle yet. The fields are atomic because ProgressWait's
// idler belongs to the rank and is shared by every goroutine polling it.
type idler struct {
	armed atomic.Bool   // left holds a budget
	left  atomic.Int32  // yields left before parking
	seen  atomic.Uint64 // Rank.worked when the budget was last set
}

// spinBudget is the number of yields a waiter of this world gets. It is
// read when a wait first goes idle, not at world creation: GOMAXPROCS can
// change under a running job.
func (w *World) spinBudget() int32 {
	if w.dist && runtime.GOMAXPROCS(0) == 1 {
		return 0
	}
	return idleSpins
}

// idle applies the idle rule after a progress pass that found nothing,
// parking for at most d. It reports whether it parked.
func (rk *Rank) idle(id *idler, d time.Duration) (parked bool) {
	rk.idlers.Add(1) // Progress yields to a counted waiter
	defer rk.idlers.Add(-1)
	worked := rk.worked.Load()
	if !id.armed.Load() || !rk.w.dist && worked != id.seen.Load() {
		id.left.Store(rk.w.spinBudget())
		id.seen.Store(worked)
		id.armed.Store(true)
	}
	if id.left.Load() > 0 {
		id.left.Add(-1)
		runtime.Gosched()
		return false
	}
	rk.ep.WaitPending(d)
	return true
}
