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
//	a waiter yields (Endpoint.Yield) while a spin budget lasts, polling
//	between yields, then parks in the conduit's notified wait
//	(Endpoint.WaitPending) until the doorbell rings or the park times out.
//
// The budget is idleSpins wherever a yield can see the next message, and 0
// only on a one-P rank whose messages arrive by socket. A yield hands the
// processor to whoever is runnable: the rank's other goroutines and, between
// processes, the OS's next thread. In-process that is the peer rank whose
// message the waiter needs; over shm it is the peer process (a shared CPU) or
// nobody, and the waiter's next pass finds the message in the ring itself — the
// waiter is the poller (gasnet's wire.poll): no doorbell, no reader woken. What
// arrives by socket is delivered by the process's socket reader, parked in the
// netpoller, which a one-P scheduler consults only when nothing is runnable: a
// yielding waiter is taken straight back off the run queue, every yield a wasted
// pass that delays the read. Parking lets the reader run — which is why Yield
// refuses, and the waiter parks at once, at a shm ring marker for a socket frame.
//
// Finding work re-arms the budget where a yield can see the next message
// (the peer is live) and not where they arrive by socket (a reader hand-off
// away). What counts is work found by any progress pass of the rank since
// the waiter last idled, not only by its own: a poll loop that mixes Progress
// and ProgressWait, or shares the rank with a progress thread, is busy too.
//
// Parking is only safe because whatever can end a wait rings the doorbell:
// conduit completions and AMs (Endpoint.enqueueComp/enqueueAM; WaitPending
// publishes `parked` first, so a shm producer sends for the reader), persona
// LPCs (Persona.LPC/LPCBatch) and failures (wire.fail, Rank.failPeer). It has
// one slot and wakes one waiter, who passes a delivery that was somebody else's
// on through that delivery's own ring; the park bound is the backstop.

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
	if w.sock && runtime.GOMAXPROCS(0) == 1 {
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
	if !id.armed.Load() || !rk.w.sock && worked != id.seen.Load() {
		id.left.Store(rk.w.spinBudget())
		id.seen.Store(worked)
		id.armed.Store(true)
	}
	if id.left.Load() > 0 && rk.ep.Yield() {
		id.left.Add(-1)
		return false
	}
	rk.ep.WaitPending(d)
	return true
}
