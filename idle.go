package upcxx

import (
	"sync/atomic"
	"time"
)

// The idle rule — how a blocked waiter gives up the processor. Future.Wait,
// ProgressWait and the progress thread all wait the same way: run a
// progress pass and, when it found nothing, call Rank.idle. The rule:
//
//	a waiter yields (Endpoint.Yield) while a spin budget of idleSpins lasts,
//	polling between yields, then parks in the conduit's notified wait
//	(Endpoint.WaitPending) until the doorbell rings or the park times out.
//
// A yield hands the processor to whoever is runnable: the rank's other
// goroutines and, between processes, the OS's next thread. In-process that is
// the peer rank whose message the waiter needs; over shm it is the peer process
// (a shared CPU) or nobody, and the waiter's next pass finds the message in the
// ring itself — the waiter is the poller (gasnet's wire.poll): no doorbell, no
// reader woken. What arrives by socket is delivered by the process's socket
// reader, parked in the netpoller, which the scheduler consults only when a P
// runs out of runnable goroutines — which yielding waiters keep from happening,
// on one P always, on more whenever the rank's other goroutines poll too — so
// each such yield is a wasted pass that delays the read. The conduit knows
// which yields can see the next message, and Yield refuses the others — on tcp,
// and at a shm ring marker for a socket frame — so the waiter parks at once and
// the reader runs.
//
// Between processes a yield is two hand-offs: Gosched to the rank's other
// goroutines, then the OS yield to the peer process. The second is taken only
// when no progress pass of the rank found work while the waiter stood aside
// (Rank.worked unchanged): if one did — the rank's other waiter took a spawn
// off the ring, say, and its worker has yet to run it — the process has work,
// and the waiter polls again, the yield spent from its budget all the same.
//
// Finding work re-arms the budget. What counts is work found by any progress
// pass of the rank since the waiter last idled, not only by its own: a poll
// loop that mixes Progress and ProgressWait, or shares the rank with a
// progress thread, is busy too.
//
// Parking is only safe because whatever can end a wait rings the doorbell:
// conduit completions and AMs (Endpoint.enqueueComp/enqueueAM; WaitPending
// publishes `parked` first, so a shm producer sends for the reader), persona
// LPCs (Persona.lpc) and failures (wire.fail, Rank.failPeer). It has one slot
// and wakes one waiter, who passes a delivery that was somebody else's on
// through that delivery's own ring; the park bound is the backstop.
//
// Under a timing model (Config.Model) a wait is also what passes model time:
// an idling waiter moves the rank's clock to its next event (Endpoint.Advance),
// which its next pass harvests. The progress thread does so only for a rank
// whose master persona nobody holds: while an SPMD goroutine drives the rank,
// the clock is its own — charged by what it issues, moved by what it waits for —
// so a flood reads the same model time with a progress thread as without.

const (
	idleSpins = 128                    // yields before a waiter parks
	idlePark  = 200 * time.Microsecond // park bound of the runtime's own waits, task workers' included
)

// idler is one waiter's place in the idle rule. The zero value is a wait
// that has not gone idle yet. The fields are atomic because ProgressWait's
// idler belongs to the rank and is shared by every goroutine polling it.
type idler struct {
	armed atomic.Bool   // left holds a budget
	left  atomic.Int32  // yields left before parking
	seen  atomic.Uint64 // Rank.worked when the budget was last set

	thread bool // the progress thread's: it passes model time only for an undriven rank
}

// idle applies the idle rule after a progress pass that found nothing,
// parking for at most d. It reports whether it parked.
func (rk *Rank) idle(id *idler, d time.Duration) (parked bool) {
	rk.idlers.Add(1) // Progress yields to a counted waiter
	defer rk.idlers.Add(-1)
	if worked := rk.worked.Load(); !id.armed.Load() || worked != id.seen.Load() {
		id.left.Store(idleSpins)
		id.seen.Store(worked)
		id.armed.Store(true)
	}
	due := (!id.thread || rk.master.holder.Load() == 0) && rk.ep.Advance()
	if id.left.Load() > 0 && rk.ep.Yield(&rk.worked) {
		id.left.Add(-1)
		return false
	}
	if !due {
		rk.ep.WaitPending(d)
	}
	return true
}

// stillPass counts an empty Progress pass under a timing model. idleSpins of
// them in a row at one model clock are a wait — `for !f.Ready() { rk.Progress() }`
// — and pass model time as the idle rule does. A rank whose clock moves
// between passes (a flood that polls now and then) is busy, and keeps it.
func (rk *Rank) stillPass() {
	c := int64(rk.ep.Clock())
	if rk.stillAt.Swap(c) != c {
		rk.stills.Store(1)
	} else if rk.stills.Add(1) >= idleSpins {
		rk.stills.Store(0)
		rk.ep.Advance()
	}
}
