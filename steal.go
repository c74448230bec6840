package upcxx

// Work stealing. A rank whose queue runs dry sends a victim a one-way steal
// request; the victim answers with ONE steal reply carrying the records of a
// batch of its oldest tasks — none if it has none to give — so a steal costs
// one AM each way. At most one is outstanding per rank.
//
// A task changes owner where the victim gives it up (TaskMigrated) and where
// the thief takes it in (TaskStolen), and what a thief takes in it keeps: loot
// is never offered to a later request (popOldest), so two idle ranks cannot
// bounce the last batch between them.
//
// Victims are tried in rotation from a random start: every other rank is
// asked within n-1 requests, and simultaneously idle thieves fan out.
//
// An empty reply backs off: no new request for one steal round trip — the
// shortest seen, so the conduit's and not a busy victim's time to poll —
// twice that after the next, up to stealCap. Loot resets the back-off, as does
// entering Finish. Running a task does not: it says nothing about the victims,
// and a rank trading tasks one at a time with a peer would waste a request each.

import (
	"errors"
	"fmt"
	"time"

	"upcxx/internal/obs"
)

// stealCap bounds the back-off, in steal round trips.
const stealCap = 128

// stealReq asks a victim for up to Max tasks on behalf of Thief.
type stealReq struct {
	Thief int32
	Max   uint32
}

// stealReply closes the thief's outstanding steal and carries the tasks that
// migrate with it, encoded like any RPC argument.
type stealReply struct {
	Victim int32
	Loot   []rec
}

// stealBatch caps how many tasks one steal request migrates. Batching
// amortizes the per-message overhead o over several migrated tasks — the same
// o/G trade the paper's rput_v makes.
const stealBatch = 8

// maybeSteal sends one steal request if stealing is enabled, the back-off
// allows it, and no request is already outstanding. Callers have just found
// the local queue empty.
func (rt *TaskRuntime) maybeSteal() {
	now := max(int64(time.Since(rt.born)), 1) // 0 means no request is out
	if rt.cfg.NoSteal || rt.rk.N() < 2 || now < rt.stealAt.Load() || !rt.stealSent.CompareAndSwap(0, now) {
		return
	}
	rt.count(obs.TaskStealReqs, 1)
	n := uint32(rt.rk.N())
	victim := Intrank((uint32(rt.rk.Me()) + 1 + rt.victim.Add(1)%(n-1)) % n)
	RPCFF(rt.rk, victim, stealReqBody, stealReq{Thief: int32(rt.rk.Me()), Max: stealBatch})
}

// stealSoon forgets the back-off.
func (rt *TaskRuntime) stealSoon() {
	rt.backoff.Store(0)
	rt.stealAt.Store(0)
}

// stealReqBody runs at the victim (exec persona): pop the oldest batch that
// is this rank's to give and send it back as the reply.
func stealReqBody(trk *Rank, req stealReq) {
	rep := stealReply{Victim: int32(trk.Me())}
	if rt := TaskRuntimeOf(trk); rt != nil {
		rep.Loot = rt.popOldest(int(req.Max))
		rt.count(obs.TaskMigrated, len(rep.Loot))
	}
	RPCFF(trk, Intrank(req.Thief), stealReplyBody, rep)
}

// stealReplyBody runs at the thief (exec persona): take the loot in, set the
// back-off, and only then clear the outstanding flag, so a worker that
// re-steals at once has seen this batch. A bad task fails the victim.
func stealReplyBody(trk *Rank, rep stealReply) {
	rt := TaskRuntimeOf(trk)
	if rt == nil { // the request of a since-stopped runtime: Stop follows quiescence, so the reply is empty
		return
	}
	for _, r := range rep.Loot {
		if err := r.adopt(trk.N()); err != nil {
			trk.failPeer(Intrank(rep.Victim), fmt.Errorf("task: stolen task: %w", err))
			break
		}
		r.Flags |= flagStolen
		rt.count(obs.TaskStolen, 1)
		rt.hop(r, obs.StageTaskSteal, len(r.Args))
		rt.enqueue(r)
	}
	if len(rep.Loot) > 0 {
		rt.stealSoon()
	} else {
		rt.count(obs.TaskStealFails, 1)
		now := int64(time.Since(rt.born))
		rtt := min(now-rt.stealSent.Load(), rt.stealRTT.Load())
		rt.stealRTT.Store(rtt)
		wait := min(max(2*rt.backoff.Load(), rtt), stealCap*rtt)
		rt.backoff.Store(wait)
		rt.stealAt.Store(now + wait)
	}
	rt.stealSent.Store(0)
}

// adopt checks a stolen task on a rank of an n-rank job before it is queued
// there — a home rank in range, a function name, and a task form of that name
// for the task's kind, which it binds.
func (r *rec) adopt(n Intrank) error {
	if r.Home < 0 || r.Home >= n {
		return fmt.Errorf("home rank %d of %d", r.Home, n)
	}
	if r.Name == "" {
		return errors.New("names no function")
	}
	var err error
	r.b, err = lookupTask(r.Name, r.Flags&flagFF != 0)
	return err
}
