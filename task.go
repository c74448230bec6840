// The distributed async-task runtime: AsyncAt ships a registered function
// and serialized argument to any rank and hands back a future for the
// result, per-rank worker personas drain a shared local queue, idle ranks
// steal batched work from remote victims over one-way RPCs, and a
// Mattern-style four-counter detector decides global quiescence (Finish)
// without a barrier per wave of spawns.
//
// A spawn is one RPC entry: AsyncAt sends a single call of the function's
// task form (fnreg.go), header and argument marshalled once into the
// message, with the caller's promise as its ordinary reply sink. The entry's
// body runs no user code: it pushes {home, seq, args} on the rank's deque and
// rings its doorbell. Whichever rank runs the task — the target or a thief —
// sends the reply entry for seq straight home, where the RPC layer fulfils
// the promise and credits the detector's C. Fire-and-forget and group spawns
// are a fire-and-forget entry out and a retire rpc_ff home for the credit.
//
// Workers, Finish, TaskHelpWait and TaskGroup.Wait all wait in helpUntil,
// idling by the rank's idle rule (idle.go); a push rings the doorbell they
// park on, so the park bound only backstops a ring another waiter took.

package upcxx

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"upcxx/internal/obs"
	"upcxx/internal/serial"
)

// TaskConfig tunes one rank's task runtime.
type TaskConfig struct {
	// Workers is the number of worker goroutines (each with its own
	// persona) pulling from the rank's task queue. 0 means 2.
	Workers int
	// NoSteal disables work stealing: idle workers only wait for local
	// spawns.
	NoSteal bool
}

// TaskRuntime is one rank's task engine. Every rank of the job must create
// one with NewTaskRuntime before any task crosses ranks: the spawn and steal
// bodies find the receiving rank's runtime on its Rank.
type TaskRuntime struct {
	rk  *Rank
	cfg TaskConfig

	mu   sync.Mutex
	dq   []rec        // shared deque: workers pop newest, steals take oldest
	idle atomic.Int32 // workers and helpers not running a task; a queued task each is theirs, not a thief's

	gmu    sync.Mutex
	groups map[uint64]*TaskGroup
	gseq   uint64

	spawned  atomic.Uint64 // S: tasks spawned by this rank
	executed atomic.Uint64 // C: spawns of this rank fully retired

	born      time.Time     // steal times are ns since then
	victim    atomic.Uint32 // steal requests sent, from a random start: the victim rotation
	stealSent atomic.Int64  // when the one outstanding steal request left (0: none is out)
	stealRTT  atomic.Int64  // the shortest empty steal's round trip: the back-off's unit (ns)
	backoff   atomic.Int64  // what the last empty steal reply set (ns; 0 after loot)
	stealAt   atomic.Int64  // no steal request before this time

	stopped atomic.Bool
	wg      sync.WaitGroup
}

// NewTaskRuntime creates and starts the rank's task runtime. At most one per
// rank.
func NewTaskRuntime(rk *Rank, cfg TaskConfig) *TaskRuntime {
	if cfg.Workers <= 0 {
		cfg.Workers = 2
	}
	rt := &TaskRuntime{
		rk:     rk,
		cfg:    cfg,
		groups: make(map[uint64]*TaskGroup),
		born:   time.Now(),
	}
	rt.victim.Store(rand.Uint32())
	rt.stealRTT.Store(math.MaxInt64)
	if !rk.tasks.CompareAndSwap(nil, rt) {
		panic(fmt.Sprintf("task: %v already has a runtime", rk))
	}
	rt.wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go rt.worker(i)
	}
	return rt
}

// TaskRuntimeOf returns the rank's runtime, or nil before NewTaskRuntime.
func TaskRuntimeOf(rk *Rank) *TaskRuntime { return rk.tasks.Load() }

// Rank returns the rank the runtime serves.
func (rt *TaskRuntime) Rank() *Rank { return rt.rk }

// Stop shuts the worker goroutines down and detaches the runtime from its
// rank. Call after quiescence (Finish); queued tasks are abandoned.
func (rt *TaskRuntime) Stop() {
	rt.stopped.Store(true)
	rt.wg.Wait()
	rt.rk.tasks.Store(nil)
}

// taskBody is a function's task form, what the registry files for it: run
// is its RPC body (valueBody; ffBody for a fire-and-forget task). A spawn is
// an RPC entry naming the form; on arrival arrive queues it, and whichever
// rank runs a result-bearing task answers (home, seq) with the reply run built.
type taskBody struct {
	name  string
	flags uint8 // flagFF or none
	run   func(trk *Rank, src Intrank, seq uint64, args []byte, own bool, out replyMsg) replyMsg
}

// arrive is the spawn entry's body: queue the task for this rank's workers.
// It runs on the execution persona and runs no user code. The queued
// argument aliases the arrived message, this rank's to keep (gasnet.AMHandler;
// a spawn body is not scoped, see rpcBody), decoded in place when own. An
// error fails the sender.
func (b *taskBody) arrive(trk *Rank, home Intrank, seq uint64, args []byte, own bool) error {
	rt := TaskRuntimeOf(trk)
	if rt == nil {
		return fmt.Errorf("task: a spawn of %s reached %v, which has no task runtime (every rank must NewTaskRuntime before tasks cross ranks)", b.name, trk)
	}
	d := serial.NewDecoder(args)
	r := rec{Seq: seq, Trace: d.Uvarint(), Home: int32(home), Group: d.Uvarint(), Flags: b.flags, Name: b.name, b: b, own: own}
	if d.Err() != nil {
		return fmt.Errorf("task: a spawn of %s carries a malformed task header", b.name)
	}
	r.Args = args[d.Offset():]
	rt.enqueue(r)
	return nil
}

const (
	// flagFF marks a fire-and-forget task: no reply entry returns to the
	// home rank; a retire rpc_ff carries its credit.
	flagFF = 1 << iota
	// flagStolen marks loot: it runs where it landed and is not offered to
	// another steal.
	flagStolen
)

// rec is one queued task: what a rank needs to run a spawn and answer it. The
// capitalised fields are what a steal reply carries of it (serial encodes
// them, steal.go); b is what Name resolves to on this rank.
type rec struct {
	Seq   uint64 // the home rank's reply sequence number (0: fire-and-forget)
	Trace uint64 // home-ring trace id (0: unsampled)
	Home  int32  // world rank that spawned the task (owns Seq, Trace, Group)
	Group uint64 // TaskGroup id on the home rank (0: none)
	Flags uint8
	own   bool   // Args lie in a message body of their own: execute decodes them in place
	Name  string // the registered function
	Args  []byte // its serialized argument

	b *taskBody
}

// RegisterTask registers a result-bearing task body for cross-rank dispatch
// and returns its wire name. Like RegisterRPC: call from init() with a
// package-level, non-generic function.
func RegisterTask[A, R any](fn func(*Rank, A) R) string {
	return registerTask(fn, 0, valueBody(fn))
}

// RegisterTaskFF registers a fire-and-forget task body (no result frame).
func RegisterTaskFF[A any](fn func(*Rank, A)) string {
	return registerTask(fn, flagFF, ffBody(fn))
}

// --- spawning -------------------------------------------------------------

// AsyncAt spawns fn(arg) on the target rank and returns a future for the
// result, owned by the calling persona (ready it via that persona's progress,
// like any RPC reply). The task lands in the target's queue, so any worker
// there, or a thief elsewhere, may run it. fn must be registered with
// RegisterTask on every rank.
func AsyncAt[A, R any](rt *TaskRuntime, target Intrank, fn func(*Rank, A) R, arg A) Future[R] {
	tok := spawnOf(fn) // an unregistered function must not count as spawned
	s := &taskSink[R]{credit: &rt.executed}
	s.init(rt.rk, rt.rk.currentPersona())
	rpcOne(rt.rk, target, tok, header(rt.spawn(target), 0), &arg, s, nil)
	return s.Future()
}

// taskSink is a spawn's reply sink: the caller's promise plus the runtime's
// completion count, credited as the reply lands. One object: the promise is
// the sink's own.
type taskSink[T any] struct {
	Promise[T]
	credit *atomic.Uint64
}

func (s *taskSink[T]) rpcResult(c any, res []byte, own bool) error {
	err := s.Promise.rpcResult(c, res, own)
	if err == nil {
		s.credit.Add(1)
	}
	return err
}

// AsyncAtFF spawns fn(arg) on the target rank fire-and-forget: no result
// returns, and Finish (not a future) is the way to await it.
func AsyncAtFF[A any](rt *TaskRuntime, target Intrank, fn func(*Rank, A), arg A) {
	spawnFF(rt, target, fn, 0, arg)
}

// spawnFF ships a fire-and-forget spawn: the local queue for self-targets,
// the function's spawn entry otherwise.
func spawnFF[A any](rt *TaskRuntime, target Intrank, fn func(*Rank, A), group uint64, arg A) {
	tok := spawnOf(fn)
	b := tok.bodies[0].task
	trace := rt.spawn(target)
	if target != rt.rk.Me() {
		rpcOne(rt.rk, target, tok, header(trace, group), &arg, nil, nil)
		return
	}
	rt.enqueue(rec{Trace: trace, Home: int32(target), Group: group, Flags: flagFF, Name: b.name, Args: mustMarshal(arg), b: b})
}

// spawn counts one spawn at target and returns its trace id (0: unsampled).
func (rt *TaskRuntime) spawn(target Intrank) (trace uint64) {
	if target < 0 || target >= rt.rk.N() {
		panic(fmt.Sprintf("task: AsyncAt target %d out of range [0,%d)", target, rt.rk.N()))
	}
	rt.spawned.Add(1)
	if ro := rt.rk.ro; ro != nil {
		trace = ro.TaskStart()
	}
	return trace
}

// header is what a spawn entry carries ahead of the argument: the trace id
// and the group, a uvarint each (Arrive reads it back). An untraced, ungrouped
// spawn's is shared: encodeRPCMsg copies it.
func header(trace, group uint64) []byte {
	if trace == 0 && group == 0 {
		return plainHeader
	}
	return binary.AppendUvarint(binary.AppendUvarint(nil, trace), group)
}

var plainHeader = []byte{0, 0}

// hop records one lifecycle event of a traced task in its home rank's ring,
// count adds to one task counter — when the world keeps stats.
func (rt *TaskRuntime) hop(r rec, stage obs.Stage, bytes int) {
	if ro := rt.rk.ro; ro != nil {
		ro.TaskHop(r.Home, stage, r.Trace, bytes)
	}
}

func (rt *TaskRuntime) count(s obs.TaskStat, n int) {
	if ro := rt.rk.ro; ro != nil {
		ro.Add(s.Counter(), uint64(n))
	}
}

// enqueue appends a runnable task to the shared local queue and wakes a
// parked worker for it.
func (rt *TaskRuntime) enqueue(r rec) {
	rt.mu.Lock()
	rt.dq = append(rt.dq, r)
	rt.mu.Unlock()
	rt.rk.ep.Ring()
	rt.hop(r, obs.StageTaskEnq, len(r.Args))
}

// popLocal takes the newest task: LIFO keeps the working set warm, and leaves
// thieves the oldest end, where a divide-and-conquer's biggest subtrees sit.
func (rt *TaskRuntime) popLocal() (rec, bool) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	n := len(rt.dq) - 1
	if n < 0 {
		return rec{}, false
	}
	r := rt.dq[n]
	rt.dq = slices.Delete(rt.dq, n, n+1)
	return r, true
}

// popOldest takes up to n tasks from the victim end of the queue, of what is
// this rank's to give: not loot (steal.go), and not the task a helper between
// tasks is about to pop — shipping that away turns one message each way into three.
func (rt *TaskRuntime) popOldest(n int) []rec {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	n = min(n, len(rt.dq)-int(rt.idle.Load()))
	var out []rec
	rt.dq = slices.DeleteFunc(rt.dq, func(r rec) bool {
		take := len(out) < n && r.Flags&flagStolen == 0
		if take {
			out = append(out, r)
		}
		return take
	})
	return out
}

// execute runs one task on the calling goroutine and retires it at its home
// rank: the reply entry for a result-bearing task, the retire frame (at home,
// the credit itself) for a fire-and-forget one. C moves at home, so S==C also
// certifies that every result and group credit has landed, not just that bodies ran.
func (rt *TaskRuntime) execute(r rec) {
	rt.hop(r, obs.StageTaskExec, len(r.Args))
	home := Intrank(r.Home)
	out := r.b.run(rt.rk, home, r.Seq, r.Args, r.own, replyMsg{})
	switch {
	case r.Flags&flagFF == 0:
		rt.rk.sendAM(home, out.bytes(rt.rk.me), nil, nil)
	case home == rt.rk.Me():
		rt.retire(r.Group)
	default:
		RPCFF(rt.rk, home, taskRetireBody, r.Group)
	}
	rt.count(obs.TaskExecuted, 1)
	rt.hop(r, obs.StageTaskDone, 0)
}

// retire is the home side of a fire-and-forget completion: group credit and C.
func (rt *TaskRuntime) retire(group uint64) {
	if group != 0 {
		rt.gmu.Lock()
		g := rt.groups[group]
		rt.gmu.Unlock()
		if g != nil && g.n.Add(-1) == 0 {
			rt.rk.ep.Ring() // the group's waiter may be parked on another goroutine
		}
	}
	rt.executed.Add(1)
}

// Beside spawn entries and replies, the protocol is three rpc_ff bodies (steal.go).

var (
	_ = RegisterRPCFF(taskRetireBody)
	_ = RegisterRPCFF(stealReqBody)
	_ = RegisterRPCFF(stealReplyBody)
)

// taskRetireBody lands a fire-and-forget completion at the task's home rank
// (a runtime stopped before its spawns retired has no count left to keep).
func taskRetireBody(trk *Rank, group uint64) {
	if rt := TaskRuntimeOf(trk); rt != nil {
		rt.retire(group)
	}
}

// --- workers and waiters ----------------------------------------------------

// worker is one puller persona: helpUntil the runtime stops.
func (rt *TaskRuntime) worker(i int) {
	defer rt.wg.Done()
	sc := AcquirePersona(NewPersona(rt.rk, fmt.Sprintf("task-worker-%d", i)))
	defer sc.Release()
	_ = rt.helpUntil(rt.stopped.Load) // a failed world has nothing left to run
}

// helpUntil executes queued tasks (stealing when idle) and progresses the
// rank until done() holds, failing fast if the world loses a rank. Progress
// runs between executions, so a rank grinding through a deep queue stays
// attentive and thieves can drain it while its owner is busy. With nothing to
// run it makes one pass, and only a pass that found nothing idles: done() is
// looked at again after every pass that delivered something.
func (rt *TaskRuntime) helpUntil(done func() bool) error {
	rt.idle.Add(1)
	defer rt.idle.Add(-1)
	for !done() {
		if err := rt.rk.World().Failed(); err != nil {
			return err
		}
		if r, ok := rt.popLocal(); ok {
			rt.idle.Add(-1)
			rt.execute(r)
			rt.idle.Add(1)
			rt.rk.Progress()
			continue
		}
		rt.maybeSteal()
		rt.rk.ProgressWait(idlePark)
	}
	return nil
}

// --- quiescence -----------------------------------------------------------

// tally is one detector wave's payload: job-wide spawned and retired counts.
type tally struct{ S, C uint64 }

// Finish drives the four-counter termination detector: waves of AllReduce
// over (spawned, retired) counters, terminating when two consecutive waves
// agree on identical totals with S == C. Every wave-k read happens before
// every wave-k+1 read, so agreement across one wave gap proves no spawn,
// steal, execution or result was in flight anywhere — quiescence without a
// stop-the-world barrier. Finish is collective: every rank calls it (in
// matching collective order) and helps execute tasks while it waits. It fails
// fast with the world's error (wrapping gasnet.ErrPeerLost) if a rank dies.
func (rt *TaskRuntime) Finish() error {
	rt.stealSoon() // the job is draining: what an idle spell taught this rank is stale
	var prev tally
	prevQuiet := false
	for {
		f := AllReduce(rt.rk.WorldTeam(), tally{S: rt.spawned.Load(), C: rt.executed.Load()},
			func(a, b tally) tally { return tally{S: a.S + b.S, C: a.C + b.C} })
		if err := rt.helpUntil(f.Ready); err != nil {
			return err
		}
		tot := f.Result()
		rt.count(obs.TaskDetectRounds, 1)
		quiet := tot.S == tot.C
		if quiet && prevQuiet && tot == prev {
			return nil
		}
		prev, prevQuiet = tot, quiet
		runtime.Gosched() // a one-rank wave is ready at once: let the workers have the P
	}
}

// TaskHelpWait blocks on f like Future.Wait, but lends the calling goroutine
// to the task queue while it waits, so a rank awaiting one result keeps
// executing (and stealing) tasks. It panics on world failure, matching Wait.
func TaskHelpWait[T any](rt *TaskRuntime, f Future[T]) T {
	if err := rt.helpUntil(f.Ready); err != nil {
		panic(err)
	}
	return f.Result()
}

// --- task groups ----------------------------------------------------------

// TaskGroup awaits a set of fire-and-forget spawns by credit counting: every
// GroupAsyncAt increments the home-side balance before the spawn ships, every
// completion returns one credit with the task's retire frame, and Wait drains
// to zero. Unlike Finish it is local — only the home rank waits — so spawning
// through a TaskGroup is restricted to the rank that created it.
type TaskGroup struct {
	rt *TaskRuntime
	id uint64
	n  atomic.Int64
}

// NewGroup creates a task group homed on this rank.
func (rt *TaskRuntime) NewGroup() *TaskGroup {
	rt.gmu.Lock()
	rt.gseq++
	g := &TaskGroup{rt: rt, id: rt.gseq}
	rt.groups[g.id] = g
	rt.gmu.Unlock()
	return g
}

// GroupAsyncAt spawns fn(arg) on the target rank under the group.
func GroupAsyncAt[A any](g *TaskGroup, target Intrank, fn func(*Rank, A), arg A) {
	g.n.Add(1) // credit out before the frame can possibly retire
	spawnFF(g.rt, target, fn, g.id, arg)
}

// Outstanding returns the group's current credit balance.
func (g *TaskGroup) Outstanding() int64 { return g.n.Load() }

// Wait blocks until every spawn under the group has retired, helping execute
// tasks meanwhile; it fails fast on world failure. The group stays usable.
func (g *TaskGroup) Wait() error {
	return g.rt.helpUntil(func() bool { return g.n.Load() == 0 })
}
