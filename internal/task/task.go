// Package task is the distributed async-task runtime layered on the
// UPC++-style core: AsyncAt ships a registered function and serialized
// argument to any rank and hands back a future for the result, per-rank
// worker personas drain a shared local queue, idle ranks steal batched
// work from remote victims over one-way RPCs, and a Mattern-style
// four-counter detector decides global quiescence (Finish) without a
// barrier per wave of spawns.
//
// A spawn is one RPC entry: AsyncAt sends a single call of the function's
// task form (core/fnreg.go), header and argument marshalled once into the
// message, with the caller's promise as its ordinary reply sink. The entry's
// body runs no user code: it pushes {home, seq, args} on the rank's deque and
// rings its doorbell. Whichever rank runs the task — the target or a thief —
// sends the reply entry for seq straight home, where the RPC layer fulfils
// the promise and credits the detector's C. Fire-and-forget and group spawns
// are a fire-and-forget entry out and a retire rpc_ff home for the credit.
//
// Workers, Finish, HelpWait and Group.Wait all wait in helpUntil, idling by
// the rank's idle rule (core/idle.go); a push rings the doorbell they park
// on, so the park bound only backstops a ring another waiter took.
package task

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

	core "upcxx/internal/core"
	"upcxx/internal/gasnet"
	"upcxx/internal/obs"
	"upcxx/internal/serial"
)

// Config tunes one rank's task runtime.
type Config struct {
	// Workers is the number of worker goroutines (each with its own
	// persona) pulling from the rank's task queue. 0 means 2.
	Workers int
	// NoSteal disables work stealing: idle workers only wait for local
	// spawns. The imbalance-recovery baseline in cmd/task-bench.
	NoSteal bool
	// StealBatch caps how many tasks one steal request migrates. 0 means
	// 8. Batching amortizes the per-message overhead o over several
	// migrated tasks — the same o/G trade the paper's rput_v makes.
	StealBatch int
}

// Runtime is one rank's task engine. Every rank of the job must create one
// with New before any task crosses ranks: the RPC bodies resolve the
// receiving rank's runtime through a process-global registry.
type Runtime struct {
	rk   *core.Rank
	cfg  Config
	bell *gasnet.Endpoint // the rank's doorbell: what its idle waiters park on

	mu   sync.Mutex
	dq   []rec        // shared deque: workers pop newest, steals take oldest
	idle atomic.Int32 // workers and helpers waiting for work; a queued task each is theirs, not a thief's

	gmu    sync.Mutex
	groups map[uint64]*Group
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

// runtimes lets the registered bodies, which receive only *core.Rank, find its runtime.
var runtimes sync.Map // *core.Rank -> *Runtime

// New creates and starts the rank's task runtime. At most one per rank.
func New(rk *core.Rank, cfg Config) *Runtime {
	if cfg.Workers <= 0 {
		cfg.Workers = 2
	}
	if cfg.StealBatch <= 0 {
		cfg.StealBatch = 8
	}
	rt := &Runtime{
		rk:     rk,
		cfg:    cfg,
		bell:   rk.World().Network().Endpoint(gasnet.Rank(rk.Me())),
		groups: make(map[uint64]*Group),
		born:   time.Now(),
	}
	rt.victim.Store(rand.Uint32())
	rt.stealRTT.Store(math.MaxInt64)
	if _, loaded := runtimes.LoadOrStore(rk, rt); loaded {
		panic(fmt.Sprintf("task: %v already has a runtime", rk))
	}
	rt.wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go rt.worker(i)
	}
	return rt
}

// Of returns the rank's runtime, or nil when New has not run.
func Of(rk *core.Rank) *Runtime {
	v, _ := runtimes.Load(rk)
	rt, _ := v.(*Runtime)
	return rt
}

// Rank returns the rank the runtime serves.
func (rt *Runtime) Rank() *core.Rank { return rt.rk }

// Stop shuts the worker goroutines down and unregisters the runtime.
// Call after quiescence (Finish); queued tasks are abandoned.
func (rt *Runtime) Stop() {
	rt.stopped.Store(true)
	rt.wg.Wait()
	runtimes.Delete(rt.rk)
}

// body is what the registry keeps for a task function: run decodes the
// argument, calls the function and marshals its result (nil: fire-and-forget).
type body struct {
	name  string
	flags uint8 // flagFF or none
	run   func(trk *core.Rank, args []byte) []byte
}

// Arrive is the spawn entry's body (core.TaskBody): queue the task for this
// rank's workers. It runs on the execution persona and runs no user code. The
// queued argument aliases the arrived message: this rank's to keep (gasnet.AMHandler).
func (b *body) Arrive(trk *core.Rank, home core.Intrank, seq uint64, args []byte) error {
	rt := Of(trk)
	if rt == nil {
		return fmt.Errorf("task: a spawn of %s reached %v, which has no task runtime (every rank must task.New before tasks cross ranks)", b.name, trk)
	}
	d := serial.NewDecoder(args)
	r := rec{Seq: seq, Trace: d.Uvarint(), Home: int32(home), Group: d.Uvarint(), Flags: b.flags, Name: b.name, b: b}
	if d.Err() != nil {
		return fmt.Errorf("task: a spawn of %s carries a malformed task header", b.name)
	}
	r.Args = args[d.Offset():]
	rt.enqueue(r)
	return nil
}

func register(fn any, b *body) string {
	b.name = core.RegisterTask(fn, b, b.flags&flagFF != 0)
	return b.name
}

// bodyOf returns the body fn was registered with; it panics if it was not.
func bodyOf(fn any) *body { return core.TaskOf(fn).(*body) }

// Register registers a result-bearing task body for cross-rank dispatch
// and returns its wire name. Call from init() with a package-level,
// non-generic function.
func Register[A, R any](fn func(*core.Rank, A) R) string {
	return register(fn, &body{run: func(trk *core.Rank, args []byte) []byte {
		var a A
		unmarshal(args, &a)
		r := fn(trk, a)
		return marshal(&r)
	}})
}

// RegisterFF registers a fire-and-forget task body (no result frame).
func RegisterFF[A any](fn func(*core.Rank, A)) string {
	return register(fn, &body{flags: flagFF, run: func(trk *core.Rank, args []byte) []byte {
		var a A
		unmarshal(args, &a)
		fn(trk, a)
		return nil
	}})
}

func marshal[T any](v *T) []byte {
	var e serial.Encoder
	if err := serial.Encode(&e, v); err != nil {
		panic(fmt.Sprintf("task: argument/result not serializable: %v", err))
	}
	return e.Bytes()
}

func unmarshal[T any](b []byte, ptr *T) {
	if err := serial.Decode(b, ptr); err != nil {
		panic(fmt.Sprintf("task: argument/result decode: %v", err))
	}
}

// --- spawning -------------------------------------------------------------

// AsyncAt spawns fn(arg) on the target rank and returns a future for the
// result, owned by the calling persona (ready it via that persona's progress,
// like any RPC reply). The task lands in the target's queue, so any worker
// there, or a thief elsewhere, may run it. fn must be Registered on every rank.
func AsyncAt[A, R any](rt *Runtime, target core.Intrank, fn func(*core.Rank, A) R, arg A) core.Future[R] {
	bodyOf(fn) // an unregistered function must not count as spawned
	return core.TaskRPC(rt.rk, target, fn, header(rt.spawn(target), 0), arg, &rt.executed)
}

// AsyncAtFF spawns fn(arg) on the target rank fire-and-forget: no result
// returns, and Finish (not a future) is the way to await it.
func AsyncAtFF[A any](rt *Runtime, target core.Intrank, fn func(*core.Rank, A), arg A) {
	spawnFF(rt, target, fn, 0, arg)
}

// spawnFF ships a fire-and-forget spawn: the local queue for self-targets,
// the function's spawn entry otherwise.
func spawnFF[A any](rt *Runtime, target core.Intrank, fn func(*core.Rank, A), group uint64, arg A) {
	b := bodyOf(fn)
	trace := rt.spawn(target)
	if target != rt.rk.Me() {
		core.TaskRPCFF(rt.rk, target, fn, header(trace, group), arg)
		return
	}
	rt.enqueue(rec{Trace: trace, Home: int32(target), Group: group, Flags: flagFF, Name: b.name, Args: marshal(&arg), b: b})
}

// spawn counts one spawn at target and returns its trace id (0: unsampled).
func (rt *Runtime) spawn(target core.Intrank) (trace uint64) {
	if target < 0 || target >= rt.rk.N() {
		panic(fmt.Sprintf("task: AsyncAt target %d out of range [0,%d)", target, rt.rk.N()))
	}
	rt.spawned.Add(1)
	if ro := rt.rk.RankObs(); ro != nil {
		trace = ro.TaskStart()
	}
	return trace
}

// header is what a spawn entry carries ahead of the argument: the trace id
// and the group, a uvarint each (Arrive reads it back).
func header(trace, group uint64) []byte {
	return binary.AppendUvarint(binary.AppendUvarint(nil, trace), group)
}

// hop records one lifecycle event of a traced task in its home rank's ring,
// count adds to one task counter — when the world keeps stats.
func (rt *Runtime) hop(r rec, stage obs.Stage, bytes int) {
	if ro := rt.rk.RankObs(); ro != nil {
		ro.TaskHop(r.Home, stage, r.Trace, bytes)
	}
}

func (rt *Runtime) count(s obs.TaskStat, n int) {
	if ro := rt.rk.RankObs(); ro != nil {
		ro.CountTask(s, n)
	}
}

// enqueue appends a runnable task to the shared local queue and wakes a
// parked worker for it.
func (rt *Runtime) enqueue(r rec) {
	rt.mu.Lock()
	rt.dq = append(rt.dq, r)
	rt.mu.Unlock()
	rt.bell.Ring()
	rt.hop(r, obs.StageTaskEnq, len(r.Args))
}

// popLocal takes the newest task: LIFO keeps the working set warm, and leaves
// thieves the oldest end, where a divide-and-conquer's biggest subtrees sit.
func (rt *Runtime) popLocal() (rec, bool) {
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
// this rank's to give: not loot (steal.go), and not the task an idle worker was
// just woken for — shipping that away turns one message each way into three.
func (rt *Runtime) popOldest(n int) []rec {
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
func (rt *Runtime) execute(r rec) {
	rt.hop(r, obs.StageTaskExec, len(r.Args))
	res := r.b.run(rt.rk, r.Args)
	switch home := core.Intrank(r.Home); {
	case r.Flags&flagFF == 0:
		core.TaskReply(rt.rk, home, r.Seq, res)
	case home == rt.rk.Me():
		rt.retire(r.Group)
	default:
		core.RPCFF(rt.rk, home, taskRetireBody, r.Group)
	}
	rt.count(obs.TaskExecuted, 1)
	rt.hop(r, obs.StageTaskDone, 0)
}

// retire is the home side of a fire-and-forget completion: group credit and C.
func (rt *Runtime) retire(group uint64) {
	if group != 0 {
		rt.gmu.Lock()
		g := rt.groups[group]
		rt.gmu.Unlock()
		if g != nil && g.n.Add(-1) == 0 {
			rt.bell.Ring() // the group's waiter may be parked on another goroutine
		}
	}
	rt.executed.Add(1)
}

// Beside spawn entries and replies, the protocol is three rpc_ff bodies (steal.go).

var (
	_ = core.RegisterRPCFF(taskRetireBody)
	_ = core.RegisterRPCFF(stealReqBody)
	_ = core.RegisterRPCFF(stealReplyBody)
)

// taskRetireBody lands a fire-and-forget completion at the task's home rank
// (a runtime stopped before its spawns retired has no count left to keep).
func taskRetireBody(trk *core.Rank, group uint64) {
	if rt := Of(trk); rt != nil {
		rt.retire(group)
	}
}

// --- workers and waiters ----------------------------------------------------

// helpPark bounds one park of a worker or helper (see the package comment).
const helpPark = 200 * time.Microsecond

// worker is one puller persona: helpUntil the runtime stops.
func (rt *Runtime) worker(i int) {
	defer rt.wg.Done()
	sc := core.AcquirePersona(core.NewPersona(rt.rk, fmt.Sprintf("task-worker-%d", i)))
	defer sc.Release()
	_ = rt.helpUntil(rt.stopped.Load) // a failed world has nothing left to run
}

// helpUntil executes queued tasks (stealing when idle) and progresses the
// rank until done() holds, failing fast if the world loses a rank. Progress
// runs between executions, so a rank grinding through a deep queue stays
// attentive and thieves can drain it while its owner is busy. With nothing to
// run it makes one pass, and only a pass that found nothing idles: done() is
// looked at again after every pass that delivered something.
func (rt *Runtime) helpUntil(done func() bool) error {
	for !done() {
		if err := rt.rk.World().Failed(); err != nil {
			return err
		}
		if r, ok := rt.popLocal(); ok {
			rt.execute(r)
			rt.rk.Progress()
			continue
		}
		rt.maybeSteal()
		rt.idle.Add(1)
		rt.rk.ProgressWait(helpPark)
		rt.idle.Add(-1)
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
func (rt *Runtime) Finish() error {
	rt.stealSoon() // the job is draining: what an idle spell taught this rank is stale
	var prev tally
	prevQuiet := false
	for {
		f := core.AllReduce(rt.rk.WorldTeam(), tally{S: rt.spawned.Load(), C: rt.executed.Load()},
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

// HelpWait blocks on f like Future.Wait, but lends the calling goroutine to
// the task queue while it waits, so a rank awaiting one result keeps executing
// (and stealing) tasks. It panics on world failure, matching Wait.
func HelpWait[T any](rt *Runtime, f core.Future[T]) T {
	if err := rt.helpUntil(f.Ready); err != nil {
		panic(err)
	}
	return f.Result()
}

// --- task groups ----------------------------------------------------------

// Group awaits a set of fire-and-forget spawns by credit counting: every
// GroupAsyncAt increments the home-side balance before the spawn ships, every
// completion returns one credit with the task's retire frame, and Wait drains
// to zero. Unlike Finish it is local — only the home rank waits — so spawning
// through a Group is restricted to the rank that created it.
type Group struct {
	rt *Runtime
	id uint64
	n  atomic.Int64
}

// NewGroup creates a task group homed on this rank.
func (rt *Runtime) NewGroup() *Group {
	rt.gmu.Lock()
	rt.gseq++
	g := &Group{rt: rt, id: rt.gseq}
	rt.groups[g.id] = g
	rt.gmu.Unlock()
	return g
}

// GroupAsyncAt spawns fn(arg) on the target rank under the group.
func GroupAsyncAt[A any](g *Group, target core.Intrank, fn func(*core.Rank, A), arg A) {
	g.n.Add(1) // credit out before the frame can possibly retire
	spawnFF(g.rt, target, fn, g.id, arg)
}

// Outstanding returns the group's current credit balance.
func (g *Group) Outstanding() int64 { return g.n.Load() }

// Wait blocks until every spawn under the group has retired, helping execute
// tasks meanwhile; it fails fast on world failure. The group stays usable.
func (g *Group) Wait() error {
	return g.rt.helpUntil(func() bool { return g.n.Load() == 0 })
}
