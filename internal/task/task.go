// Package task is the distributed async-task runtime layered on the
// UPC++-style core: AsyncAt ships a registered function and serialized
// argument to any rank and hands back a future for the result, per-rank
// worker personas drain a shared local queue, idle ranks steal batched
// work from remote victims over one-way RPCs, and a Mattern-style
// four-counter detector decides global quiescence (Finish) without a
// barrier per wave of spawns.
//
// The package adds no conduit machinery: spawns, migrations, results and
// steal control all lower onto the registered-RPC and batched-RPC paths
// the core already routes through Rank.inject, so tasks inherit the
// transports (in-process, tcp, shm), the failure detector (ErrPeerLost),
// and the introspection layer for free.
//
// Attentiveness follows the UPC++ model: task frames arrive during
// progress (worker personas call ProgressWait while idle, and
// Finish/Wait help execute), and every future returned by AsyncAt is
// owned by the spawning persona, readied via an LPC exactly like an RPC
// reply.
package task

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	core "upcxx/internal/core"
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

func (c Config) workers() int {
	if c.Workers <= 0 {
		return 2
	}
	return c.Workers
}

func (c Config) stealBatch() int {
	if c.StealBatch <= 0 {
		return 8
	}
	return c.StealBatch
}

// Runtime is one rank's task engine. Create one per rank with New; every
// rank of the job must create it (with matching steal configuration)
// before any task crosses ranks, since the RPC bodies resolve the
// receiving rank's runtime through a process-global registry.
type Runtime struct {
	rk  *core.Rank
	cfg Config

	mu sync.Mutex
	dq []rec // shared deque: workers pop newest, steals take oldest

	pmu     sync.Mutex
	pending map[uint64]func([]byte) // result routes by spawn id (home side)

	gmu    sync.Mutex
	groups map[uint64]*Group
	gseq   uint64

	seq      atomic.Uint64 // spawn ids, scoped to this home rank
	spawned  atomic.Uint64 // S: tasks spawned by this rank
	executed atomic.Uint64 // C: spawns of this rank fully retired

	stealing  atomic.Bool   // at most one outstanding steal request
	victimSeq atomic.Uint32 // round-robin victim rotation

	stop chan struct{}
	wg   sync.WaitGroup
}

// runtimes maps each rank to its task runtime so the registered RPC
// bodies (which receive only *core.Rank) can find it.
var runtimes sync.Map // *core.Rank -> *Runtime

// New creates and starts the rank's task runtime. At most one per rank.
func New(rk *core.Rank, cfg Config) *Runtime {
	rt := &Runtime{
		rk:      rk,
		cfg:     cfg,
		pending: make(map[uint64]func([]byte)),
		groups:  make(map[uint64]*Group),
		stop:    make(chan struct{}),
	}
	if _, loaded := runtimes.LoadOrStore(rk, rt); loaded {
		panic(fmt.Sprintf("task: %v already has a runtime", rk))
	}
	rt.wg.Add(cfg.workers())
	for i := 0; i < cfg.workers(); i++ {
		go rt.worker(i)
	}
	return rt
}

// Of returns the rank's runtime, or nil when New has not run.
func Of(rk *core.Rank) *Runtime {
	v, ok := runtimes.Load(rk)
	if !ok {
		return nil
	}
	return v.(*Runtime)
}

func of(rk *core.Rank, why string) *Runtime {
	rt := Of(rk)
	if rt == nil {
		panic(fmt.Sprintf("task: %s reached %v, which has no task runtime (every rank must task.New before tasks cross ranks)", why, rk))
	}
	return rt
}

// Rank returns the rank the runtime serves.
func (rt *Runtime) Rank() *core.Rank { return rt.rk }

// Stop shuts the worker goroutines down and unregisters the runtime.
// Call after quiescence (Finish); queued tasks are abandoned.
func (rt *Runtime) Stop() {
	close(rt.stop)
	rt.wg.Wait()
	runtimes.Delete(rt.rk)
}

// --- task function registry ----------------------------------------------

// Task bodies cross process boundaries by stable runtime name and live
// in the core's function registry (core/fnreg.go) as one more entry
// kind: register package-level, non-generic functions from init().

func nameOf(fn any) string {
	name, err := core.TaskBodyName(fn)
	if err != nil {
		panic(fmt.Sprintf("task: AsyncAt: %v", err))
	}
	return name
}

// Register registers a result-bearing task body for cross-rank dispatch
// and returns its wire name. Call from init() with a package-level,
// non-generic function.
func Register[A, R any](fn func(*core.Rank, A) R) string {
	return core.RegisterTaskBody(fn, core.TaskBody{
		Run: func(trk *core.Rank, args []byte) []byte {
			var a A
			unmarshal(args, &a)
			return marshal(fn(trk, a))
		},
	})
}

// RegisterFF registers a fire-and-forget task body (no result frame).
func RegisterFF[A any](fn func(*core.Rank, A)) string {
	return core.RegisterTaskBody(fn, core.TaskBody{
		RunFF: func(trk *core.Rank, args []byte) {
			var a A
			unmarshal(args, &a)
			fn(trk, a)
		},
	})
}

func marshal(v any) []byte {
	b, err := serial.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("task: argument/result not serializable: %v", err))
	}
	return b
}

func unmarshal(b []byte, ptr any) {
	if err := serial.Unmarshal(b, ptr); err != nil {
		panic(fmt.Sprintf("task: argument/result decode: %v", err))
	}
}

// --- spawning -------------------------------------------------------------

// AsyncAt spawns fn(arg) on the target rank and returns a future for the
// result, owned by the calling persona (ready it via that persona's
// progress, like any RPC reply). The task lands in the target's queue —
// not inline in its AM handler — so any worker there, or a thief
// elsewhere, may run it. fn must be task.Registered on every rank.
func AsyncAt[A, R any](rt *Runtime, target core.Intrank, fn func(*core.Rank, A) R, arg A) core.Future[R] {
	name := nameOf(fn)
	prom := core.NewPromise[R](rt.rk)
	pers := rt.rk.CurrentPersona()
	if pers == nil {
		panic("task: AsyncAt requires a current persona to own the result future")
	}
	id := rt.seq.Add(1)
	rt.pmu.Lock()
	rt.pending[id] = func(res []byte) {
		pers.LPC(func() {
			var r R
			unmarshal(res, &r)
			prom.FulfillResult(r)
		})
	}
	rt.pmu.Unlock()
	rt.ship(target, rec{ID: id, Home: int32(rt.rk.Me()), Name: name, Args: marshal(arg)})
	return prom.Future()
}

// AsyncAtFF spawns fn(arg) on the target rank fire-and-forget: no result
// returns, and Finish (not a future) is the way to await it.
func AsyncAtFF[A any](rt *Runtime, target core.Intrank, fn func(*core.Rank, A), arg A) {
	rt.ship(target, rec{Home: int32(rt.rk.Me()), Flags: flagFF, Name: nameOf(fn), Args: marshal(arg)})
}

// ship counts the spawn, stamps the trace id, and routes the frame: the
// local queue for self-targets, the enqueue RPC otherwise.
func (rt *Runtime) ship(target core.Intrank, r rec) {
	if target < 0 || target >= rt.rk.N() {
		panic(fmt.Sprintf("task: AsyncAt target %d out of range [0,%d)", target, rt.rk.N()))
	}
	rt.spawned.Add(1)
	if ro := rt.rk.RankObs(); ro != nil {
		r.Trace = ro.TaskStart(len(r.Args))
	}
	if target == rt.rk.Me() {
		rt.enqueue(r)
		return
	}
	core.RPCFF(rt.rk, target, taskEnqueueBody, encodeRec(r))
}

// enqueue appends a runnable task to the shared local queue.
func (rt *Runtime) enqueue(r rec) {
	rt.mu.Lock()
	rt.dq = append(rt.dq, r)
	rt.mu.Unlock()
	if ro := rt.rk.RankObs(); ro != nil {
		ro.TaskHop(r.Home, obs.StageTaskEnq, r.Trace, len(r.Args))
	}
}

// popLocal takes the newest task (LIFO keeps the working set warm;
// thieves take the oldest end, where the biggest unexplored subtrees of
// a divide-and-conquer spawn pattern sit).
func (rt *Runtime) popLocal() (rec, bool) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if len(rt.dq) == 0 {
		return rec{}, false
	}
	r := rt.dq[len(rt.dq)-1]
	rt.dq = rt.dq[:len(rt.dq)-1]
	return r, true
}

// popOldest takes up to n tasks from the victim end of the queue.
func (rt *Runtime) popOldest(n int) []rec {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if n > len(rt.dq) {
		n = len(rt.dq)
	}
	if n == 0 {
		return nil
	}
	out := make([]rec, n)
	copy(out, rt.dq[:n])
	rt.dq = append(rt.dq[:0], rt.dq[n:]...)
	return out
}

// --- execution ------------------------------------------------------------

// execute runs one task on the calling goroutine and retires it: result
// frame home for result-bearing tasks, completion counting at the home
// rank (so Finish's S==C also covers the result leg), group credit back
// to the home group, trace hops into the home ring.
func (rt *Runtime) execute(r rec) {
	rk := rt.rk
	ro := rk.RankObs()
	if ro != nil {
		ro.TaskHop(r.Home, obs.StageTaskExec, r.Trace, len(r.Args))
	}
	body, err := core.LookupTaskBody(r.Name)
	if err != nil {
		panic(fmt.Sprintf("task: frame names an unknown body: %v", err))
	}
	home := core.Intrank(r.Home)
	if r.Flags&flagFF != 0 {
		body.RunFF(rk, r.Args)
		rt.retire(home, retireMsg{ID: r.ID, Group: r.Group})
	} else {
		res := body.Run(rk, r.Args)
		rt.retire(home, retireMsg{ID: r.ID, Group: r.Group, Res: res, HasRes: true})
	}
	if ro != nil {
		ro.CountTask(obs.TaskExecuted, 1)
		ro.TaskHop(r.Home, obs.StageTaskDone, r.Trace, 0)
	}
}

// retireMsg carries a task's completion back to its home rank: the
// executed-counter credit, the result bytes (when the spawn wants one),
// and the group credit.
type retireMsg struct {
	ID     uint64
	Group  uint64
	Res    []byte
	HasRes bool
}

func (rt *Runtime) retire(home core.Intrank, m retireMsg) {
	if home == rt.rk.Me() {
		taskRetireBody(rt.rk, m)
		return
	}
	core.RPCFF(rt.rk, home, taskRetireBody, m)
}

// retireLocal is the home side of a completion: the C counter moves here
// — not at the executing rank — so the detector's S==C quiescence also
// certifies that every result and group credit has landed, not merely
// that bodies ran somewhere.
func (rt *Runtime) retireLocal(m retireMsg) {
	if m.HasRes {
		rt.pmu.Lock()
		deliver := rt.pending[m.ID]
		delete(rt.pending, m.ID)
		rt.pmu.Unlock()
		if deliver != nil {
			deliver(m.Res)
		}
	}
	if m.Group != 0 {
		rt.gmu.Lock()
		g := rt.groups[m.Group]
		rt.gmu.Unlock()
		if g != nil {
			g.n.Add(-1)
		}
	}
	rt.executed.Add(1)
}

// --- workers --------------------------------------------------------------

// worker is one puller persona: execute local work; when the queue runs
// dry, try a steal and lend the goroutine to progress (delivering
// incoming frames, results and steal replies) until work appears.
func (rt *Runtime) worker(i int) {
	defer rt.wg.Done()
	pers := core.NewPersona(rt.rk, fmt.Sprintf("task-worker-%d", i))
	sc := core.AcquirePersona(pers)
	defer sc.Release()
	idle := 0
	for {
		select {
		case <-rt.stop:
			return
		default:
		}
		if r, ok := rt.popLocal(); ok {
			idle = 0
			rt.execute(r)
			// Stay attentive between executions: polling here hands
			// arriving frames and steal requests to the exec persona
			// instead of letting them sit until the queue drains.
			rt.rk.Progress()
			continue
		}
		idle++
		rt.maybeSteal()
		if idle < 64 {
			rt.rk.ProgressWait(200 * time.Microsecond)
		} else {
			// Deep idle: progress once, then sleep off-CPU so parked
			// worker fleets don't starve rank goroutines on small hosts.
			rt.rk.Progress()
			time.Sleep(200 * time.Microsecond)
		}
	}
}

// --- quiescence -----------------------------------------------------------

// tally is one detector wave's payload: job-wide spawned and retired
// counts.
type tally struct{ S, C uint64 }

// Finish drives the four-counter termination detector: waves of
// AllReduce over (spawned, retired) counters, terminating when two
// consecutive waves agree on identical totals with S == C. The allreduce
// ordering guarantees every wave-k read happens before every wave-k+1
// read, so agreement across one full wave gap proves no spawn, steal,
// execution or result was in flight anywhere — quiescence without a
// stop-the-world barrier. Finish is collective: every rank calls it (in
// matching collective order) and helps execute tasks while it waits. It
// fails fast with the world's error (wrapping gasnet.ErrPeerLost) if a
// rank dies before quiescence.
func (rt *Runtime) Finish() error {
	rk := rt.rk
	var prev tally
	prevQuiet := false
	for {
		f := core.AllReduce(rk.WorldTeam(), tally{S: rt.spawned.Load(), C: rt.executed.Load()},
			func(a, b tally) tally { return tally{S: a.S + b.S, C: a.C + b.C} })
		if err := rt.helpUntil(f.Ready); err != nil {
			return err
		}
		tot := f.Result()
		if ro := rk.RankObs(); ro != nil {
			ro.CountTask(obs.TaskDetectRounds, 1)
		}
		quiet := tot.S == tot.C
		if quiet && prevQuiet && tot == prev {
			return nil
		}
		prev, prevQuiet = tot, quiet
	}
}

// helpUntil executes queued tasks (stealing when idle) and progresses
// the rank until done() holds, failing fast if the world loses a rank.
// Progress runs every iteration — not only when the queue is dry — so a
// rank grinding through a deep queue stays attentive: steal requests
// against it land between task executions, which is what lets thieves
// drain a skewed queue while its owner is still busy.
func (rt *Runtime) helpUntil(done func() bool) error {
	for !done() {
		if err := rt.rk.World().Failed(); err != nil {
			return err
		}
		rt.rk.Progress()
		if r, ok := rt.popLocal(); ok {
			rt.execute(r)
			continue
		}
		rt.maybeSteal()
		rt.rk.ProgressWait(time.Millisecond)
	}
	return nil
}

// HelpWait blocks on f like Future.Wait, but lends the calling goroutine
// to the task queue while it waits, so a rank awaiting one result keeps
// executing (and stealing) tasks. It panics on world failure, matching
// Wait.
func HelpWait[T any](rt *Runtime, f core.Future[T]) T {
	if err := rt.helpUntil(f.Ready); err != nil {
		panic(err)
	}
	return f.Result()
}

// --- task groups ----------------------------------------------------------

// Group awaits a set of fire-and-forget spawns by credit counting:
// every GroupAsyncAt increments the home-side balance before the frame
// ships, every completion returns one credit with the task's retire
// frame, and Wait drains to zero. Unlike Finish it is local — only the
// home rank waits, nobody else participates — so spawning through a
// Group is restricted to the rank that created it.
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
	g.rt.ship(target, rec{Home: int32(g.rt.rk.Me()), Group: g.id, Flags: flagFF, Name: nameOf(fn), Args: marshal(arg)})
}

// Outstanding returns the group's current credit balance.
func (g *Group) Outstanding() int64 { return g.n.Load() }

// Wait blocks until every spawn under the group has retired, helping
// execute tasks meanwhile. It fails fast on world failure. The group
// stays usable for further rounds of spawns after Wait returns.
func (g *Group) Wait() error {
	return g.rt.helpUntil(func() bool { return g.n.Load() == 0 })
}

// --- registered RPC bodies ------------------------------------------------

// The cross-rank protocol is four registered fire-and-forget bodies —
// task frames, retire frames, steal requests and steal replies — all
// riding the core's RPC wire (and, for migrations, its batched wire).

var (
	_ = core.RegisterRPCFF(taskEnqueueBody)
	_ = core.RegisterRPCFF(taskRetireBody)
	_ = core.RegisterRPCFF(stealReqBody)
	_ = core.RegisterRPCFF(stealAckBody)
)

// taskEnqueueBody lands a shipped task frame in the receiving rank's
// queue. Runs on the exec persona like every RPC body.
func taskEnqueueBody(trk *core.Rank, frame []byte) {
	r, err := decodeRec(frame)
	if err != nil {
		panic(fmt.Sprintf("task: rank %d received malformed task frame: %v", trk.Me(), err))
	}
	rt := of(trk, "a task frame")
	if r.Flags&flagStolen != 0 {
		// Thief-side mirror of the victim's TaskMigrated: both count per
		// migration hop, so job-wide stolen == migrated at quiescence
		// even when loot is re-stolen onward.
		if ro := trk.RankObs(); ro != nil {
			ro.CountTask(obs.TaskStolen, 1)
			ro.TaskHop(r.Home, obs.StageTaskSteal, r.Trace, len(r.Args))
		}
	}
	rt.enqueue(r)
}

// taskRetireBody lands a completion at the task's home rank.
func taskRetireBody(trk *core.Rank, m retireMsg) {
	of(trk, "a retire frame").retireLocal(m)
}

// rng gives each steal decision an independent jitter source; victim
// selection must not need coordination.
var rng = struct {
	sync.Mutex
	r *rand.Rand
}{r: rand.New(rand.NewSource(1))}

func jitter(n int) int {
	rng.Lock()
	defer rng.Unlock()
	return rng.r.Intn(n)
}
