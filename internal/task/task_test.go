package upcxx

// Race-conformance matrix and semantics tests for the distributed task
// runtime: {AsyncAt, AsyncAtFF, Finish} × {self, cross} × {steal-on,
// steal-off} × {zero-delay, LogGP model-time} worlds, plus steal
// migration placement, cascade termination (no premature Finish, no
// missed quiescence), task groups, and the observability counters. The
// whole package runs under -race in CI (make race).

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"upcxx/internal/gasnet"
	"upcxx/internal/obs"
)

// --- registered task bodies (package-level, init-time, like production) ---

var (
	execBy    [64]atomic.Int64 // executions per executing rank
	ffHits    atomic.Int64     // fire-and-forget bodies run
	groupHits atomic.Int64     // group bodies run
	chainHits atomic.Int64     // cascade bodies run
)

func resetCounters() {
	for i := range execBy {
		execBy[i].Store(0)
	}
	ffHits.Store(0)
	groupHits.Store(0)
	chainHits.Store(0)
}

func tDouble(trk *Rank, x int64) int64 {
	execBy[trk.Me()].Add(1)
	return x * 2
}

type tPair struct {
	A, B  int64
	Label string
}

func tSwap(trk *Rank, p tPair) tPair {
	return tPair{A: p.B, B: p.A, Label: p.Label + fmt.Sprintf("@%d", trk.Me())}
}

func tBump(trk *Rank, _ int64) {
	execBy[trk.Me()].Add(1)
	ffHits.Add(1)
}

// tChain re-spawns itself around the ring until depth runs out: the
// in-flight cascade the four-counter detector must not cut short.
func tChain(trk *Rank, depth int64) {
	chainHits.Add(1)
	if depth > 0 {
		rt := TaskRuntimeOf(trk)
		AsyncAtFF(rt, (trk.Me()+1)%trk.N(), tChain, depth-1)
	}
}

// tSleep holds a worker long enough that a skewed queue outlives the
// thieves' first steal round.
func tSleep(trk *Rank, us int64) {
	time.Sleep(time.Duration(us) * time.Microsecond)
	execBy[trk.Me()].Add(1)
}

func tGroupBump(trk *Rank, _ int64) {
	execBy[trk.Me()].Add(1)
	groupHits.Add(1)
}

// tHold keeps its worker busy until the test lets go.
var holdStarted, holdRelease atomic.Bool

func tHold(*Rank, int64) {
	holdStarted.Store(true)
	for !holdRelease.Load() {
		runtime.Gosched()
	}
}

func tRelease(*Rank, int64) { holdRelease.Store(true) }

// tStealHere sends its own rank the steal request a thief at the next rank
// would: it arrives in the progress pass its helper makes after the task.
func tStealHere(trk *Rank, _ int64) {
	RPCFF(trk, trk.Me(), stealReqBody, stealReq{Thief: int32((trk.Me() + 1) % trk.N()), Max: 8})
}

func tLen(_ *Rank, b []byte) int64 { return int64(len(b)) }

func tCountAA(_ *Rank, b []byte) int64 { return int64(bytes.Count(b, []byte{0xAA})) }

func tCountAAView(trk *Rank, v View[uint8]) int64 { return tCountAA(trk, v.Elements()) }

var (
	_ = RegisterTask(tDouble)
	_ = RegisterTask(tSwap)
	_ = RegisterTask(tLen)
	_ = RegisterTask(tCountAA)
	_ = RegisterTask(tCountAAView)
	_ = RegisterTaskFF(tBump)
	_ = RegisterTaskFF(tChain)
	_ = RegisterTaskFF(tSleep)
	_ = RegisterTaskFF(tGroupBump)
	_ = RegisterTaskFF(tHold)
	_ = RegisterTaskFF(tPark)
	_ = RegisterTaskFF(tStealHere)
	_ = RegisterRPCFF(tRelease)
)

// matrixWorlds enumerates the conformance matrix's world axis.
func matrixWorlds() map[string]Config {
	return map[string]Config{
		"nodelay": {Ranks: 4},
		"loggp": {Ranks: 4, RanksPerNode: 2,
			Model: &gasnet.LogGP{O: time.Microsecond, L: 5 * time.Microsecond, Gp: time.Microsecond}},
	}
}

// TestTaskMatrix drives the conformance matrix. Each cell spawns
// result-bearing tasks at self and cross targets, fire-and-forget tasks
// at self and cross targets, a cascading chain, and then Finish — which
// must return only after every body anywhere has run and every result
// has landed.
func TestTaskMatrix(t *testing.T) {
	for wname, wcfg := range matrixWorlds() {
		for _, steal := range []bool{false, true} {
			wname, wcfg, steal := wname, wcfg, steal
			t.Run(fmt.Sprintf("%s/steal=%v", wname, steal), func(t *testing.T) {
				resetCounters()
				const chainDepth = 12
				RunConfig(wcfg, func(rk *Rank) {
					rt := NewTaskRuntime(rk, TaskConfig{NoSteal: !steal, Workers: 2})
					defer rt.Stop()
					me, n := rk.Me(), rk.N()

					fSelf := AsyncAt(rt, me, tDouble, int64(me))
					fCross := AsyncAt(rt, (me+1)%n, tDouble, int64(me)+100)
					fStruct := AsyncAt(rt, (me+2)%n, tSwap, tPair{A: 1, B: 2, Label: "x"})
					AsyncAtFF(rt, me, tBump, 0)
					AsyncAtFF(rt, (me+3)%n, tBump, 0)
					if me == 0 {
						AsyncAtFF(rt, me, tChain, chainDepth)
					}

					if got := TaskHelpWait(rt, fSelf); got != int64(me)*2 {
						t.Errorf("rank %d: self AsyncAt = %d, want %d", me, got, me*2)
					}
					if got := TaskHelpWait(rt, fCross); got != (int64(me)+100)*2 {
						t.Errorf("rank %d: cross AsyncAt = %d, want %d", me, got, (int64(me)+100)*2)
					}
					if got := TaskHelpWait(rt, fStruct); got.A != 2 || got.B != 1 || got.Label == "x" {
						t.Errorf("rank %d: struct AsyncAt = %+v", me, got)
					}
					if err := rt.Finish(); err != nil {
						t.Errorf("rank %d: Finish: %v", me, err)
					}
					rk.Barrier()
				})
				if got, want := ffHits.Load(), int64(2*4); got != want {
					t.Errorf("fire-and-forget bodies after Finish = %d, want %d", got, want)
				}
				if got, want := chainHits.Load(), int64(chainDepth+1); got != want {
					t.Errorf("cascade bodies after Finish = %d, want %d (premature quiescence)", got, want)
				}
			})
		}
	}
}

// TestTaskStealMovesWork pins migration placement on a skewed workload:
// every task spawns at rank 0 targeting itself. With stealing the other
// ranks must end up executing some of them; with NoSteal none may move.
func TestTaskStealMovesWork(t *testing.T) {
	// Enough work that rank 0 cannot finish it alone (~40 ms at two
	// executors) before a thief that other test packages keep off the CPU
	// for a scheduler quantum gets its first steal request through.
	const tasks = 256
	for _, steal := range []bool{true, false} {
		steal := steal
		t.Run(fmt.Sprintf("steal=%v", steal), func(t *testing.T) {
			resetCounters()
			var stolen, migrated uint64
			RunConfig(Config{Ranks: 4, Stats: true}, func(rk *Rank) {
				rt := NewTaskRuntime(rk, TaskConfig{NoSteal: !steal, Workers: 1})
				defer rt.Stop()
				if rk.Me() == 0 {
					for i := 0; i < tasks; i++ {
						AsyncAtFF(rt, 0, tSleep, 300)
					}
				}
				if err := rt.Finish(); err != nil {
					t.Errorf("rank %d: Finish: %v", rk.Me(), err)
				}
				rk.Barrier()
				if rk.Me() == 0 {
					s := rk.World().StatsMerged()
					stolen = s.Counters[obs.TaskStolen.Counter()]
					migrated = s.Counters[obs.TaskMigrated.Counter()]
				}
			})
			total := int64(0)
			remote := int64(0)
			for r := range execBy {
				total += execBy[r].Load()
				if r != 0 {
					remote += execBy[r].Load()
				}
			}
			if total != tasks {
				t.Fatalf("executed %d tasks, want %d", total, tasks)
			}
			if steal {
				if remote == 0 {
					t.Errorf("stealing on: all %d tasks ran at rank 0, want some migrated", tasks)
				}
				if stolen == 0 || migrated != stolen {
					t.Errorf("steal counters: stolen=%d migrated=%d, want equal and nonzero", stolen, migrated)
				}
			} else {
				if remote != 0 {
					t.Errorf("stealing off: %d tasks ran away from rank 0", remote)
				}
				if stolen != 0 || migrated != 0 {
					t.Errorf("steal counters with NoSteal: stolen=%d migrated=%d, want 0", stolen, migrated)
				}
			}
		})
	}
}

// TestStolenResultReachesHome: a result-bearing task that a thief runs is
// answered by the thief, straight to the home rank's ordinary reply sink, and
// the detector's S == C — C moves where the reply lands — certifies it got
// there. Rank 1's one worker is held and its master only progresses, so the
// tasks rank 0 spawns there can only run at rank 2, which steals them.
func TestStolenResultReachesHome(t *testing.T) {
	resetCounters()
	holdStarted.Store(false)
	holdRelease.Store(false)
	const tasks = 6
	var stolen, migrated uint64
	RunConfig(Config{Ranks: 3, Stats: true}, func(rk *Rank) {
		if rk.Me() == 2 {
			rk.Barrier() // the thief starts once the worker it must beat is held
		}
		rt := NewTaskRuntime(rk, TaskConfig{Workers: 1, NoSteal: rk.Me() != 2})
		defer rt.Stop()
		switch rk.Me() {
		case 0:
			AsyncAtFF(rt, 1, tHold, 0)
			rk.Barrier()
			var fs []Future[int64]
			for i := int64(0); i < tasks; i++ {
				fs = append(fs, AsyncAt(rt, 1, tDouble, i))
			}
			for i, f := range fs {
				if got := TaskHelpWait(rt, f); got != int64(i)*2 {
					t.Errorf("stolen task %d returned %d, want %d", i, got, i*2)
				}
			}
			if s, c := rt.spawned.Load(), rt.executed.Load(); s != tasks+1 || c != tasks {
				t.Errorf("home counts S=%d C=%d with every result in, want %d and %d (the held task is still out)", s, c, tasks+1, tasks)
			}
			RPCFF(rk, 1, tRelease, 0)
		case 1:
			for !holdStarted.Load() {
				rk.ProgressWait(idlePark)
			}
			rk.Barrier()
			for !holdRelease.Load() {
				rk.ProgressWait(idlePark)
			}
		}
		if err := rt.Finish(); err != nil {
			t.Errorf("rank %d: Finish: %v", rk.Me(), err)
		}
		if s, c := rt.spawned.Load(), rt.executed.Load(); s != c {
			t.Errorf("rank %d after Finish: S=%d C=%d", rk.Me(), s, c)
		}
		rk.Barrier()
		if rk.Me() == 0 {
			s := rk.World().StatsMerged()
			stolen, migrated = s.Counters[obs.TaskStolen.Counter()], s.Counters[obs.TaskMigrated.Counter()]
		}
	})
	if got := execBy[2].Load(); got != tasks {
		t.Errorf("rank 2 ran %d of the %d tasks (rank 0: %d, rank 1: %d)", got, tasks, execBy[0].Load(), execBy[1].Load())
	}
	if stolen != tasks || migrated != tasks {
		t.Errorf("stolen=%d migrated=%d, want %d each: every task changes owner once", stolen, migrated, tasks)
	}
}

// TestStealDoesNotBounce is the livelock of two idle ranks and one last
// batch: both ranks steal, one P, 64 sleep-grain tasks all spawned at rank 0.
// A progress pass that takes in loot and the sibling's next steal request
// must not ship the loot straight back — the job used to drain in 25 ms,
// 1.7 s, or not within a minute. Loot stays where it landed, so no task
// migrates more than once.
func TestStealDoesNotBounce(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	resetCounters()
	const tasks = 64
	var migrated atomic.Uint64
	done := make(chan struct{})
	go func() {
		defer close(done)
		RunConfig(Config{Ranks: 2, Stats: true}, func(rk *Rank) {
			rt := NewTaskRuntime(rk, TaskConfig{Workers: 1})
			defer rt.Stop()
			if rk.Me() == 0 {
				for i := 0; i < tasks; i++ {
					AsyncAtFF(rt, 0, tSleep, 200)
				}
			}
			if err := rt.Finish(); err != nil {
				t.Errorf("rank %d: Finish: %v", rk.Me(), err)
			}
			rk.Barrier()
			if rk.Me() == 0 {
				migrated.Store(rk.World().StatsMerged().Counters[obs.TaskMigrated.Counter()])
			}
		})
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("64 tasks between two stealing ranks did not drain in 10 s: the last batch is bouncing")
	}
	if got := execBy[0].Load() + execBy[1].Load(); got != tasks {
		t.Errorf("executed %d tasks, want %d", got, tasks)
	}
	if m := migrated.Load(); m > tasks {
		t.Errorf("%d migrations for %d tasks: loot was shipped on", m, tasks)
	}
}

// TestStealLeavesAHelperItsNextTask: a helper between tasks is not a thief's
// to rob. Rank 0's worker is parked in a task, so its master is the rank's only
// helper; a steal request arrives in the master's progress pass right after a
// task, with the next task queued. The request must take nothing — shipping
// that task away would turn its one message each way into three.
func TestStealLeavesAHelperItsNextTask(t *testing.T) {
	resetCounters()
	parked.Add(1)
	unparkC = make(chan struct{})
	ran := func() bool { return execBy[0].Load()+execBy[1].Load() == 1 }
	var migrated uint64
	RunConfig(Config{Ranks: 2, Stats: true}, func(rk *Rank) {
		rt := NewTaskRuntime(rk, TaskConfig{Workers: 1, NoSteal: true})
		defer rt.Stop()
		if rk.Me() == 1 { // the thief named in the request: takes in what it is sent
			rk.Barrier()
			for !ran() {
				rk.ProgressWait(idlePark)
			}
			rk.Barrier()
			return
		}
		AsyncAtFF(rt, 0, tPark, 0)
		parked.Wait() // not helpUntil: the worker must take it
		rk.Barrier()
		AsyncAtFF(rt, 0, tBump, 0)      // the helper's next task
		AsyncAtFF(rt, 0, tStealHere, 0) // popped first: the queue is LIFO
		if err := rt.helpUntil(ran); err != nil {
			t.Error(err)
		}
		close(unparkC)
		migrated = rk.Stats().Counters[obs.TaskMigrated.Counter()]
		rk.Barrier()
	})
	if migrated != 0 || execBy[0].Load() != 1 {
		t.Errorf("the steal request migrated %d tasks, and the next task ran at rank 0 %d times: want 0 and 1", migrated, execBy[0].Load())
	}
}

// TestBadTaskMessagesFailTheirSender: a task message this rank cannot act on
// is the sender's fault — an error out of Arrive (which the spawn entry's
// body turns into failing the spawner), a failed victim for a steal reply
// whose task has a home out of range or names no task of its kind — never a
// panic on the execution persona.
func TestBadTaskMessagesFailTheirSender(t *testing.T) {
	b := spawnOf(tDouble).bodies[0].task
	// with runs fn on a two-rank world whose rank 0 has a task runtime.
	with := func(fn func(w *World, rt *TaskRuntime)) {
		w := NewWorld(Config{Ranks: 2})
		defer w.Close()
		rt := NewTaskRuntime(w.Rank(0), TaskConfig{Workers: 1, NoSteal: true})
		defer rt.Stop()
		fn(w, rt)
	}
	with(func(w *World, rt *TaskRuntime) {
		if err := b.arrive(w.Rank(1), 0, 1, header(0, 0), false); err == nil {
			t.Error("a spawn was taken in by a rank with no task runtime")
		}
		for _, args := range [][]byte{nil, {0x80}, {0, 0x80}} {
			if err := b.arrive(w.Rank(0), 1, 1, args, false); err == nil {
				t.Errorf("a spawn with the task header %x was queued", args)
			}
		}
	})
	for _, loot := range []rec{
		{Seq: 1, Home: 1},
		{Seq: 1, Home: 1, Name: "no/such.task"},
		{Seq: 1, Home: 1, Name: b.name, Flags: flagFF}, // a result-bearing body named fire-and-forget
		{Seq: 1, Home: 9, Name: b.name},
		{Seq: 1, Home: -1, Name: b.name},
	} {
		with(func(w *World, rt *TaskRuntime) {
			stealReplyBody(w.Rank(0), stealReply{Victim: 1, Loot: []rec{loot}})
			err := w.Failed()
			if !errors.Is(err, gasnet.ErrPeerLost) || !strings.Contains(err.Error(), "rank 1") {
				t.Errorf("stolen task %+v: Failed() = %v, want the victim (rank 1) failed", loot, err)
			}
			if _, queued := rt.popLocal(); queued {
				t.Errorf("stolen task %+v was queued", loot)
			}
		})
	}
}

// tPark keeps its worker off the rank's doorbell until the test lets go; it
// marks parked done once its worker holds it.
var (
	parked  sync.WaitGroup
	unparkC chan struct{}
)

func tPark(*Rank, int64) {
	parked.Done()
	<-unparkC
}

// TestTaskAllocPins pins what one remote AsyncAt+HelpWait round trip
// allocates in an in-process world, both ranks' share: heap objects for an
// int64 argument, and heap bytes for a 64 KiB []byte — marshalled once into
// the message, which the in-process conduit delivers as it is, and decoded
// once where the task runs. Each rank's worker sits in a task meanwhile and
// its master serves the queue, so every ring wakes the one waiter it can be
// for: with two waiters on a doorbell the count depends on which of them a
// ring wakes (a progress pass allocates), 15 to 23 a round trip.
func TestTaskAllocPins(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop records at random")
	}
	// One P, as testing.AllocsPerRun measures: the passes a round trip takes
	// do not depend on how the host schedules the goroutines.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const rounds, size = 200, 64 << 10
	var stop atomic.Bool
	parked.Add(2)
	unparkC = make(chan struct{})
	RunConfig(Config{Ranks: 2}, func(rk *Rank) {
		rt := NewTaskRuntime(rk, TaskConfig{Workers: 1, NoSteal: true})
		defer rt.Stop()
		AsyncAtFF(rt, rk.Me(), tPark, 0)
		parked.Wait() // not helpUntil: the worker must take it
		rk.Barrier()
		if rk.Me() == 1 {
			_ = rt.helpUntil(stop.Load)
			return
		}
		defer func() {
			stop.Store(true)
			close(unparkC)
		}()
		big := make([]byte, size)
		small := func(i int64) {
			if got := TaskHelpWait(rt, AsyncAt(rt, 1, tDouble, i)); got != 2*i {
				t.Errorf("tDouble(%d) = %d", i, got)
			}
		}
		bulk := func(int64) {
			if got := TaskHelpWait(rt, AsyncAt(rt, 1, tLen, big)); got != size {
				t.Errorf("tLen = %d", got)
			}
		}
		measure := func(op func(int64)) (objects, bytes float64) {
			op(0) // warm: pools, codecs, the aux token
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			for i := int64(0); i < rounds; i++ {
				op(i)
			}
			runtime.ReadMemStats(&m1)
			return float64(m1.Mallocs-m0.Mallocs) / rounds, float64(m1.TotalAlloc-m0.TotalAlloc) / rounds
		}
		objects, _ := measure(small)
		if objects > taskRoundTripObjects {
			objects, _ = measure(small) // a collection in the loop empties the pools once: not the round trip's
		}
		t.Logf("remote round trip: %.2f heap objects (pinned at %d)", objects, taskRoundTripObjects)
		if objects > taskRoundTripObjects {
			t.Errorf("remote round trip: %.2f heap objects, pinned at %d", objects, taskRoundTripObjects)
		}
		_, bytes := measure(bulk)
		t.Logf("remote round trip of a %d-byte argument: %.0f heap bytes (%.2f x the argument; pinned at 3 x)", size, bytes, bytes/size)
		if bytes > 3*size {
			t.Errorf("remote round trip of a %d-byte argument allocates %.0f bytes, more than 3 x the argument", size, bytes)
		}
	})
}

// taskRoundTripObjects is the measured count (3.00), rounded up. This test
// reads 42 and 6.9 x the argument before a spawn became one RPC entry, 14
// while every goroutine-id lookup allocated its traceback buffer, and 5 while
// a spawn's header and its promise were objects of their own.
const taskRoundTripObjects = 3

// TestAsyncAtArgCapture: a spawn borrows a large View or []byte argument
// like a single RPC does — until the conduit captures the message, before
// AsyncAt returns — so an argument mutated the moment AsyncAt returns
// reaches the task as it was at the call, with the message still in flight
// for 5 ms.
func TestAsyncAtArgCapture(t *testing.T) {
	const n = 4096
	model := &gasnet.LogGP{O: time.Microsecond, L: 5 * time.Millisecond, Gp: time.Microsecond}
	RunConfig(Config{Ranks: 2, RanksPerNode: 1, Model: model}, func(rk *Rank) {
		rt := NewTaskRuntime(rk, TaskConfig{Workers: 1, NoSteal: true})
		defer rt.Stop()
		if rk.Me() == 0 {
			buf := make([]byte, n)
			for _, row := range []struct {
				name  string
				spawn func() Future[int64]
			}{
				{"View", func() Future[int64] { return AsyncAt(rt, 1, tCountAAView, MakeView(buf)) }},
				{"[]byte", func() Future[int64] { return AsyncAt(rt, 1, tCountAA, buf) }},
			} {
				for i := range buf {
					buf[i] = 0xAA
				}
				f := row.spawn()
				for i := range buf {
					buf[i] = 0xCC
				}
				if got := TaskHelpWait(rt, f); got != n {
					t.Errorf("%s: the task saw %d of the %d bytes it was spawned with", row.name, got, n)
				}
			}
		}
		if err := rt.Finish(); err != nil {
			t.Errorf("rank %d: Finish: %v", rk.Me(), err)
		}
		rk.Barrier()
	})
}

// TestTaskGroup pins credit-counting completion: Wait drains exactly the
// group's spawns (tasks outside the group don't count), and the group is
// reusable for further rounds.
func TestTaskGroup(t *testing.T) {
	resetCounters()
	RunConfig(Config{Ranks: 4}, func(rk *Rank) {
		rt := NewTaskRuntime(rk, TaskConfig{})
		defer rt.Stop()
		if rk.Me() == 0 {
			g := rt.NewGroup()
			for round := 1; round <= 2; round++ {
				for r := Intrank(0); r < rk.N(); r++ {
					GroupAsyncAt(g, r, tGroupBump, 0)
				}
				if err := g.Wait(); err != nil {
					t.Errorf("group Wait round %d: %v", round, err)
				}
				if g.Outstanding() != 0 {
					t.Errorf("round %d: Outstanding = %d after Wait", round, g.Outstanding())
				}
				if got := groupHits.Load(); got != int64(round)*4 {
					t.Errorf("round %d: group bodies = %d, want %d", round, got, round*4)
				}
			}
		}
		if err := rt.Finish(); err != nil {
			t.Errorf("rank %d: Finish: %v", rk.Me(), err)
		}
		rk.Barrier()
	})
}

// TestTaskObsCounters pins the introspection contract: spawned ==
// executed globally after Finish, detector rounds counted, and the
// trace ring holds task-stage events attributed to the home ring.
func TestTaskObsCounters(t *testing.T) {
	resetCounters()
	var merged obs.Snapshot
	var homeEvents []obs.Event
	// Tracing also records every RPC op the protocol lowers onto; the ring
	// must be deep enough that the early spawn events survive them.
	RunConfig(Config{Ranks: 4, Stats: true, TraceDepth: 8192}, func(rk *Rank) {
		rt := NewTaskRuntime(rk, TaskConfig{})
		defer rt.Stop()
		for i := 0; i < 4; i++ {
			AsyncAtFF(rt, (rk.Me()+Intrank(i))%rk.N(), tBump, 0)
		}
		if err := rt.Finish(); err != nil {
			t.Errorf("rank %d: Finish: %v", rk.Me(), err)
		}
		rk.Barrier()
		if rk.Me() == 0 {
			merged = rk.World().StatsMerged()
			homeEvents = rk.Stats().Trace
		}
	})
	if got, want := merged.Counters[obs.TaskSpawned.Counter()], uint64(16); got != want {
		t.Errorf("spawned = %d, want %d", got, want)
	}
	if got := merged.Counters[obs.TaskExecuted.Counter()]; got != 16 {
		t.Errorf("executed = %d, want 16", got)
	}
	if merged.Counters[obs.TaskDetectRounds.Counter()] < 2*4 {
		t.Errorf("detector rounds = %d, want >= 8 (two waves × four ranks)", merged.Counters[obs.TaskDetectRounds.Counter()])
	}
	stages := map[obs.Stage]int{}
	for _, ev := range homeEvents {
		if ev.Kind == obs.KindTask {
			stages[ev.Stage]++
		}
	}
	for _, st := range []obs.Stage{obs.StageTaskSpawn, obs.StageTaskEnq, obs.StageTaskExec, obs.StageTaskDone} {
		if stages[st] == 0 {
			t.Errorf("home trace ring has no %v events (got %v)", st, stages)
		}
	}
}

// TestTaskWorkersExecuteConcurrently pins that worker personas give a
// rank intra-rank parallelism: with 4 workers, 4 sleeping tasks finish
// in clearly less than 4× the task grain.
func TestTaskWorkersExecuteConcurrently(t *testing.T) {
	resetCounters()
	RunConfig(Config{Ranks: 1}, func(rk *Rank) {
		rt := NewTaskRuntime(rk, TaskConfig{Workers: 4})
		defer rt.Stop()
		const grain = 20 * time.Millisecond
		start := time.Now()
		for i := 0; i < 4; i++ {
			AsyncAtFF(rt, 0, tSleep, int64(grain/time.Microsecond))
		}
		if err := rt.Finish(); err != nil {
			t.Fatalf("Finish: %v", err)
		}
		if el := time.Since(start); el > 3*grain {
			t.Errorf("4 tasks × %v on 4 workers took %v, want < %v", grain, el, 3*grain)
		}
	})
}

// TestTaskErrors pins the guard rails: spawning an unregistered function
// and out-of-range targets panic with actionable messages.
func TestTaskErrors(t *testing.T) {
	Run(1, func(rk *Rank) {
		rt := NewTaskRuntime(rk, TaskConfig{})
		defer rt.Stop()
		mustPanic(t, "unregistered", func() {
			AsyncAt(rt, 0, func(*Rank, int) int { return 0 }, 1)
		})
		mustPanic(t, "out-of-range target", func() {
			AsyncAtFF(rt, 5, tBump, 0)
		})
		mustPanic(t, "double New", func() { NewTaskRuntime(rk, TaskConfig{}) })
		if err := rt.Finish(); err != nil {
			t.Errorf("Finish: %v", err)
		}
	})
}

func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", what)
		}
	}()
	fn()
}
