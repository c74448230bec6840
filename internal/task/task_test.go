package task

// Race-conformance matrix and semantics tests for the distributed task
// runtime: {AsyncAt, AsyncAtFF, Finish} × {self, cross} × {steal-on,
// steal-off} × {zero-delay, LogGP real-time} worlds, plus steal
// migration placement, cascade termination (no premature Finish, no
// missed quiescence), task groups, and the observability counters. The
// whole package runs under -race in CI (make race).

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	core "upcxx/internal/core"
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

func tDouble(trk *core.Rank, x int64) int64 {
	execBy[trk.Me()].Add(1)
	return x * 2
}

type tPair struct {
	A, B  int64
	Label string
}

func tSwap(trk *core.Rank, p tPair) tPair {
	return tPair{A: p.B, B: p.A, Label: p.Label + fmt.Sprintf("@%d", trk.Me())}
}

func tBump(trk *core.Rank, _ int64) {
	execBy[trk.Me()].Add(1)
	ffHits.Add(1)
}

// tChain re-spawns itself around the ring until depth runs out: the
// in-flight cascade the four-counter detector must not cut short.
func tChain(trk *core.Rank, depth int64) {
	chainHits.Add(1)
	if depth > 0 {
		rt := Of(trk)
		AsyncAtFF(rt, (trk.Me()+1)%trk.N(), tChain, depth-1)
	}
}

// tSleep holds a worker long enough that a skewed queue outlives the
// thieves' first steal round.
func tSleep(trk *core.Rank, us int64) {
	time.Sleep(time.Duration(us) * time.Microsecond)
	execBy[trk.Me()].Add(1)
}

func tGroupBump(trk *core.Rank, _ int64) {
	execBy[trk.Me()].Add(1)
	groupHits.Add(1)
}

// tHold keeps its worker busy until the test lets go.
var holdStarted, holdRelease atomic.Bool

func tHold(*core.Rank, int64) {
	holdStarted.Store(true)
	for !holdRelease.Load() {
		runtime.Gosched()
	}
}

func tRelease(*core.Rank, int64) { holdRelease.Store(true) }

func tLen(_ *core.Rank, b []byte) int64 { return int64(len(b)) }

var (
	_ = Register(tDouble)
	_ = Register(tSwap)
	_ = Register(tLen)
	_ = RegisterFF(tBump)
	_ = RegisterFF(tChain)
	_ = RegisterFF(tSleep)
	_ = RegisterFF(tGroupBump)
	_ = RegisterFF(tHold)
	_ = RegisterFF(tPark)
	_ = core.RegisterRPCFF(tRelease)
)

// matrixWorlds enumerates the conformance matrix's world axis.
func matrixWorlds() map[string]core.Config {
	return map[string]core.Config{
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
				core.RunConfig(wcfg, func(rk *core.Rank) {
					rt := New(rk, Config{NoSteal: !steal, Workers: 2})
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

					if got := HelpWait(rt, fSelf); got != int64(me)*2 {
						t.Errorf("rank %d: self AsyncAt = %d, want %d", me, got, me*2)
					}
					if got := HelpWait(rt, fCross); got != (int64(me)+100)*2 {
						t.Errorf("rank %d: cross AsyncAt = %d, want %d", me, got, (int64(me)+100)*2)
					}
					if got := HelpWait(rt, fStruct); got.A != 2 || got.B != 1 || got.Label == "x" {
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
			core.RunConfig(core.Config{Ranks: 4, Stats: true}, func(rk *core.Rank) {
				rt := New(rk, Config{NoSteal: !steal, Workers: 1, StealBatch: 4})
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
					if len(s.Tasks) > 0 {
						stolen = s.Tasks[obs.TaskStolen]
						migrated = s.Tasks[obs.TaskMigrated]
					}
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
	core.RunConfig(core.Config{Ranks: 3, Stats: true}, func(rk *core.Rank) {
		if rk.Me() == 2 {
			rk.Barrier() // the thief starts once the worker it must beat is held
		}
		rt := New(rk, Config{Workers: 1, NoSteal: rk.Me() != 2})
		defer rt.Stop()
		switch rk.Me() {
		case 0:
			AsyncAtFF(rt, 1, tHold, 0)
			rk.Barrier()
			var fs []core.Future[int64]
			for i := int64(0); i < tasks; i++ {
				fs = append(fs, AsyncAt(rt, 1, tDouble, i))
			}
			for i, f := range fs {
				if got := HelpWait(rt, f); got != int64(i)*2 {
					t.Errorf("stolen task %d returned %d, want %d", i, got, i*2)
				}
			}
			if s, c := rt.spawned.Load(), rt.executed.Load(); s != tasks+1 || c != tasks {
				t.Errorf("home counts S=%d C=%d with every result in, want %d and %d (the held task is still out)", s, c, tasks+1, tasks)
			}
			core.RPCFF(rk, 1, tRelease, 0)
		case 1:
			for !holdStarted.Load() {
				rk.ProgressWait(helpPark)
			}
			rk.Barrier()
			for !holdRelease.Load() {
				rk.ProgressWait(helpPark)
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
			stolen, migrated = s.Tasks[obs.TaskStolen], s.Tasks[obs.TaskMigrated]
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
		core.RunConfig(core.Config{Ranks: 2, Stats: true}, func(rk *core.Rank) {
			rt := New(rk, Config{Workers: 1})
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
				migrated.Store(rk.World().StatsMerged().Tasks[obs.TaskMigrated])
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

// TestBadTaskMessagesFailTheirSender: a task message this rank cannot act on
// is the sender's fault — an error out of Arrive (which the spawn entry's
// body turns into failing the spawner), a failed victim for a steal reply
// whose frame does not decode or names no task — never a panic on the
// execution persona.
func TestBadTaskMessagesFailTheirSender(t *testing.T) {
	b := bodyOf(tDouble)
	// with runs fn on a two-rank world whose rank 0 has a task runtime.
	with := func(fn func(w *core.World, rt *Runtime)) {
		w := core.NewWorld(core.Config{Ranks: 2})
		defer w.Close()
		rt := New(w.Rank(0), Config{Workers: 1, NoSteal: true})
		defer rt.Stop()
		fn(w, rt)
	}
	with(func(w *core.World, rt *Runtime) {
		if err := b.Arrive(w.Rank(1), 0, 1, header(0, 0)); err == nil {
			t.Error("a spawn was taken in by a rank with no task runtime")
		}
		for _, args := range [][]byte{nil, {0x80}, {0, 0x80}} {
			if err := b.Arrive(w.Rank(0), 1, 1, args); err == nil {
				t.Errorf("a spawn with the task header %x was queued", args)
			}
		}
	})
	for _, frame := range [][]byte{
		{1, 2, 3},
		encodeRec(rec{Seq: 1, Home: 1, Name: "no/such.task"}),
		encodeRec(rec{Seq: 1, Home: 1, Name: b.name, Flags: flagFF}), // a result-bearing body named fire-and-forget
		encodeRec(rec{Seq: 1, Home: 9, Name: b.name}),
	} {
		with(func(w *core.World, rt *Runtime) {
			stealReplyBody(w.Rank(0), stealReply{Victim: 1, Loot: [][]byte{frame}})
			err := w.Failed()
			if !errors.Is(err, gasnet.ErrPeerLost) || !strings.Contains(err.Error(), "rank 1") {
				t.Errorf("stolen frame %x: Failed() = %v, want the victim (rank 1) failed", frame, err)
			}
			if _, queued := rt.popLocal(); queued {
				t.Errorf("stolen frame %x was queued", frame)
			}
		})
	}
}

// tPark keeps its worker off the rank's doorbell until the test lets go.
var (
	parked  atomic.Int32
	unparkC chan struct{}
)

func tPark(*core.Rank, int64) {
	parked.Add(1)
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
	parked.Store(0)
	unparkC = make(chan struct{})
	core.RunConfig(core.Config{Ranks: 2}, func(rk *core.Rank) {
		rt := New(rk, Config{Workers: 1, NoSteal: true})
		defer rt.Stop()
		AsyncAtFF(rt, rk.Me(), tPark, 0)
		for parked.Load() < 2 {
			time.Sleep(50 * time.Microsecond) // not helpUntil: the worker must take it
		}
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
			if got := HelpWait(rt, AsyncAt(rt, 1, tDouble, i)); got != 2*i {
				t.Errorf("tDouble(%d) = %d", i, got)
			}
		}
		bulk := func(int64) {
			if got := HelpWait(rt, AsyncAt(rt, 1, tLen, big)); got != size {
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

// taskRoundTripObjects is the measured count (14) + 2. This test reads 42 and
// 6.9 x the argument before a spawn became one RPC entry.
const taskRoundTripObjects = 16

// TestTaskGroup pins credit-counting completion: Wait drains exactly the
// group's spawns (tasks outside the group don't count), and the group is
// reusable for further rounds.
func TestTaskGroup(t *testing.T) {
	resetCounters()
	core.RunConfig(core.Config{Ranks: 4}, func(rk *core.Rank) {
		rt := New(rk, Config{})
		defer rt.Stop()
		if rk.Me() == 0 {
			g := rt.NewGroup()
			for round := 1; round <= 2; round++ {
				for r := core.Intrank(0); r < rk.N(); r++ {
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
	// TraceSample 1 also records every RPC op the protocol lowers onto; the
	// ring must be deep enough that the early spawn events survive them.
	core.RunConfig(core.Config{Ranks: 4, Stats: true, TraceDepth: 8192, TraceSample: 1}, func(rk *core.Rank) {
		rt := New(rk, Config{})
		defer rt.Stop()
		for i := 0; i < 4; i++ {
			AsyncAtFF(rt, (rk.Me()+core.Intrank(i))%rk.N(), tBump, 0)
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
	if len(merged.Tasks) == 0 {
		t.Fatal("merged snapshot has no task counters")
	}
	if got, want := merged.Tasks[obs.TaskSpawned], uint64(16); got != want {
		t.Errorf("spawned = %d, want %d", got, want)
	}
	if got := merged.Tasks[obs.TaskExecuted]; got != 16 {
		t.Errorf("executed = %d, want 16", got)
	}
	if merged.Tasks[obs.TaskDetectRounds] < 2*4 {
		t.Errorf("detector rounds = %d, want >= 8 (two waves × four ranks)", merged.Tasks[obs.TaskDetectRounds])
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
	core.RunConfig(core.Config{Ranks: 1}, func(rk *core.Rank) {
		rt := New(rk, Config{Workers: 4})
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
	core.Run(1, func(rk *core.Rank) {
		rt := New(rk, Config{})
		defer rt.Stop()
		mustPanic(t, "unregistered", func() {
			AsyncAt(rt, 0, func(*core.Rank, int) int { return 0 }, 1)
		})
		mustPanic(t, "out-of-range target", func() {
			AsyncAtFF(rt, 5, tBump, 0)
		})
		mustPanic(t, "double New", func() { New(rk, Config{}) })
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
