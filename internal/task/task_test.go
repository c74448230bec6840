package task

// Race-conformance matrix and semantics tests for the distributed task
// runtime: {AsyncAt, AsyncAtFF, Finish} × {self, cross} × {steal-on,
// steal-off} × {zero-delay, LogGP real-time} worlds, plus steal
// migration placement, cascade termination (no premature Finish, no
// missed quiescence), task groups, and the observability counters. The
// whole package runs under -race in CI (make race).

import (
	"fmt"
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

var (
	_ = Register(tDouble)
	_ = Register(tSwap)
	_ = RegisterFF(tBump)
	_ = RegisterFF(tChain)
	_ = RegisterFF(tSleep)
	_ = RegisterFF(tGroupBump)
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
	// TraceSample 1 also records every RPC op the protocol lowers onto,
	// and idle thieves may bounce loot between detector waves; the ring
	// must be deep enough that the early spawn events survive the churn.
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
