// task-bench measures the distributed async-task runtime (internal/task)
// on an in-process multi-rank world. Three tables:
//
//   - spawn overhead: microseconds per fire-and-forget task, spawned at
//     the local queue (pure enqueue/execute cost) and at a neighbour
//     rank (one fire-and-forget spawn entry per task), swept over batch size;
//   - steal throughput: migrated tasks per millisecond draining a
//     skewed queue of small-grain tasks, swept over the steal batch size
//     — the o-vs-batching trade the victim's single-message migration
//     (every stolen frame in the one steal reply) exists for;
//   - imbalance recovery: wall time to drain a skewed workload (every
//     task spawned at rank 0, fixed per-task grain) with stealing off
//     vs on, plus the speedup column. The acceptance bar is >= 2x: with
//     R ranks helping, an ideal thief fleet approaches R x the no-steal
//     baseline, and even one oversubscribed host clears 2x because the
//     grain is sleep-shaped (parked, not CPU-bound).
//
// Usage:
//
//	go run ./cmd/task-bench [-ranks 4] [-workers 2] [-tasks 192]
//	                        [-grain 2ms] [-spawns 2048]
//	                        [-batches 1,2,4,8,16]
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	core "upcxx/internal/core"
	"upcxx/internal/obs"
	"upcxx/internal/stats"
	"upcxx/internal/task"
)

var (
	ranks    = flag.Int("ranks", 4, "ranks in the measured worlds")
	workers  = flag.Int("workers", 2, "worker personas per rank")
	tasks    = flag.Int("tasks", 192, "tasks in the skewed recovery workload")
	grain    = flag.Duration("grain", 2*time.Millisecond, "per-task work grain in the recovery workload")
	spawns   = flag.Int("spawns", 2048, "tasks per spawn-overhead measurement")
	batchStr = flag.String("batches", "1,2,4,8,16", "steal batch sizes to sweep")
)

// Registered task bodies.

func nop(trk *core.Rank, _ int64) {}

func sleepTask(trk *core.Rank, us int64) { time.Sleep(time.Duration(us) * time.Microsecond) }

func init() {
	task.RegisterFF(nop)
	task.RegisterFF(sleepTask)
}

func parseInts(s string) []int {
	var out []int
	for _, f := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || v <= 0 {
			fmt.Fprintf(os.Stderr, "task-bench: bad batch size %q\n", f)
			os.Exit(2)
		}
		out = append(out, v)
	}
	return out
}

// run executes body at rank 0 of a fresh world with a task runtime on
// every rank (everyone else helps via Finish) and returns rank 0's
// wall time from spawn to global quiescence plus the merged counters.
func run(cfg task.Config, body func(rt *task.Runtime, rk *core.Rank)) (time.Duration, obs.Snapshot) {
	var elapsed time.Duration
	var snap obs.Snapshot
	core.RunConfig(core.Config{Ranks: *ranks, Stats: true}, func(rk *core.Rank) {
		rt := task.New(rk, cfg)
		defer rt.Stop()
		rk.Barrier()
		start := time.Now()
		if rk.Me() == 0 {
			body(rt, rk)
		}
		if err := rt.Finish(); err != nil {
			fmt.Fprintf(os.Stderr, "task-bench: Finish: %v\n", err)
			os.Exit(1)
		}
		if rk.Me() == 0 {
			elapsed = time.Since(start)
			snap = rk.World().StatsMerged()
		}
		rk.Barrier()
	})
	return elapsed, snap
}

func main() {
	flag.Parse()
	batches := parseInts(*batchStr)

	// --- spawn overhead ---------------------------------------------------
	spawnTbl := &stats.Table{
		Title:  fmt.Sprintf("spawn overhead, %d ranks x %d workers (us/task)", *ranks, *workers),
		XLabel: "tasks",
		Series: []*stats.Series{{Name: "self us/task"}, {Name: "cross us/task"}},
	}
	for _, n := range []int{*spawns / 4, *spawns} {
		elSelf, _ := run(task.Config{NoSteal: true, Workers: *workers}, func(rt *task.Runtime, rk *core.Rank) {
			for i := 0; i < n; i++ {
				task.AsyncAtFF(rt, 0, nop, 0)
			}
		})
		elCross, _ := run(task.Config{NoSteal: true, Workers: *workers}, func(rt *task.Runtime, rk *core.Rank) {
			for i := 0; i < n; i++ {
				task.AsyncAtFF(rt, (rk.Me()+1)%rk.N(), nop, 0)
			}
		})
		spawnTbl.Series[0].Add(float64(n), float64(elSelf.Microseconds())/float64(n))
		spawnTbl.Series[1].Add(float64(n), float64(elCross.Microseconds())/float64(n))
	}
	spawnTbl.Fprint(os.Stdout)
	fmt.Println()

	// --- steal throughput -------------------------------------------------
	// A small fixed grain keeps rank 0's queue alive long enough for
	// steal round-trips to land; zero-grain tasks drain locally first.
	const stealGrainUs = 50
	stealTasks := *spawns / 4
	stealTbl := &stats.Table{
		Title:  fmt.Sprintf("steal throughput, %d x %dus tasks skewed at rank 0", stealTasks, stealGrainUs),
		XLabel: "steal batch",
		Series: []*stats.Series{{Name: "migrated"}, {Name: "migrated/ms"}, {Name: "steal reqs"}},
	}
	for _, b := range batches {
		el, snap := run(task.Config{Workers: *workers, StealBatch: b}, func(rt *task.Runtime, rk *core.Rank) {
			for i := 0; i < stealTasks; i++ {
				task.AsyncAtFF(rt, 0, sleepTask, stealGrainUs)
			}
		})
		migrated := float64(snap.Counters[obs.TaskMigrated.Counter()])
		reqs := float64(snap.Counters[obs.TaskStealReqs.Counter()])
		stealTbl.Series[0].Add(float64(b), migrated)
		stealTbl.Series[1].Add(float64(b), migrated/(float64(el.Microseconds())/1e3))
		stealTbl.Series[2].Add(float64(b), reqs)
	}
	stealTbl.Fprint(os.Stdout)
	fmt.Println()

	// --- imbalance recovery ----------------------------------------------
	recovTbl := &stats.Table{
		Title: fmt.Sprintf("imbalance recovery, %d x %v tasks all at rank 0 (%d ranks x %d workers)",
			*tasks, *grain, *ranks, *workers),
		XLabel: "tasks",
		Series: []*stats.Series{{Name: "no-steal ms"}, {Name: "steal ms"}, {Name: "speedup"}},
	}
	us := int64(*grain / time.Microsecond)
	skew := func(rt *task.Runtime, rk *core.Rank) {
		for i := 0; i < *tasks; i++ {
			task.AsyncAtFF(rt, 0, sleepTask, us)
		}
	}
	elOff, _ := run(task.Config{NoSteal: true, Workers: *workers}, skew)
	elOn, snap := run(task.Config{Workers: *workers}, skew)
	speedup := float64(elOff.Microseconds()) / float64(elOn.Microseconds())
	recovTbl.Series[0].Add(float64(*tasks), float64(elOff.Microseconds())/1e3)
	recovTbl.Series[1].Add(float64(*tasks), float64(elOn.Microseconds())/1e3)
	recovTbl.Series[2].Add(float64(*tasks), speedup)
	recovTbl.Fprint(os.Stdout)
	if c := snap.Counters; c[obs.TaskSpawned.Counter()] > 0 {
		fmt.Printf("(steal run: %d stolen in %d requests, %d detector rounds)\n",
			c[obs.TaskStolen.Counter()], c[obs.TaskStealReqs.Counter()], c[obs.TaskDetectRounds.Counter()])
	}
	if speedup < 2 {
		fmt.Printf("NOTE: speedup %.2fx below the 2x bar — expected only on a starved host; rerun with a larger -grain\n", speedup)
	}
	fmt.Println()
}
