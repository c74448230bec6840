// Tree search: task-parallel traversal of a deterministic, unbalanced
// tree with the distributed async-task runtime — the paper's
// asynchrony-by-default model applied to irregular work.
//
// Every node visit is a fire-and-forget task spawned on the *executing*
// rank, and the root spawns at rank 0, so the entire tree initially
// lives in one queue: the worst imbalance a scheduler can face. Load
// spreads exclusively by work stealing (idle ranks pull batches of the
// oldest — largest — subtrees over one-way RPCs), and the run ends with
// TaskRuntime.Finish, the four-counter termination detector that proves
// every spawn anywhere has executed without a stop-the-world barrier.
// The node count is verified against a sequential walk of the same
// tree.
//
// Run with:
//
//	go run ./examples/tree-search
//
// or as real OS-process ranks over a transport backend:
//
//	UPCXX_CONDUIT=shm UPCXX_NPROC=4 go run ./examples/tree-search
package main

import (
	"fmt"
	"os"
	"sync/atomic"
	"time"

	"upcxx"
	"upcxx/internal/gasnet"
)

const (
	ranks    = 4
	maxDepth = 14
	rootID   = uint64(7)
)

// node is one unit of search work; IDs derive from the parent so the
// tree is identical in every process.
type node struct {
	ID    uint64
	Depth int64
}

// splitmix64 is the tree's shape oracle.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// kids returns the node's child count: skewed so some subtrees explode
// while most fizzle — the imbalance stealing exists for.
func kids(n node) int {
	if n.Depth >= maxDepth {
		return 0
	}
	if n.Depth < 3 {
		return 3 // guaranteed initial fan-out
	}
	switch h := splitmix64(n.ID) % 100; {
	case h < 26:
		return 3
	case h < 56:
		return 1
	default:
		return 0
	}
}

func child(n node, i int) node {
	return node{ID: splitmix64(n.ID ^ (uint64(i)+1)<<17), Depth: n.Depth + 1}
}

// countSeq walks the tree sequentially — the verification oracle.
func countSeq(n node) uint64 {
	total := uint64(1)
	for i := 0; i < kids(n); i++ {
		total += countSeq(child(n, i))
	}
	return total
}

// visited counts the nodes this process's ranks executed.
var visited atomic.Uint64

// visit is the task body: "evaluate" the node (a fixed work grain — in
// a real search this is the position scoring), count it, and spawn one
// task per child on the executing rank. Only steals move work between
// ranks.
func visit(trk *upcxx.Rank, n node) {
	time.Sleep(50 * time.Microsecond)
	visited.Add(1)
	rt := upcxx.TaskRuntimeOf(trk)
	for i := 0; i < kids(n); i++ {
		upcxx.AsyncAtFF(rt, trk.Me(), visit, child(n, i))
	}
}

// subtreeSeq is a result-bearing task: a remote rank counts one subtree
// sequentially and the answer rides back to the spawner's future.
func subtreeSeq(trk *upcxx.Rank, n node) uint64 { return countSeq(n) }

func init() {
	upcxx.RegisterTaskFF(visit)
	upcxx.RegisterTask(subtreeSeq)
}

func main() {
	cfg := upcxx.Config{Ranks: ranks, Stats: true}
	if !upcxx.DistActive() {
		// In-process demo runs over the modeled conduit; real transports
		// bring their own timing.
		cfg.Model = &gasnet.LogGP{O: 200 * time.Nanosecond, L: 2 * time.Microsecond, Gp: 100 * time.Nanosecond}
	}
	want := countSeq(node{ID: rootID})
	upcxx.RunConfig(cfg, func(rk *upcxx.Rank) {
		rt := upcxx.NewTaskRuntime(rk, upcxx.TaskConfig{Workers: 2, StealBatch: 4})
		defer rt.Stop()
		me := rk.Me()

		// Result-bearing warm-up: the last rank counts the root's first
		// subtree sequentially; the spawner helps execute while waiting.
		if me == 0 && kids(node{ID: rootID}) > 0 {
			f := upcxx.AsyncAt(rt, rk.N()-1, subtreeSeq, child(node{ID: rootID}, 0))
			fmt.Printf("rank 0: subtree(child 0) = %d nodes (computed at rank %d)\n",
				upcxx.TaskHelpWait(rt, f), rk.N()-1)
		}
		rk.Barrier()

		start := time.Now()
		if me == 0 {
			upcxx.AsyncAtFF(rt, 0, visit, node{ID: rootID})
		}
		if err := rt.Finish(); err != nil {
			fmt.Fprintf(os.Stderr, "rank %d: Finish: %v\n", me, err)
			os.Exit(1)
		}
		elapsed := time.Since(start)

		// Every spawn landed in the count: sum per-process visit counters
		// (in-process worlds share one counter; real conduits hold one
		// per OS process) and compare against the sequential oracle.
		mine := uint64(0)
		if me == 0 || upcxx.DistActive() {
			mine = visited.Load()
		}
		total := upcxx.AllReduce(rk.WorldTeam(), mine,
			func(a, b uint64) uint64 { return a + b }).Wait()
		s := rk.Stats()
		stolen, reqs := s.Counters[upcxx.TaskStolen.Counter()], s.Counters[upcxx.TaskStealReqs.Counter()]
		fmt.Printf("rank %d: stole %d tasks (%d requests)\n", me, stolen, reqs)
		rk.Barrier()
		if me == 0 {
			if total != want {
				fmt.Fprintf(os.Stderr, "tree search visited %d nodes, want %d\n", total, want)
				os.Exit(1)
			}
			fmt.Printf("searched %d nodes across %d ranks in %v — count verified\n", total, rk.N(), elapsed)
		}
		rk.Barrier()
	})
}
