// sympack-bench regenerates Fig 9 of the paper: strong scaling of the
// mini-symPACK multifrontal Cholesky on the Flan_1565 proxy, written once
// against the UPC++ v1.0 API (futures/promises/RPC) and once against the
// predecessor v0.1 API (events/asyncs). The paper's finding: the curves
// are nearly identical (mean difference 0.7%, v1.0 up to 7.2% ahead at
// 256 processes) — the redesigned runtime costs nothing.
//
// The scaling sweep uses the discrete-event model; -real runs the two
// actual implementations in-process at a small P, checks their factors
// against a dense Cholesky, and reports wall times.
//
// Usage:
//
//	go run ./cmd/sympack-bench [-scale n] [-real P]
package main

import (
	"flag"
	"fmt"
	"math"
	"os"

	"upcxx/internal/expmodel"
	"upcxx/internal/gasnet"
	"upcxx/internal/matgen"
	"upcxx/internal/obs"
	"upcxx/internal/sparse"
	"upcxx/internal/stats"

	core "upcxx/internal/core"
)

var (
	scale     = flag.Int("scale", 1, "problem scale (1: 24x24x48 proxy grid)")
	realP     = flag.Int("real", 0, "if > 0, run the real implementations at this process count")
	withStats = flag.Bool("stats", false, "record runtime stats in the real factorization worlds and dump the merged counters of the last one at exit (needs -real)")
)

// lastSnap holds the merged counters of the most recent stats-enabled
// factorization world, printed at exit under -stats.
var (
	lastSnap obs.Snapshot
	haveSnap bool
)

func main() {
	flag.Parse()
	prob := matgen.FlanProxy(*scale)
	tree := sparse.Amalgamate(sparse.BuildFrontTree(prob.A, 0), 0.3)
	if err := tree.Validate(); err != nil {
		panic(err)
	}
	fmt.Printf("problem %s: n=%d nnz=%d, %d fronts, depth %d\n\n",
		prob.Name, prob.A.N, prob.A.NNZ(), len(tree.Fronts), tree.MaxLevel())

	m := expmodel.Haswell()
	t := &stats.Table{
		Title:  "Fig 9 — mini-symPACK strong scaling, Cori Haswell (model): factorization seconds",
		XLabel: "procs",
		XFmt:   func(v float64) string { return fmt.Sprintf("%d", int(v)) },
		YFmt:   func(v float64) string { return fmt.Sprintf("%.4g", v) },
	}
	v0 := &stats.Series{Name: "UPC++ v0.1"}
	v1 := &stats.Series{Name: "UPC++ v1.0"}
	diff := &stats.Series{Name: "v0.1/v1.0"}
	for _, p := range expmodel.Fig9ProcessCounts() {
		t0 := expmodel.SimulateSymPACK(m, tree, p, expmodel.V01)
		t1 := expmodel.SimulateSymPACK(m, tree, p, expmodel.V1)
		v0.Add(float64(p), t0)
		v1.Add(float64(p), t1)
		diff.Add(float64(p), t0/t1)
	}
	t.Series = []*stats.Series{v0, v1, diff}
	t.Fprint(os.Stdout)

	// Mean difference across the sweep, the paper's summary statistic.
	sum := 0.0
	for i := range diff.Y {
		sum += diff.Y[i] - 1
	}
	fmt.Printf("\nmean v0.1 overhead across job sizes: %.2f%%\n", 100*sum/float64(len(diff.Y)))

	if *realP > 0 {
		runReal(prob, tree, *realP)
	}
	if *withStats && haveSnap {
		fmt.Println()
		fmt.Println("runtime stats (merged across ranks, last factorization world):")
		obs.Fprint(os.Stdout, lastSnap)
	}
}

func runReal(prob *matgen.Problem, tree *sparse.FrontTree, p int) {
	fmt.Printf("\nreal in-process factorization at P=%d — correctness cross-check\n(zero-delay conduit; wall time is this Go runtime's software path):\n", p)
	plan := sparse.NewCholPlan(prob.A, tree, p)
	for _, variant := range []struct {
		name string
		dev  bool // device-resident fronts on a GPUDirect world
		run  func(rk *core.Rank) sparse.CholResult
	}{
		{name: "UPC++ v1.0", run: func(rk *core.Rank) sparse.CholResult { return sparse.CholV1(rk, plan) }},
		{name: "UPC++ v0.1", run: func(rk *core.Rank) sparse.CholResult { return sparse.CholV01(rk, plan) }},
		{name: "v1.0 gdr-device", dev: true,
			run: func(rk *core.Rank) sparse.CholResult { return sparse.CholV1Device(rk, plan) }},
	} {
		results := make([]sparse.CholResult, p)
		cfg := core.Config{Ranks: p, SegmentSize: 256 << 20, Stats: *withStats}
		if variant.dev {
			// Stats stay on regardless of -stats: the merged counters are
			// the pin that the CB pushes took the direct datapath.
			cfg.Stats = true
			cfg.DMA = gasnet.NoDelayDMA{GDR: true}
		}
		core.RunConfig(cfg, func(rk *core.Rank) {
			results[rk.Me()] = variant.run(rk)
			rk.Barrier()
			if rk.Me() == 0 && rk.StatsEnabled() {
				lastSnap = rk.World().StatsMerged()
				haveSnap = true
			}
		})
		worst := 0.0
		var nnzL int
		for _, res := range results {
			if res.Elapsed.Seconds() > worst {
				worst = res.Elapsed.Seconds()
			}
			nnzL += len(res.L)
		}
		fmt.Printf("  %-10s %.4gs  (|L| = %d entries)\n", variant.name, worst, nnzL)
		if variant.dev {
			fmt.Printf("             gdr pin: d2d-direct=%d d2d-bounced=%d\n",
				lastSnap.DMA[obs.DMAD2DDirect], lastSnap.DMA[obs.DMAD2DBounced])
			if lastSnap.DMA[obs.DMAD2DBounced] != 0 || (p > 1 && lastSnap.DMA[obs.DMAD2DDirect] == 0) {
				fmt.Fprintln(os.Stderr, "sympack-bench: device factorization left the GPUDirect datapath")
				os.Exit(1)
			}
		}
		// Verify on small problems only (dense reference is O(n^3)).
		if prob.A.N <= 4096 {
			dense := prob.A.Dense()
			if err := sparse.DenseCholesky(dense, prob.A.N); err != nil {
				panic(err)
			}
			bad := 0
			for _, res := range results {
				for _, tr := range res.L {
					want := dense[int(tr[0])*prob.A.N+int(tr[1])]
					if math.Abs(want-tr[2]) > 1e-8*(1+math.Abs(want)) {
						bad++
					}
				}
			}
			if bad > 0 {
				panic(fmt.Sprintf("%d mismatched L entries vs dense Cholesky", bad))
			}
			fmt.Println("             verified against dense Cholesky")
		}
	}
}
