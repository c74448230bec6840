// eadd-bench regenerates Fig 8 of the paper: strong scaling of the
// extend-add operation on the audikw_1 proxy, comparing the UPC++ RPC
// implementation against the MPI Alltoallv (STRUMPACK-style) and MPI
// point-to-point (MUMPS-style) variants, on the Haswell and KNL machine
// models, for 1..2048 processes.
//
// The structural side is real: the front tree, proportional mapping,
// block-cyclic layouts and per-message matrix come from internal/sparse
// on a generated 3D problem; the timing at scale comes from the
// calibrated discrete-event models in internal/expmodel. With -real the
// three actual implementations also run in-process at a small P and are
// verified against each other.
//
// Usage:
//
//	go run ./cmd/eadd-bench [-scale n] [-block n] [-machine haswell|knl|both] [-real P]
package main

import (
	"flag"
	"fmt"
	"os"

	"upcxx/internal/expmodel"
	"upcxx/internal/matgen"
	"upcxx/internal/mpi"
	"upcxx/internal/sparse"
	"upcxx/internal/stats"

	core "upcxx/internal/core"
)

var (
	scale   = flag.Int("scale", 1, "problem scale (1: 30^3 proxy grid)")
	block   = flag.Int("block", 16, "2D block-cyclic block size")
	machine = flag.String("machine", "both", "haswell, knl, or both")
	realP   = flag.Int("real", 0, "if > 0, also run the real implementations at this process count")
)

func buildTree() (*matgen.Problem, *sparse.FrontTree) {
	prob := matgen.AudikwProxy(*scale)
	tree := sparse.Amalgamate(sparse.BuildFrontTree(prob.A, 0), 0.3)
	if err := tree.Validate(); err != nil {
		panic(err)
	}
	return prob, tree
}

func modelTable(m expmodel.Machine, tree *sparse.FrontTree) *stats.Table {
	t := &stats.Table{
		Title:  fmt.Sprintf("Fig 8 — extend-add strong scaling, %s (model): seconds per full-tree pass", m.Name),
		XLabel: "procs",
		XFmt:   func(v float64) string { return fmt.Sprintf("%d", int(v)) },
		YFmt:   func(v float64) string { return fmt.Sprintf("%.4g", v) },
	}
	up := &stats.Series{Name: "UPC++ RPC"}
	a2a := &stats.Series{Name: "MPI Alltoallv"}
	p2p := &stats.Series{Name: "MPI P2P"}
	for _, p := range expmodel.Fig8ProcessCounts() {
		plan := sparse.NewEAddPlan(tree, p, *block)
		up.Add(float64(p), expmodel.SimulateEAddUPCXX(m, plan))
		a2a.Add(float64(p), expmodel.SimulateEAddA2A(m, plan))
		p2p.Add(float64(p), expmodel.SimulateEAddP2P(m, plan))
	}
	t.Series = []*stats.Series{a2a, p2p, up}
	return t
}

func realRun(tree *sparse.FrontTree, p int) {
	plan := sparse.NewEAddPlan(tree, p, *block)
	want := sparse.EAddSerial(plan)
	fmt.Printf("real in-process run at P=%d — correctness cross-check (zero-delay conduit;\nwall times measure this Go runtime's software paths, not the modeled network):\n", p)

	stores := make([]*sparse.AccumStore, p)
	var upcxxTime float64
	core.RunConfig(core.Config{Ranks: p, SegmentSize: 64 << 20}, func(rk *core.Rank) {
		st, el := sparse.EAddUPCXX(rk, plan)
		stores[rk.Me()] = st
		if el.Seconds() > upcxxTime {
			upcxxTime = el.Seconds()
		}
		rk.Barrier()
	})
	verify(want, stores, "UPC++")
	fmt.Printf("  UPC++ RPC     %.4gs\n", upcxxTime)

	for _, v := range []struct {
		name string
		run  func(*mpi.Proc) (*sparse.AccumStore, float64)
	}{
		{"MPI Alltoallv", func(pr *mpi.Proc) (*sparse.AccumStore, float64) {
			s, d := sparse.EAddMPIAlltoallv(pr, plan)
			return s, d.Seconds()
		}},
		{"MPI P2P", func(pr *mpi.Proc) (*sparse.AccumStore, float64) {
			s, d := sparse.EAddMPIP2P(pr, plan)
			return s, d.Seconds()
		}},
	} {
		stores := make([]*sparse.AccumStore, p)
		var worst float64
		mpi.Run(p, func(pr *mpi.Proc) {
			st, el := v.run(pr)
			stores[pr.Rank()] = st
			if el > worst {
				worst = el
			}
		})
		verify(want, stores, v.name)
		fmt.Printf("  %-13s %.4gs\n", v.name, worst)
	}
	fmt.Println("  all variants verified against the serial reference")
}

func verify(want *sparse.AccumStore, stores []*sparse.AccumStore, name string) {
	got := sparse.NewAccumStore()
	for _, s := range stores {
		got.Merge(s)
	}
	if err := want.Equal(got, 1e-9); err != nil {
		panic(fmt.Sprintf("%s mismatch: %v", name, err))
	}
}

func main() {
	flag.Parse()
	prob, tree := buildTree()
	fmt.Printf("problem %s: n=%d nnz=%d, %d fronts, depth %d\n\n",
		prob.Name, prob.A.N, prob.A.NNZ(), len(tree.Fronts), tree.MaxLevel())

	if *machine == "haswell" || *machine == "both" {
		modelTable(expmodel.Haswell(), tree).Fprint(os.Stdout)
		fmt.Println()
	}
	if *machine == "knl" || *machine == "both" {
		modelTable(expmodel.KNL(), tree).Fprint(os.Stdout)
		fmt.Println()
	}
	if *realP > 0 {
		realRun(tree, *realP)
	}
}
