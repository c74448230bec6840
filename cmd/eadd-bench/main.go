// eadd-bench regenerates Fig 8 of the paper: strong scaling of the
// extend-add operation on the audikw_1 proxy, comparing the UPC++ RPC
// implementation against the MPI Alltoallv (STRUMPACK-style) and MPI
// point-to-point (MUMPS-style) variants, on the Haswell and KNL machine
// models, for 1..2048 processes.
//
// The structural side is real: the front tree, proportional mapping,
// block-cyclic layouts and per-message matrix come from internal/sparse
// on a generated 3D problem; the timing at scale comes from the
// calibrated discrete-event models in internal/expmodel, whose
// TestGoldenMakespans pins every variant's exact makespan at small
// points. The three real
// implementations are checked against each other by internal/sparse's
// tests.
//
// Usage:
//
//	go run ./cmd/eadd-bench
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"upcxx/internal/expmodel"
	"upcxx/internal/matgen"
	"upcxx/internal/sparse"
	"upcxx/internal/stats"
)

// block is the 2D block-cyclic block size.
const block = 16

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
		plan := sparse.NewEAddPlan(tree, p, block)
		up.Add(float64(p), expmodel.SimulateEAddUPCXX(m, plan))
		a2a.Add(float64(p), expmodel.SimulateEAddA2A(m, plan))
		p2p.Add(float64(p), expmodel.SimulateEAddP2P(m, plan))
	}
	t.Series = []*stats.Series{a2a, p2p, up}
	return t
}

// run prints the problem's shape, then Fig 8 on Haswell and on KNL.
func run(w io.Writer) error {
	prob := matgen.AudikwProxy(1)
	tree := sparse.Amalgamate(sparse.BuildFrontTree(prob.A, 0), 0.3)
	if err := tree.Validate(); err != nil {
		return err
	}
	fmt.Fprintf(w, "problem %s: n=%d nnz=%d, %d fronts, depth %d\n\n",
		prob.Name, prob.A.N, prob.A.NNZ(), len(tree.Fronts), tree.MaxLevel())
	for _, m := range []expmodel.Machine{expmodel.Haswell(), expmodel.KNL()} {
		modelTable(m, tree).Fprint(w)
		fmt.Fprintln(w)
	}
	return nil
}

func main() {
	flag.Parse() // it declares none: a stale flag fails instead of being ignored
	if err := run(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "eadd-bench:", err)
		os.Exit(1)
	}
}
