// sympack-bench regenerates Fig 9 of the paper: strong scaling of the
// mini-symPACK multifrontal Cholesky on the Flan_1565 proxy, written once
// against the UPC++ v1.0 API (futures/promises/RPC) and once against the
// predecessor v0.1 API (events/asyncs). The paper's finding: the curves
// are nearly identical (mean difference 0.7%, v1.0 up to 7.2% ahead at
// 256 processes) — the redesigned runtime costs nothing.
//
// The scaling sweep uses the discrete-event model (internal/expmodel).
// The two real implementations are checked against a dense Cholesky by
// internal/sparse's tests. Every run prints the same bytes; the golden
// test (main_test.go) pins them against testdata/figure.golden.
//
// Usage:
//
//	go run ./cmd/sympack-bench
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

// run prints the problem's shape, Fig 9 and the sweep's mean v0.1 overhead.
func run(w io.Writer) error {
	prob := matgen.FlanProxy(1)
	tree := sparse.Amalgamate(sparse.BuildFrontTree(prob.A, 0), 0.3)
	if err := tree.Validate(); err != nil {
		return err
	}
	fmt.Fprintf(w, "problem %s: n=%d nnz=%d, %d fronts, depth %d\n\n",
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
	t.Fprint(w)

	// Mean difference across the sweep, the paper's summary statistic.
	sum := 0.0
	for i := range diff.Y {
		sum += diff.Y[i] - 1
	}
	fmt.Fprintf(w, "\nmean v0.1 overhead across job sizes: %.2f%%\n", 100*sum/float64(len(diff.Y)))
	return nil
}

func main() {
	flag.Parse() // it declares none: a stale flag fails instead of being ignored
	if err := run(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "sympack-bench:", err)
		os.Exit(1)
	}
}
