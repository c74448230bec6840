// dht-bench regenerates Fig 4 of the paper: weak scaling of distributed
// hash table insertion on Cori Haswell (4a, up to 16384 processes) and
// Cori KNL (4b, up to 34816 processes), for a range of element sizes,
// each process making the same number of blocking inserts at every size.
//
// The sweep runs in the calibrated discrete-event model
// (internal/expmodel), whose TestGoldenMakespans pins the model's exact
// makespans at small points; the real runtime's insert loops are measured
// by the committed benchmark (benchmark/README.md), not here.
//
// Usage:
//
//	go run ./cmd/dht-bench
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"upcxx/internal/expmodel"
	"upcxx/internal/stats"
)

// inserts is the number of blocking inserts each process makes per data
// point, whatever the element size.
const inserts = 64

// elemSizes are the value sizes swept.
var elemSizes = []int{512, 2048, 8192}

func modelTable(m expmodel.Machine, maxP int) *stats.Table {
	t := &stats.Table{
		Title:  fmt.Sprintf("Fig 4 — DHT weak scaling, %s (model): aggregate inserts/s", m.Name),
		XLabel: "procs",
		XFmt:   func(v float64) string { return fmt.Sprintf("%d", int(v)) },
		YFmt:   func(v float64) string { return fmt.Sprintf("%.3g", v) },
	}
	for _, elem := range elemSizes {
		s := &stats.Series{Name: fmt.Sprintf("%s values", stats.BytesHuman(elem))}
		for _, p := range expmodel.Fig4ProcessCounts(maxP) {
			res := expmodel.SimulateDHT(expmodel.DHTConfig{
				M: m, P: p, ElemSize: elem, InsertsPerRank: inserts, Seed: 20190520,
			})
			s.Add(float64(p), res.Aggregate)
		}
		t.Series = append(t.Series, s)
	}
	return t
}

// run prints Fig 4a (Haswell) and Fig 4b (KNL).
func run(w io.Writer) error {
	for _, fig := range []struct {
		m    expmodel.Machine
		maxP int
	}{{expmodel.Haswell(), 16384}, {expmodel.KNL(), 34816}} {
		modelTable(fig.m, fig.maxP).Fprint(w)
		fmt.Fprintln(w)
	}
	return nil
}

func main() {
	flag.Parse() // it declares none: a stale flag fails instead of being ignored
	if err := run(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "dht-bench:", err)
		os.Exit(1)
	}
}
