// dht-bench regenerates Fig 4 of the paper: weak scaling of distributed
// hash table insertion on Cori Haswell (4a, up to 16384 processes) and
// Cori KNL (4b, up to 34816 processes), for a range of element sizes
// with a fixed inserted volume per process.
//
// The full sweep runs in the calibrated discrete-event model
// (internal/expmodel); in addition, -real runs the actual in-process
// runtime (internal/dht over internal/core) at small process counts to
// cross-check the model's small-P behaviour, and the P=1 point is the
// paper's serial std-map baseline.
//
// -pipelined additionally compares the blocking insert loop against the
// completion-vocabulary hot loop (dht.RunInsertPipelinedBench: one value
// buffer reused under source-cx, all op-cx events pooled on a promise)
// on the real runtime.
//
// Usage:
//
//	go run ./cmd/dht-bench [-machine haswell|knl|both] [-inserts n] [-real]
//	                       [-pipelined]
package main

import (
	"flag"
	"fmt"
	"os"

	"upcxx/internal/dht"
	"upcxx/internal/expmodel"
	"upcxx/internal/obs"
	"upcxx/internal/stats"

	core "upcxx/internal/core"
)

var (
	machine   = flag.String("machine", "both", "haswell, knl, or both")
	inserts   = flag.Int("inserts", 64, "blocking inserts per process per data point")
	real      = flag.Bool("real", false, "also run the real in-process runtime at small P")
	pipelined = flag.Bool("pipelined", false, "compare blocking vs pipelined (source-cx) insert loops on the real runtime")
	batch     = flag.Bool("batch", false, "sweep the batched-insert loop (per-home-rank message coalescing) over batch sizes on the real runtime")
	withStats = flag.Bool("stats", false, "record runtime stats in the real-runtime worlds (via the UPCXX_STATS knob) and dump the merged counters of the last one at exit")
)

// lastSnap holds the merged counters of the most recent stats-enabled
// real-runtime world, printed at exit under -stats.
var (
	lastSnap obs.Snapshot
	haveSnap bool
)

// captureStats is called by rank 0 at the end of each real-runtime run.
func captureStats(rk *core.Rank) {
	if rk.Me() == 0 && rk.StatsEnabled() {
		lastSnap = rk.World().StatsMerged()
		haveSnap = true
	}
}

// elemSizes are the value sizes swept (same total volume per size, per
// the paper's setup).
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
				M: m, P: p, ElemSize: elem, InsertsPerRank: *inserts, Seed: 20190520,
			})
			s.Add(float64(p), res.Aggregate)
		}
		t.Series = append(t.Series, s)
	}
	return t
}

func realRuns() *stats.Table {
	t := &stats.Table{
		Title:  "Cross-check — real in-process runtime, correctness + trend only\n(zero-delay conduit: wall times measure this Go runtime's software paths,\nnot the modeled Aries network): aggregate inserts/s",
		XLabel: "procs",
		XFmt:   func(v float64) string { return fmt.Sprintf("%d", int(v)) },
		YFmt:   func(v float64) string { return fmt.Sprintf("%.3g", v) },
	}
	for _, elem := range elemSizes {
		s := &stats.Series{Name: fmt.Sprintf("%s values", stats.BytesHuman(elem))}
		for _, p := range []int{1, 2, 4, 8} {
			cfg := dht.BenchConfig{ElemSize: elem, VolumePerRank: elem * *inserts, Seed: 7}
			if p == 1 {
				res := dht.RunSerialBench(cfg)
				s.Add(1, res.InsertsPerSec())
				continue
			}
			rates := make([]float64, p)
			core.RunConfig(core.Config{Ranks: p, SegmentSize: 64 << 20}, func(rk *core.Rank) {
				d := dht.New(rk, dht.LandingZone)
				rk.Barrier()
				res := dht.RunInsertBench(rk, d, cfg)
				rates[rk.Me()] = res.InsertsPerSec()
				captureStats(rk)
				rk.Barrier()
			})
			agg := 0.0
			for _, r := range rates {
				agg += r
			}
			s.Add(float64(p), agg)
		}
		t.Series = append(t.Series, s)
	}
	return t
}

// pipelinedRuns compares the paper's blocking insert loop against the
// completion-vocabulary pipeline (RPCOnly mode; the pipelined loop waits
// only source-cx per insert and one pooled op-cx promise at the end).
func pipelinedRuns() *stats.Table {
	t := &stats.Table{
		Title:  "Insert loop styles — real runtime, RPCOnly mode\n(zero-delay conduit; software-path comparison): aggregate inserts/s",
		XLabel: "procs",
		XFmt:   func(v float64) string { return fmt.Sprintf("%d", int(v)) },
		YFmt:   func(v float64) string { return fmt.Sprintf("%.3g", v) },
	}
	elem := elemSizes[0]
	for _, style := range []string{"blocking", "pipelined"} {
		style := style
		s := &stats.Series{Name: style}
		for _, p := range []int{2, 4, 8} {
			cfg := dht.BenchConfig{ElemSize: elem, VolumePerRank: elem * *inserts, Seed: 7}
			rates := make([]float64, p)
			core.RunConfig(core.Config{Ranks: p, SegmentSize: 64 << 20}, func(rk *core.Rank) {
				d := dht.New(rk, dht.RPCOnly)
				rk.Barrier()
				var res dht.BenchResult
				if style == "pipelined" {
					res = dht.RunInsertPipelinedBench(rk, d, cfg)
				} else {
					res = dht.RunInsertBench(rk, d, cfg)
				}
				rates[rk.Me()] = res.InsertsPerSec()
				captureStats(rk)
				rk.Barrier()
			})
			agg := 0.0
			for _, r := range rates {
				agg += r
			}
			s.Add(float64(p), agg)
		}
		t.Series = append(t.Series, s)
	}
	return t
}

// batchRuns sweeps dht.RunInsertBatchBench over batch sizes: the same
// pipelined flood of RPCOnly inserts, with every batchSize inserts
// coalesced per home rank into single wire messages. Each message the
// conduit moves costs a fixed software path (injection, queueing,
// doorbell, handler dispatch, reply) regardless of payload, so the
// aggregate rate should rise monotonically with batch size — size 1 is
// the per-AM floor. Best of three runs per point to damp harness jitter.
func batchRuns() *stats.Table {
	t := &stats.Table{
		Title:  "Batched inserts — real runtime, RPCOnly mode\n(zero-delay conduit; software-path amortization): aggregate inserts/s",
		XLabel: "batch",
		XFmt:   func(v float64) string { return fmt.Sprintf("%d", int(v)) },
		YFmt:   func(v float64) string { return fmt.Sprintf("%.3g", v) },
	}
	elem := elemSizes[0]
	const p = 4
	iters := *inserts
	if iters < 512 {
		iters = 512 // enough work per point for a stable wall-clock read
	}
	s := &stats.Series{Name: fmt.Sprintf("%d ranks, %s values", p, stats.BytesHuman(elem))}
	for _, bsz := range []int{1, 8, 64} {
		cfg := dht.BenchConfig{ElemSize: elem, VolumePerRank: elem * iters, Seed: 7}
		best := 0.0
		for rep := 0; rep < 3; rep++ {
			rates := make([]float64, p)
			core.RunConfig(core.Config{Ranks: p, SegmentSize: 64 << 20}, func(rk *core.Rank) {
				d := dht.New(rk, dht.RPCOnly)
				rk.Barrier()
				res := dht.RunInsertBatchBench(rk, d, cfg, bsz)
				rates[rk.Me()] = res.InsertsPerSec()
				captureStats(rk)
				rk.Barrier()
			})
			agg := 0.0
			for _, r := range rates {
				agg += r
			}
			if agg > best {
				best = agg
			}
		}
		s.Add(float64(bsz), best)
	}
	t.Series = append(t.Series, s)
	return t
}

func main() {
	flag.Parse()
	if *withStats {
		// The real-runtime worlds are created inside internal/dht
		// helpers with plain configs; the env knob reaches all of them.
		os.Setenv("UPCXX_STATS", "1")
	}
	emit := func(t *stats.Table) {
		t.Fprint(os.Stdout)
		fmt.Println()
	}
	if *machine == "haswell" || *machine == "both" {
		emit(modelTable(expmodel.Haswell(), 16384))
	}
	if *machine == "knl" || *machine == "both" {
		emit(modelTable(expmodel.KNL(), 34816))
	}
	if *real {
		emit(realRuns())
	}
	if *pipelined {
		emit(pipelinedRuns())
	}
	if *batch {
		emit(batchRuns())
	}
	if *withStats && haveSnap {
		fmt.Println("runtime stats (merged across ranks, last real-runtime world):")
		obs.Fprint(os.Stdout, lastSnap)
	}
}
