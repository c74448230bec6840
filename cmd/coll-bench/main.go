// coll-bench sweeps the collectives engine: team size × tree radix ×
// memory kind on the real-time Aries-calibrated conduit, next to a
// closed-form LogGP tree model. Two tables are produced:
//
//   - host: the latency of one broadcast+reduce round (an 8-byte value
//     down the team's tree and an 8-byte reduction back up — the
//     full-depth round that a blocking allreduce pays), measured with
//     the wall clock and predicted by walking the actual tree with the
//     LogGP parameters (per-child gap serialization at each parent, one
//     overhead+latency per hop);
//   - device: the per-operation latency of AllReduceBufWith over
//     device-resident operands, whose exchange hops cross both the NIC
//     and the simulated PCIe copy engines.
//
// Radix 1 is the flat tree (the seed's gather topology): the root
// exchanges with every member directly, serializing p-1 messages on one
// NIC. The sweep shows the k-nomial trees beating it from ~16 ranks and
// decisively at 32+ on the Aries model; the measured columns track on
// hosts with at least as many CPUs as simulated ranks (on smaller hosts
// the per-message CPU overheads serialize on the wall clock and the tool
// prints a note saying the model columns are authoritative).
//
// Usage:
//
//	go run ./cmd/coll-bench [-ranks 8,16,32] [-radices 1,2,4,8]
//	                        [-iters 8] [-reps 2] [-dilation 100]
//	                        [-device-elems 128] [-model-only] [-no-device]
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	core "upcxx/internal/core"
	"upcxx/internal/gasnet"
	"upcxx/internal/obs"
	"upcxx/internal/stats"
)

var (
	ranksFlag  = flag.String("ranks", "8,16,32", "team sizes to sweep")
	radixFlag  = flag.String("radices", "1,2,4,8", "tree radices to sweep (1 = flat)")
	iters      = flag.Int("iters", 8, "rounds per measurement")
	reps       = flag.Int("reps", 2, "repetitions per point (best kept)")
	dilation   = flag.Int("dilation", 100, "time-dilation factor: the simulated network runs k times slower than Aries and results are divided by k, so Go harness jitter is negligible relative to the modeled latencies")
	devElems   = flag.Int("device-elems", 128, "float64 elements per rank in the device allreduce")
	modelOnly  = flag.Bool("model-only", false, "print only the closed-form predictions (fast)")
	noDevice   = flag.Bool("no-device", false, "skip the device-kind sweep")
	withStats  = flag.Bool("stats", false, "record runtime stats in every measured world and dump the merged counters (incl. collective tree rounds) of the last one at exit")
	collHeader = 40 // approximate collective header AM size in bytes
)

// lastSnap holds the merged counters of the most recent stats-enabled
// measured world, printed at exit under -stats.
var (
	lastSnap obs.Snapshot
	haveSnap bool
)

// captureStats is called by rank 0 at the end of each measured run.
func captureStats(rk *core.Rank) {
	if rk.Me() == 0 && rk.StatsEnabled() {
		lastSnap = rk.World().StatsMerged()
		haveSnap = true
	}
}

func parseInts(s string) []int {
	var out []int
	for _, f := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || v <= 0 {
			fmt.Fprintf(os.Stderr, "coll-bench: bad list entry %q\n", f)
			os.Exit(2)
		}
		out = append(out, v)
	}
	return out
}

// dilatedAries returns the Aries model slowed by the dilation factor.
func dilatedAries() *gasnet.LogGP {
	k := time.Duration(*dilation)
	m := gasnet.Aries()
	m.O *= k
	m.L *= k
	m.Gp *= k
	m.GNsPerB *= float64(k)
	m.IntraO *= k
	m.IntraL *= k
	m.IntraGp *= k
	m.IntraGNsPerB *= float64(k)
	return m
}

// dilatedPCIe returns the PCIe3 DMA model slowed to match.
func dilatedPCIe() *gasnet.PCIeDMA {
	k := time.Duration(*dilation)
	m := gasnet.PCIe3()
	m.O *= k
	m.L *= k
	m.Gp *= k
	m.GNsPerB *= float64(k)
	m.D2DNsPerB *= float64(k)
	return m
}

// bcastModel predicts the time for the last leaf of the engine's tree
// (radix as Config.CollRadix) to receive a broadcast of nbytes: each
// parent serializes its children on the NIC gap, and every hop pays
// injection overhead plus wire latency. One reduction up the same tree
// mirrors these costs, so a broadcast+reduce round models as twice this.
func bcastModel(p, radix, nbytes int, m *gasnet.LogGP) time.Duration {
	var worst time.Duration
	var visit func(rr int, at time.Duration)
	visit = func(rr int, at time.Duration) {
		if at > worst {
			worst = at
		}
		for i, c := range core.CollTopoChildren(radix, rr, p) {
			visit(c, at+m.Overhead(nbytes, false)+time.Duration(i+1)*m.Gap(nbytes, false)+m.Latency(nbytes, false))
		}
	}
	visit(0, 0)
	return worst
}

// measureRound times one broadcast+reduce round of an 8-byte value on
// the dilated Aries conduit with every rank on its own node.
func measureRound(p, radix int) float64 {
	best := 0.0
	for rep := 0; rep < *reps; rep++ {
		var per float64
		core.RunConfig(core.Config{Ranks: p, RanksPerNode: 1, Model: dilatedAries(),
			CollRadix: radix, SegmentSize: 1 << 20, Stats: *withStats}, func(rk *core.Rank) {
			world := rk.WorldTeam()
			sum := func(a, b int64) int64 { return a + b }
			// Warm-up round.
			core.Broadcast(world, 0, int64(1)).Wait()
			core.ReduceOne(world, int64(1), sum).Wait()
			rk.Barrier()
			t0 := time.Now()
			for i := 0; i < *iters; i++ {
				core.Broadcast(world, 0, int64(i)).Wait()
				core.ReduceOne(world, int64(1), sum).Wait()
			}
			if rk.Me() == 0 {
				per = time.Since(t0).Seconds() / float64(*iters) / float64(*dilation)
			}
			captureStats(rk)
			rk.Barrier()
		})
		if best == 0 || (per > 0 && per < best) {
			best = per
		}
	}
	return best
}

// pinViolation records the first datapath-pin failure seen by a measured
// device world (empty: all pins held). Reported and fatal at exit.
var pinViolation string

// checkDevicePins verifies, from one measured device world's merged
// counters, that the run took the datapath its configuration promises:
// exactly one fused fold launch per parent round (each internal tree node
// folds all its arrived children with a single kernel), and — under a
// GPUDirect DMA model — zero bounced d2d descriptors (all direct), vs
// all-bounced without it.
func checkDevicePins(rk *core.Rank, p, radix int, gdr bool) {
	if rk.Me() != 0 || !rk.StatsEnabled() {
		return
	}
	s := rk.World().StatsMerged()
	nops := uint64(*iters + 1) // warm-up + timed rounds
	internal := 0
	for rr := 0; rr < p; rr++ {
		if len(core.CollTopoChildren(radix, rr, p)) > 0 {
			internal++
		}
	}
	if s.FusedFolds != uint64(internal)*nops || s.FusedChildren != uint64(p-1)*nops {
		pinViolation = fmt.Sprintf("p=%d radix=%d: fused folds launches=%d children=%d, want %d launches (1 per parent round) folding %d children",
			p, radix, s.FusedFolds, s.FusedChildren, uint64(internal)*nops, uint64(p-1)*nops)
		return
	}
	if p > 1 && gdr && (s.DMA[obs.DMAD2DBounced] != 0 || s.DMA[obs.DMAD2DDirect] == 0) {
		pinViolation = fmt.Sprintf("p=%d radix=%d gdr: d2d-direct=%d d2d-bounced=%d, want all direct",
			p, radix, s.DMA[obs.DMAD2DDirect], s.DMA[obs.DMAD2DBounced])
		return
	}
	if p > 1 && !gdr && s.DMA[obs.DMAD2DBounced] == 0 {
		pinViolation = fmt.Sprintf("p=%d radix=%d bounced: no d2d-bounced descriptors recorded", p, radix)
	}
}

// measureDeviceAllReduce times AllReduceBufWith over device-resident
// float64 operands (the kind-aware reduction path: DMA-costed exchange
// copies, fused RunKernel folds, no host staging). With gdr the DMA model
// is GPUDirect-capable and the exchange copies skip the host bounce.
// Stats stay on: the descriptor-kind and fused-fold counters are the pin
// that the sweep took the configured datapath.
func measureDeviceAllReduce(p, radix, elems int, gdr bool) float64 {
	dma := dilatedPCIe()
	dma.GDR = gdr
	best := 0.0
	for rep := 0; rep < *reps; rep++ {
		var per float64
		core.RunConfig(core.Config{Ranks: p, RanksPerNode: 1, Model: dilatedAries(),
			DMA: dma, CollRadix: radix, SegmentSize: 1 << 20, Stats: true}, func(rk *core.Rank) {
			da := core.NewDeviceAllocator(rk, 1<<22)
			buf := core.MustNewDeviceArray[float64](da, elems)
			core.RunKernel(da, buf, elems, func(s []float64) {
				for i := range s {
					s[i] = 1
				}
			})
			world := rk.WorldTeam()
			sum := func(a, b float64) float64 { return a + b }
			core.AllReduceBufWith(world, da, buf, elems, sum).Op.Wait() // warm up
			rk.Barrier()
			t0 := time.Now()
			for i := 0; i < *iters; i++ {
				core.AllReduceBufWith(world, da, buf, elems, sum).Op.Wait()
			}
			if rk.Me() == 0 {
				per = time.Since(t0).Seconds() / float64(*iters) / float64(*dilation)
			}
			checkDevicePins(rk, p, radix, gdr)
			captureStats(rk)
			rk.Barrier()
		})
		if best == 0 || (per > 0 && per < best) {
			best = per
		}
	}
	return best
}

func main() {
	flag.Parse()
	ranks := parseInts(*ranksFlag)
	radices := parseInts(*radixFlag)
	aries := gasnet.Aries()

	if !*modelOnly {
		maxP := 0
		for _, p := range ranks {
			if p > maxP {
				maxP = p
			}
		}
		if runtime.NumCPU() < maxP {
			fmt.Printf("note: %d CPUs for up to %d simulated ranks — measured numbers are\n"+
				"scheduling-bound (per-message CPU overheads serialize on the host, so tree\n"+
				"parallelism cannot show in wall clock); the model columns are authoritative\n"+
				"for the topology comparison on such hosts.\n\n", runtime.NumCPU(), maxP)
		}
	}

	radixName := func(r int) string {
		switch r {
		case 1:
			return "flat"
		case 2:
			return "binomial"
		default:
			return fmt.Sprintf("%d-nomial", r)
		}
	}

	host := &stats.Table{
		Title:  "Collectives — broadcast+reduce round latency, us (8 B values, Aries model; lower is better)",
		XLabel: "ranks",
		XFmt:   func(v float64) string { return fmt.Sprintf("%d", int(v)) },
		YFmt:   func(v float64) string { return fmt.Sprintf("%.2f", v) },
	}
	for _, r := range radices {
		model := &stats.Series{Name: radixName(r) + " (model)"}
		var meas *stats.Series
		if !*modelOnly {
			meas = &stats.Series{Name: radixName(r) + " (measured)"}
		}
		for _, p := range ranks {
			model.Add(float64(p), 2*bcastModel(p, r, collHeader, aries).Seconds()*1e6)
			if !*modelOnly {
				meas.Add(float64(p), measureRound(p, r)*1e6)
			}
		}
		host.Series = append(host.Series, model)
		if meas != nil {
			host.Series = append(host.Series, meas)
		}
	}
	// Auto-tuned comparison row: CollRadix 0 with a real-time model makes
	// the world pick its radix from the closed-form LogGP tree time at
	// creation (dilation scales every candidate equally, so the dilated
	// worlds pick the same radix the undilated model predicts).
	autoModel := &stats.Series{Name: "auto (model)"}
	var autoMeas *stats.Series
	if !*modelOnly {
		autoMeas = &stats.Series{Name: "auto (measured)"}
	}
	picks := make([]string, 0, len(ranks))
	for _, p := range ranks {
		pick := core.AutoRadix(aries, p)
		name := "default"
		if pick > 0 {
			name = radixName(pick)
		}
		picks = append(picks, fmt.Sprintf("%d ranks -> %s", p, name))
		autoModel.Add(float64(p), 2*bcastModel(p, pick, collHeader, aries).Seconds()*1e6)
		if autoMeas != nil {
			autoMeas.Add(float64(p), measureRound(p, 0)*1e6)
		}
	}
	host.Series = append(host.Series, autoModel)
	if autoMeas != nil {
		host.Series = append(host.Series, autoMeas)
	}

	host.Fprint(os.Stdout)
	fmt.Printf("auto-tuned radix (CollRadix 0 + model): %s\n", strings.Join(picks, ", "))
	fmt.Println()

	if !*noDevice && !*modelOnly {
		dev := &stats.Table{
			Title: fmt.Sprintf("Device allreduce latency, us (%d float64/rank, Aries + PCIe3 models; lower is better)",
				*devElems),
			XLabel: "ranks",
			XFmt:   func(v float64) string { return fmt.Sprintf("%d", int(v)) },
			YFmt:   func(v float64) string { return fmt.Sprintf("%.2f", v) },
		}
		for _, r := range radices {
			meas := &stats.Series{Name: radixName(r) + " (measured)"}
			gdr := &stats.Series{Name: radixName(r) + " (gdr)"}
			for _, p := range ranks {
				meas.Add(float64(p), measureDeviceAllReduce(p, r, *devElems, false)*1e6)
				gdr.Add(float64(p), measureDeviceAllReduce(p, r, *devElems, true)*1e6)
			}
			dev.Series = append(dev.Series, meas, gdr)
		}
		dev.Fprint(os.Stdout)
		fmt.Println()
		if pinViolation != "" {
			fmt.Fprintf(os.Stderr, "coll-bench: datapath pin violated: %s\n", pinViolation)
			os.Exit(1)
		}
		fmt.Println("# device pins ok: 1 fused fold launch per parent round; gdr worlds all d2d-direct, plain all d2d-bounced")
		fmt.Println()
	}

	fmt.Println("radix 1 is the flat tree (the root serializes p-1 messages on one NIC);")
	fmt.Println("k-nomial trees trade per-parent fan-out against tree depth and win from ~16 ranks.")

	if *withStats && haveSnap {
		fmt.Println()
		fmt.Println("runtime stats (merged across ranks, last measured world):")
		obs.Fprint(os.Stdout, lastSnap)
	}
}
