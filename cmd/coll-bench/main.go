// coll-bench sweeps the collectives engine: team size × tree radix ×
// memory kind on the Aries-calibrated conduit, next to a closed-form
// LogGP tree model. Two tables are produced:
//
//   - host: the latency of one broadcast+reduce round (an 8-byte value
//     down the team's tree and an 8-byte reduction back up — the
//     full-depth round that a blocking allreduce pays), measured on the
//     root's model clock and predicted by walking the actual tree with the
//     LogGP parameters (per-child gap serialization at each parent, one
//     overhead+latency per hop);
//   - device: the per-operation latency of AllReduceBufWith over
//     device-resident operands, whose exchange hops cross both the NIC
//     and the simulated PCIe copy engines.
//
// Radix 1 is the flat tree (the seed's gather topology): the root
// exchanges with every member directly, serializing p-1 messages on one
// NIC. The sweep shows the k-nomial trees beating it from ~16 ranks and
// decisively at 32+ on the Aries model. Measured columns are model time
// (Rank.Clock): every rank charges its own overheads to its own clock, and
// the golden test (main_test.go) pins the printed figure against
// testdata/figure.golden.
//
// Usage:
//
//	go run ./cmd/coll-bench
package main

import (
	"cmp"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"upcxx"
	"upcxx/internal/gasnet"
	"upcxx/internal/obs"
	"upcxx/internal/stats"
)

const (
	iters      = 8   // rounds per measurement
	devElems   = 128 // float64 elements per rank in the device allreduce
	collHeader = 40  // approximate collective header AM size in bytes
)

var (
	ranks   = []int{8, 16, 32}  // team sizes swept
	radices = []int{1, 2, 4, 8} // tree radices swept (1 = flat)
)

// perRound is the model time rank 0 spent per round since t0.
func perRound(rk *upcxx.Rank, t0 time.Duration) float64 {
	return (rk.Clock() - t0).Seconds() / float64(iters)
}

// measureRound times one broadcast+reduce round of an 8-byte value on
// the Aries conduit with every rank on its own node.
func measureRound(p, radix int) float64 {
	var per float64
	upcxx.RunConfig(upcxx.Config{Ranks: p, RanksPerNode: 1, Model: gasnet.Aries(),
		CollRadix: radix, SegmentSize: 1 << 20}, func(rk *upcxx.Rank) {
		world := rk.WorldTeam()
		sum := func(a, b int64) int64 { return a + b }
		// Warm-up round.
		upcxx.Broadcast(world, 0, int64(1)).Wait()
		upcxx.ReduceOne(world, int64(1), sum).Wait()
		rk.Barrier()
		t0 := rk.Clock()
		for i := 0; i < iters; i++ {
			upcxx.Broadcast(world, 0, int64(i)).Wait()
			upcxx.ReduceOne(world, int64(1), sum).Wait()
		}
		if rk.Me() == 0 {
			per = perRound(rk, t0)
		}
		// A member is done with ReduceOne once its partial is sent. Held here
		// until the root is done too, it sends nothing up that its parent,
		// still folding, could harvest ahead of a slower sibling's partial.
		upcxx.Broadcast(world, 0, int64(0)).Wait()
		rk.Barrier()
	})
	return per
}

// checkDevicePins verifies, from one measured device world's merged
// counters, that the run took the datapath its configuration promises:
// exactly one fused fold launch per parent round (each internal tree node
// folds all its arrived children with a single kernel), and — under a
// GPUDirect DMA model — zero bounced d2d descriptors (all direct), vs
// all-bounced without it.
func checkDevicePins(rk *upcxx.Rank, p, radix int, gdr bool) error {
	s := rk.World().StatsMerged()
	nops := uint64(iters + 1) // warm-up + timed rounds
	internal := 0
	for rr := 0; rr < p; rr++ {
		if len(upcxx.CollTopoChildren(radix, rr, p)) > 0 {
			internal++
		}
	}
	folds, children := s.Counters[obs.FusedFolds], s.Counters[obs.FusedChildren]
	direct, bounced := s.Counters[obs.DMAD2DDirect.Descriptors()], s.Counters[obs.DMAD2DBounced.Descriptors()]
	if folds != uint64(internal)*nops || children != uint64(p-1)*nops {
		return fmt.Errorf("p=%d radix=%d: fused folds launches=%d children=%d, want %d launches (1 per parent round) folding %d children",
			p, radix, folds, children, uint64(internal)*nops, uint64(p-1)*nops)
	}
	if p > 1 && gdr && (bounced != 0 || direct == 0) {
		return fmt.Errorf("p=%d radix=%d gdr: d2d-direct=%d d2d-bounced=%d, want all direct",
			p, radix, direct, bounced)
	}
	if p > 1 && !gdr && bounced == 0 {
		return fmt.Errorf("p=%d radix=%d bounced: no d2d-bounced descriptors recorded", p, radix)
	}
	return nil
}

// measureDeviceAllReduce times AllReduceBufWith over device-resident
// float64 operands (the kind-aware reduction path: DMA-costed exchange
// copies, fused RunKernel folds, no host staging). With gdr the DMA model
// is GPUDirect-capable and the exchange copies skip the host bounce.
// Stats stay on: the descriptor-kind and fused-fold counters are the pin
// that the sweep took the configured datapath; a violated pin is the error.
func measureDeviceAllReduce(p, radix, elems int, gdr bool) (float64, error) {
	dma := gasnet.PCIe3()
	dma.GDR = gdr
	var per float64
	var pin error
	upcxx.RunConfig(upcxx.Config{Ranks: p, RanksPerNode: 1, Model: gasnet.Aries(),
		DMA: dma, CollRadix: radix, SegmentSize: 1 << 20, Stats: true}, func(rk *upcxx.Rank) {
		da := upcxx.NewDeviceAllocator(rk, 1<<22)
		buf := upcxx.MustNewDeviceArray[float64](da, elems)
		upcxx.RunKernel(da, buf, elems, func(s []float64) {
			for i := range s {
				s[i] = 1
			}
		})
		world := rk.WorldTeam()
		sum := func(a, b float64) float64 { return a + b }
		upcxx.AllReduceBufWith(world, da, buf, elems, sum).Op.Wait() // warm up
		rk.Barrier()
		t0 := rk.Clock()
		for i := 0; i < iters; i++ {
			upcxx.AllReduceBufWith(world, da, buf, elems, sum).Op.Wait()
		}
		if rk.Me() == 0 {
			per = perRound(rk, t0)
			pin = checkDevicePins(rk, p, radix, gdr)
		}
		rk.Barrier()
	})
	return per, pin
}

// run prints the host table and the device table, then checks the device
// datapath pins.
func run(w io.Writer) error {
	aries := gasnet.Aries()

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
		meas := &stats.Series{Name: radixName(r) + " (measured)"}
		for _, p := range ranks {
			model.Add(float64(p), 2*upcxx.CollTreeTime(aries, r, p, collHeader).Seconds()*1e6)
			meas.Add(float64(p), measureRound(p, r)*1e6)
		}
		host.Series = append(host.Series, model, meas)
	}
	// Auto-tuned comparison row: CollRadix 0 with a timing model makes the
	// world pick its radix from the closed-form LogGP tree time at creation.
	autoModel := &stats.Series{Name: "auto (model)"}
	autoMeas := &stats.Series{Name: "auto (measured)"}
	picks := make([]string, 0, len(ranks))
	for _, p := range ranks {
		pick := upcxx.AutoRadix(aries, p)
		name := "default"
		if pick > 0 {
			name = radixName(pick)
		}
		picks = append(picks, fmt.Sprintf("%d ranks -> %s", p, name))
		autoModel.Add(float64(p), 2*upcxx.CollTreeTime(aries, pick, p, collHeader).Seconds()*1e6)
		autoMeas.Add(float64(p), measureRound(p, 0)*1e6)
	}
	host.Series = append(host.Series, autoModel, autoMeas)

	host.Fprint(w)
	fmt.Fprintf(w, "auto-tuned radix (CollRadix 0 + model): %s\n", strings.Join(picks, ", "))
	fmt.Fprintln(w)

	dev := &stats.Table{
		Title: fmt.Sprintf("Device allreduce latency, us (%d float64/rank, Aries + PCIe3 models; lower is better)",
			devElems),
		XLabel: "ranks",
		XFmt:   func(v float64) string { return fmt.Sprintf("%d", int(v)) },
		YFmt:   func(v float64) string { return fmt.Sprintf("%.2f", v) },
	}
	var pinErr error
	for _, r := range radices {
		meas := &stats.Series{Name: radixName(r) + " (measured)"}
		gdr := &stats.Series{Name: radixName(r) + " (gdr)"}
		for _, p := range ranks {
			bounced, errB := measureDeviceAllReduce(p, r, devElems, false)
			direct, errD := measureDeviceAllReduce(p, r, devElems, true)
			meas.Add(float64(p), bounced*1e6)
			gdr.Add(float64(p), direct*1e6)
			pinErr = cmp.Or(pinErr, errB, errD)
		}
		dev.Series = append(dev.Series, meas, gdr)
	}
	dev.Fprint(w)
	fmt.Fprintln(w)
	if pinErr != nil {
		return fmt.Errorf("datapath pin violated: %w", pinErr)
	}
	fmt.Fprintln(w, "# device pins ok: 1 fused fold launch per parent round; gdr worlds all d2d-direct, plain all d2d-bounced")
	fmt.Fprintln(w)
	fmt.Fprintln(w, "radix 1 is the flat tree (the root serializes p-1 messages on one NIC);")
	fmt.Fprintln(w, "k-nomial trees trade per-parent fan-out against tree depth and win from ~16 ranks.")
	return nil
}

func main() {
	flag.Parse() // it declares none: a stale flag fails instead of being ignored
	if err := run(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "coll-bench:", err)
		os.Exit(1)
	}
}
