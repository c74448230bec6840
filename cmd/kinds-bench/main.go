// kinds-bench measures the memory-kinds transfer paths: CopyGG bandwidth
// for every {host,device} source/destination pair, same-rank and
// cross-rank, on the real-time Aries network model plus the PCIe3 device
// DMA model. Beside each measured point it prints the closed-form model
// prediction (the serial sum of the hop costs the conduit charges), so
// the curves demonstrate that device paths are bounded by the DMA engine
// — not the network — and cross-rank device pairs pay both.
//
// As with rma-bench, measured runs use time dilation: the simulated
// engines run k times slower than the calibrated hardware and results are
// divided by k, so Go scheduling jitter (which on a small host can reach
// a millisecond) stays negligible against the modeled microseconds.
//
// Usage:
//
//	go run ./cmd/kinds-bench [-max-size bytes] [-reps n] [-dilation k]
//	                         [-model-only] [-stats]
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"upcxx/internal/gasnet"
	"upcxx/internal/obs"
	"upcxx/internal/stats"

	core "upcxx/internal/core"
)

var (
	maxSize   = flag.Int("max-size", 4<<20, "largest transfer size in bytes")
	reps      = flag.Int("reps", 3, "repetitions per point (best kept)")
	dilation  = flag.Int("dilation", 100, "time-dilation factor for measured runs")
	modelOnly = flag.Bool("model-only", false, "print only the closed-form predictions (fast)")
	withStats = flag.Bool("stats", false, "record runtime stats in the measured world and dump the merged counters (incl. per-kind DMA descriptors) at exit")
)

func dilatedAries(k time.Duration) *gasnet.LogGP {
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

func dilatedPCIe3(k time.Duration) *gasnet.PCIeDMA {
	d := gasnet.PCIe3()
	d.O *= k
	d.L *= k
	d.Gp *= k
	d.GNsPerB *= float64(k)
	d.D2DNsPerB *= float64(k)
	return d
}

func dilatedPCIe3GDR(k time.Duration) *gasnet.PCIeDMA {
	d := dilatedPCIe3(k)
	d.GDR = true
	return d
}

type pair struct {
	name           string
	srcDev, dstDev bool
	cross          bool
	gdr            bool // measured on the GPUDirect-capable world
}

var pairs = []pair{
	{name: "h2h-same"},
	{name: "h2d-same", dstDev: true},
	{name: "d2d-same", srcDev: true, dstDev: true},
	{name: "h2h-cross", cross: true},
	{name: "h2d-cross", dstDev: true, cross: true},
	{name: "d2d-cross", srcDev: true, dstDev: true, cross: true},
	// GPU-direct sweep: same cross-rank device pairs on a GDR-capable
	// PCIe3 model — the NIC reads/writes device memory, so the staging
	// DMA hops (and the host bounce) drop out of both the measurement
	// and the closed form.
	{name: "h2d-cross-gdr", dstDev: true, cross: true, gdr: true},
	{name: "d2d-cross-gdr", srcDev: true, dstDev: true, cross: true, gdr: true},
}

// predict returns the modeled blocking latency of one CopyGG of n bytes:
// the serial sum of the hop costs internal/gasnet charges (source DMA,
// wire, destination DMA, ack), with undilated models. On a GDR pair the
// DMA terms vanish: the NIC addresses device memory directly, so the
// cross-rank chain is the same wire+ack as a host-to-host copy.
func predict(p pair, n int) time.Duration {
	m := gasnet.Aries()
	d := gasnet.PCIe3()
	if !p.cross {
		if p.srcDev && p.dstDev {
			return d.O + d.Gap(n, true) + d.Latency(n, true)
		}
		if p.srcDev || p.dstDev {
			return d.O + d.Gap(n, false) + d.Latency(n, false)
		}
		return m.Overhead(n, true) + m.Gap(n, true) + m.Latency(n, true)
	}
	t := m.Gap(n, false) + m.Latency(n, false) // wire hop
	t += m.Gap(0, false) + m.Latency(0, false) // completion ack
	if p.srcDev && !p.gdr {
		t += d.O + d.Gap(n, false) + d.Latency(n, false)
	} else {
		t += m.Overhead(n, false)
	}
	if p.dstDev && !p.gdr {
		t += d.Gap(n, false) + d.Latency(n, false)
	}
	return t
}

func sizes() []int {
	var out []int
	for n := 4 << 10; n <= *maxSize; n *= 4 {
		out = append(out, n)
	}
	return out
}

func gbps(n int, t time.Duration) float64 {
	if t <= 0 {
		return 0
	}
	return float64(n) / t.Seconds() / 1e9
}

func main() {
	flag.Parse()
	k := time.Duration(*dilation)

	fmt.Printf("# kinds-bench: CopyGG bandwidth by memory-kind pair (GB/s)\n")
	fmt.Printf("# network: Aries (~10.5 GB/s inter, ~40 GB/s intra)   DMA: PCIe3 (~11.8 GB/s h2d, ~125 GB/s d2d)\n")
	if !*modelOnly {
		fmt.Printf("# measured at dilation %d, best of %d reps\n", *dilation, *reps)
	}
	fmt.Printf("%10s", "size")
	for _, p := range pairs {
		if *modelOnly {
			fmt.Printf("  %12s", p.name)
		} else {
			fmt.Printf("  %12s %12s", p.name, "(model)")
		}
	}
	fmt.Println()

	// Two measured worlds, identical except for the DMA model's GPUDirect
	// capability: GDR-suffixed pairs run on wg, the rest on w. Stats stay
	// on in both — the descriptor-kind counters are the pin that the two
	// sweeps actually took different datapaths.
	var w, wg *core.World
	if !*modelOnly {
		w = core.NewWorld(core.Config{
			Ranks: 2, RanksPerNode: 1, SegmentSize: 2 * *maxSize,
			Model: dilatedAries(k), DMA: dilatedPCIe3(k), Stats: true,
		})
		defer w.Close()
		wg = core.NewWorld(core.Config{
			Ranks: 2, RanksPerNode: 1, SegmentSize: 2 * *maxSize,
			Model: dilatedAries(k), DMA: dilatedPCIe3GDR(k), Stats: true,
		})
		defer wg.Close()
	}

	lastMeas := map[string]time.Duration{}
	for _, n := range sizes() {
		fmt.Printf("%10d", n)
		for _, p := range pairs {
			model := gbps(n, predict(p, n))
			if *modelOnly {
				fmt.Printf("  %12.2f", model)
				continue
			}
			world := w
			if p.gdr {
				world = wg
			}
			el := measure(world, p, n, k)
			lastMeas[p.name] = el
			meas := gbps(n, el)
			fmt.Printf("  %12.2f %12.2f", meas, model)
		}
		fmt.Println()
	}

	if !*modelOnly {
		// Datapath pin: the sweeps must differ by descriptor kind, not just
		// by timing — GDR cross-rank d2d traffic is all direct, the plain
		// world's is all bounced. A violated pin is a conduit bug.
		sb, sg := w.StatsMerged(), wg.StatsMerged()
		fmt.Printf("# dma pin: plain world d2d-bounced=%d | gdr world d2d-direct=%d d2d-bounced=%d\n",
			sb.DMA[obs.DMAD2DBounced], sg.DMA[obs.DMAD2DDirect], sg.DMA[obs.DMAD2DBounced])
		if sb.DMA[obs.DMAD2DBounced] == 0 || sg.DMA[obs.DMAD2DDirect] == 0 || sg.DMA[obs.DMAD2DBounced] != 0 {
			fmt.Fprintln(os.Stderr, "kinds-bench: DMA descriptor-kind pin violated (see # dma pin line)")
			os.Exit(1)
		}
		if b, g := lastMeas["d2d-cross"], lastMeas["d2d-cross-gdr"]; b > 0 && g > 0 {
			fmt.Printf("# gdr speedup at %s (d2d-cross vs d2d-cross-gdr): %.2fx\n",
				stats.BytesHuman(sizes()[len(sizes())-1]), float64(b)/float64(g))
		}
	}

	if *withStats && !*modelOnly {
		fmt.Println()
		fmt.Println("runtime stats (merged across ranks, plain world):")
		obs.Fprint(os.Stdout, w.StatsMerged())
		fmt.Println()
		fmt.Println("runtime stats (merged across ranks, gdr world):")
		obs.Fprint(os.Stdout, wg.StatsMerged())
	}
}

// measure times *reps blocking CopyGG transfers on the dilated world and
// returns the best, de-dilated.
func measure(w *core.World, p pair, n int, k time.Duration) time.Duration {
	best := time.Duration(1 << 62)
	w.Run(func(rk *core.Rank) {
		da := core.NewDeviceAllocator(rk, 2*n+64) // room for both sides of a d2d pair
		alloc := func(dev bool) core.GPtr[uint8] {
			if dev {
				return core.MustNewDeviceArray[uint8](da, n)
			}
			return core.MustNewArray[uint8](rk, n)
		}
		src := alloc(p.srcDev)
		dst := alloc(p.dstDev)
		dstObj := core.NewDistObject(rk, dst)
		rk.Barrier()
		if rk.Me() == 0 {
			d := dst
			if p.cross {
				d = core.FetchDist[core.GPtr[uint8]](rk, dstObj.ID(), 1).Wait()
			}
			for r := 0; r < *reps; r++ {
				t0 := time.Now()
				core.CopyGG(rk, src, d, n).Wait()
				if el := time.Since(t0); el < best {
					best = el
				}
			}
		}
		// Free only after every rank's transfers have completed: a
		// cross-rank copy lands in another rank's buffers.
		rk.Barrier()
		_ = core.Delete(rk, src)
		_ = core.Delete(rk, dst)
		rk.Barrier()
	})
	return best / k
}
