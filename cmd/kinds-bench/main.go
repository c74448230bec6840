// kinds-bench measures the memory-kinds transfer paths: CopyGG bandwidth
// for every {host,device} source/destination pair, same-rank and
// cross-rank, on the Aries network model plus the PCIe3 device DMA model.
// Beside each measured point it prints the closed-form model prediction
// (the serial sum of the hop costs the conduit charges), so the curves
// demonstrate that device paths are bounded by the DMA engine — not the
// network — and cross-rank device pairs pay both.
//
// A measured point is one blocking CopyGG timed on the initiator's model
// clock (Rank.Clock), so it equals the closed form exactly, on every run.
//
// Every run prints the same bytes; the golden test (main_test.go) pins them
// against testdata/figure.golden.
//
// Usage:
//
//	go run ./cmd/kinds-bench
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"upcxx/internal/gasnet"
	"upcxx/internal/obs"
	"upcxx/internal/stats"

	"upcxx"
)

// maxSize is the largest transfer size swept, in bytes.
const maxSize = 4 << 20

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
// wire, destination DMA, ack). On a GDR pair the
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
	for n := 4 << 10; n <= maxSize; n *= 4 {
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

// run prints the figure, then checks the DMA datapath pin.
func run(w io.Writer) error {
	fmt.Fprintf(w, "# kinds-bench: CopyGG bandwidth by memory-kind pair (GB/s)\n")
	fmt.Fprintf(w, "# network: Aries (~10.5 GB/s inter, ~40 GB/s intra)   DMA: PCIe3 (~11.8 GB/s h2d, ~125 GB/s d2d)\n")
	fmt.Fprintf(w, "# measured: one blocking CopyGG per point on the model clock\n")
	fmt.Fprintf(w, "%10s", "size")
	for _, p := range pairs {
		fmt.Fprintf(w, "  %12s %12s", p.name, "(model)")
	}
	fmt.Fprintln(w)

	// Two measured worlds, identical except for the DMA model's GPUDirect
	// capability: GDR-suffixed pairs run on wg, the rest on plain. Stats
	// stay on in both — the descriptor-kind counters are the pin that the
	// two sweeps actually took different datapaths.
	plain := upcxx.NewWorld(upcxx.Config{
		Ranks: 2, RanksPerNode: 1, SegmentSize: 2 * maxSize,
		Model: gasnet.Aries(), DMA: gasnet.PCIe3(), Stats: true,
	})
	defer plain.Close()
	wg := upcxx.NewWorld(upcxx.Config{
		Ranks: 2, RanksPerNode: 1, SegmentSize: 2 * maxSize,
		Model: gasnet.Aries(), DMA: gasnet.PCIe3GDR(), Stats: true,
	})
	defer wg.Close()

	lastMeas := map[string]time.Duration{}
	for _, n := range sizes() {
		fmt.Fprintf(w, "%10d", n)
		for _, p := range pairs {
			world := plain
			if p.gdr {
				world = wg
			}
			el := measure(world, p, n)
			lastMeas[p.name] = el
			fmt.Fprintf(w, "  %12.2f %12.2f", gbps(n, el), gbps(n, predict(p, n)))
		}
		fmt.Fprintln(w)
	}

	// Datapath pin: the sweeps must differ by descriptor kind, not just
	// by timing — GDR cross-rank d2d traffic is all direct, the plain
	// world's is all bounced. A violated pin is a conduit bug.
	sb, sg := plain.StatsMerged().Counters, wg.StatsMerged().Counters
	bounced, direct := obs.DMAD2DBounced.Descriptors(), obs.DMAD2DDirect.Descriptors()
	fmt.Fprintf(w, "# dma pin: plain world d2d-bounced=%d | gdr world d2d-direct=%d d2d-bounced=%d\n",
		sb[bounced], sg[direct], sg[bounced])
	if sb[bounced] == 0 || sg[direct] == 0 || sg[bounced] != 0 {
		return errors.New("DMA descriptor-kind pin violated (see # dma pin line)")
	}
	if b, g := lastMeas["d2d-cross"], lastMeas["d2d-cross-gdr"]; b > 0 && g > 0 {
		fmt.Fprintf(w, "# gdr speedup at %s (d2d-cross vs d2d-cross-gdr): %.2fx\n",
			stats.BytesHuman(maxSize), float64(b)/float64(g))
	}
	return nil
}

func main() {
	flag.Parse() // it declares none: a stale flag fails instead of being ignored
	if err := run(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "kinds-bench:", err)
		os.Exit(1)
	}
}

// measure times one blocking CopyGG transfer on the initiator's model clock.
func measure(w *upcxx.World, p pair, n int) time.Duration {
	var el time.Duration
	w.Run(func(rk *upcxx.Rank) {
		da := upcxx.NewDeviceAllocator(rk, 2*n+64) // room for both sides of a d2d pair
		alloc := func(dev bool) upcxx.GPtr[uint8] {
			if dev {
				return upcxx.MustNewDeviceArray[uint8](da, n)
			}
			return upcxx.MustNewArray[uint8](rk, n)
		}
		src := alloc(p.srcDev)
		dst := alloc(p.dstDev)
		dstObj := upcxx.NewDistObject(rk, dst)
		rk.Barrier()
		if rk.Me() == 0 {
			d := dst
			if p.cross {
				d = upcxx.FetchDist[upcxx.GPtr[uint8]](rk, dstObj.ID(), 1).Wait()
			}
			// An untimed copy first: right after the barrier its release
			// message still holds rank 0's NIC, and the timed copy must
			// queue behind nothing.
			upcxx.CopyGG(rk, src, d, n).Wait()
			t0 := rk.Clock()
			upcxx.CopyGG(rk, src, d, n).Wait()
			el = rk.Clock() - t0
		}
		// Free only after every rank's transfers have completed: a
		// cross-rank copy lands in another rank's buffers.
		rk.Barrier()
		_ = upcxx.Delete(rk, src)
		_ = upcxx.Delete(rk, dst)
		rk.Barrier()
	})
	return el
}
