// device-halo: memory kinds + signaling puts in a GPU-style stencil. Each
// rank keeps its slab of a 1D Jacobi iteration resident in *device*
// memory (a DeviceAllocator segment); per iteration each rank *pushes*
// its boundary cells device-to-device into its neighbors' halo slots with
// upcxx.CopyWith carrying a remote_cx::as_rpc descriptor — the signaling
// put. The notification increments a per-iteration arrival counter at the
// target after the bytes are visible in its device segment, so a rank
// starts its relaxation kernel the moment both halos have provably
// landed. No per-iteration barriers and no follow-up notification round
// trips: the paper's halo-exchange idiom, one message per halo.
//
// The job runs on a GPUDirect-capable DMA model, so every cross-rank
// device-to-device halo push takes the *direct* datapath — the NIC
// reads and writes device segments itself, with no staging DMA and no
// host bounce buffer — and the device-resident convergence reduction
// folds its children as fused kernels. The merged runtime counters
// printed at exit pin both: all d2d descriptors are d2d-direct, none
// bounced.
//
// (The previous revision of this example pulled halos with CopyGG and
// synchronized with two barriers per iteration; the signaling-put push
// deletes both.)
//
// Run: go run ./examples/device-halo
package main

import (
	"fmt"
	"math"
	"time"

	"upcxx"
	"upcxx/internal/obs"
)

const (
	ranks = 4
	local = 1 << 10 // interior cells per rank
	iters = 200
)

// arrive runs at the halo's *receiving* rank as the remote completion of
// a neighbor's signaling put: both of this iteration's boundary bytes are
// already visible in the device segment when the counter bumps.
func arrive(trk *upcxx.Rank, counter upcxx.GPtr[uint64]) {
	upcxx.Local(trk, counter, 1)[0]++
}

// Registered by name so the signaling put's remote completion can be
// dispatched in a sibling rank process under a real transport conduit.
func init() { upcxx.RegisterRPCFF(arrive) }

func main() {
	// A GDR-capable DMA engine on the zero-delay conduit: capability
	// decides the datapath (direct vs bounced), timing stays instant.
	cfg := upcxx.Config{Ranks: ranks, Stats: true, DMA: &upcxx.PCIeDMA{GDR: true}}
	upcxx.RunConfig(cfg, func(rk *upcxx.Rank) {
		me, n := rk.Me(), rk.N()
		da := upcxx.NewDeviceAllocator(rk, 4*(local+2)*8)

		// Two device buffers (Jacobi ping-pong), each with halo cells at
		// index 0 and local+1, plus per-iteration arrival counters in host
		// memory (the remote notification writes them at the home rank).
		cur := upcxx.MustNewDeviceArray[float64](da, local+2)
		next := upcxx.MustNewDeviceArray[float64](da, local+2)
		arrivals := upcxx.MustNewArray[uint64](rk, iters)

		// Initialize on the device: a step function, 1.0 on the left
		// half of the global domain (interior cells only; halos are
		// overwritten by the exchange before every use).
		upcxx.RunKernel(da, cur, local+2, func(s []float64) {
			for i := 1; i <= local; i++ {
				if int(me)*local+(i-1) < int(n)*local/2 {
					s[i] = 1.0
				}
			}
		})

		// Publish my buffers and arrival counters; kinds travel with the
		// pointers.
		type slots struct {
			Bufs [2]upcxx.GPtr[float64]
			Arr  upcxx.GPtr[uint64]
		}
		obj := upcxx.NewDistObject(rk, slots{[2]upcxx.GPtr[float64]{cur, next}, arrivals})
		rk.Barrier()

		left, right := (me-1+n)%n, (me+1)%n
		ls := upcxx.FetchDist[slots](rk, obj.ID(), left).Wait()
		rs := upcxx.FetchDist[slots](rk, obj.ID(), right).Wait()

		mine := [2]upcxx.GPtr[float64]{cur, next}
		arr := upcxx.Local(rk, arrivals, iters)
		for it := 0; it < iters; it++ {
			b := it % 2
			src, dst := mine[b], mine[1-b]

			// Push my boundary cells into the neighbors' halo slots of
			// this iteration's buffer — device→device signaling puts. My
			// first interior cell is the left neighbor's right halo; my
			// last is the right neighbor's left halo.
			p := upcxx.NewPromise[upcxx.Unit](rk)
			upcxx.CopyWith(rk, src.Add(1), ls.Bufs[b].Add(local+1), 1,
				upcxx.OpCxAsPromise(p),
				upcxx.RemoteCxAsRPC(arrive, ls.Arr.Add(it)))
			upcxx.CopyWith(rk, src.Add(local), rs.Bufs[b], 1,
				upcxx.OpCxAsPromise(p),
				upcxx.RemoteCxAsRPC(arrive, rs.Arr.Add(it)))

			// Wait for both neighbors' signals: their boundary bytes are
			// in my device halos. The counters are per-iteration, so a
			// fast neighbor working on it+1 can never confuse us.
			for arr[it] < 2 {
				// One progress pass, then a bounded idle-wait — lets
				// neighbor ranks (goroutines or sibling processes) run on
				// few cores instead of spinning against them.
				rk.ProgressWait(50 * time.Microsecond)
			}
			p.Finalize().Wait() // my own pushes have drained too

			// Jacobi relaxation as a device kernel over both buffers.
			upcxx.RunKernel(da, src, local+2, func(s []float64) {
				upcxx.RunKernel(da, dst, local+2, func(d []float64) {
					for i := 1; i <= local; i++ {
						d[i] = 0.5 * (s[i-1] + s[i+1])
					}
				})
			})
		}
		rk.Barrier()

		// Device-resident convergence check: sum my interior into a
		// one-element device buffer with a kernel, then AllReduceBufWith
		// folds the per-rank partials *on the device* — exchange hops are
		// DMA-costed copies and the folds run as kernels, so the payload
		// never bounces through host staging (contrast the old port,
		// which d2h-copied the whole slab and reduced marshaled host
		// values). Only the final scalar crosses to the host, for
		// printing.
		msum := upcxx.MustNewDeviceArray[float64](da, 1)
		upcxx.RunKernel(da, mine[iters%2], local+2, func(s []float64) {
			upcxx.RunKernel(da, msum, 1, func(acc []float64) {
				acc[0] = 0
				for i := 1; i <= local; i++ {
					acc[0] += s[i]
				}
			})
		})
		upcxx.AllReduceBufWith(rk.WorldTeam(), da, msum, 1,
			func(a, b float64) float64 { return a + b }).Op.Wait()
		hostSum := make([]float64, 1)
		upcxx.RGet(rk, msum, hostSum).Wait()
		total := hostSum[0]

		stats := rk.Stats().Counters
		var dmas, dmaBytes uint64
		for k := range obs.NumDMAKinds {
			dmas, dmaBytes = dmas+stats[k.Descriptors()], dmaBytes+stats[k.Bytes()]
		}
		if me == 0 {
			// Mass is conserved by the periodic Jacobi stencil.
			want := float64(int(n) * local / 2)
			fmt.Printf("after %d iters: global mass %.3f (want %.3f, drift %.1e)\n",
				iters, total, want, math.Abs(total-want))
		}
		rk.Barrier()
		fmt.Printf("rank %d: %d DMA descriptors moved %d device bytes; %d AMs (signals ride the puts)\n",
			me, dmas, dmaBytes, stats[obs.AMs])
		rk.Barrier()
		if me == 0 {
			// The GPUDirect pin, from the merged runtime counters: every
			// cross-rank d2d transfer (halo pushes and reduction hops)
			// went NIC↔device, and the device reduction folded its
			// children as fused kernels.
			s := rk.World().StatsMergedDist(rk).Counters
			bounced := s[upcxx.DMAD2DBounced.Descriptors()]
			fmt.Printf("gdr datapath: d2d-direct=%d d2d-bounced=%d; fused folds=%d (%d children)\n",
				s[upcxx.DMAD2DDirect.Descriptors()], bounced, s[obs.FusedFolds], s[obs.FusedChildren])
			if bounced != 0 {
				panic("device-halo: bounced d2d descriptors on a GPUDirect world")
			}
		}

		// Tear the device segment down now that the epoch is over —
		// outstanding device pointers are poisoned from here on.
		rk.Barrier()
		upcxx.CloseDeviceAllocator(da)
	})
}
