// upcxx-info prints the runtime and conduit configuration: the machine
// models available to the benchmark drivers, their calibrated parameters,
// and a small self-test of the runtime (a hello-world epoch over a few
// ranks).
//
// Usage:
//
//	go run ./cmd/upcxx-info
//
// With UPCXX_CONDUIT=tcp|shm the self-test epoch runs as real OS-process
// ranks (UPCXX_NPROC controls the count, default 4) and the report adds
// the live conduit identity — backend, peer addresses, shm segment size —
// plus rank 0's wire counters. With the runtime's own switches,
// UPCXX_STATS=1 UPCXX_TRACE=1, the report ends with every rank's counter
// table merged, transport counters included (over a real conduit through a
// rank-0 RPC gather), and a sample op timeline.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"

	"upcxx"
	"upcxx/internal/expmodel"
	"upcxx/internal/gasnet"
	"upcxx/internal/mpi"
	"upcxx/internal/obs"
)

func describeLogGP(name string, m *gasnet.LogGP) {
	fmt.Printf("%s conduit model:\n", name)
	fmt.Printf("  inter-node: o=%v  L=%v  g=%v  G=%.3f ns/B (%.1f GB/s)\n",
		m.O, m.L, m.Gp, m.GNsPerB, 1.0/m.GNsPerB)
	fmt.Printf("  intra-node: o=%v  L=%v  g=%v  G=%.3f ns/B (%.1f GB/s)\n",
		m.IntraO, m.IntraL, m.IntraGp, m.IntraGNsPerB, 1.0/m.IntraGNsPerB)
}

func describeConduit(ci upcxx.ConduitInfo) {
	fmt.Printf("\nactive conduit: %s (%d ranks)\n", ci.Backend, ci.Ranks)
	for r, a := range ci.PeerAddrs {
		if a == "" {
			continue
		}
		fmt.Printf("  rank %d: %s\n", r, a)
	}
	if ci.ShmSegBytes > 0 {
		fmt.Printf("  shm data segments: %d B per rank (mmap, doorbell rings)\n", ci.ShmSegBytes)
	}
	fmt.Printf("  wire: %d frames out / %d in, %d B out / %d B in\n",
		ci.FramesOut, ci.FramesIn, ci.BytesOut, ci.BytesIn)
	if ci.Backend == "shm" {
		fmt.Printf("  rings: %d records, %d doorbells, %d socket fallbacks\n",
			ci.RingRecords, ci.RingDoorbells, ci.SocketFallbacks)
	}
}

func main() {
	flag.Parse() // it declares none: a stale flag fails instead of being ignored
	// Over a real conduit this whole main runs in the parent launcher and
	// again in every rank process; the static model report prints once.
	headline := !upcxx.DistActive() || os.Getenv("UPCXX_RANK") == "0"
	if headline {
		fmt.Printf("upcxx-go — reproduction of UPC++ (IPDPS 2019) — Go %s, GOMAXPROCS=%d\n\n",
			runtime.Version(), runtime.GOMAXPROCS(0))

		describeLogGP("Aries (Cori Haswell)", gasnet.Aries())
		describeLogGP("Aries (Cori KNL)", gasnet.AriesKNL())

		p := mpi.DefaultProtocol()
		fmt.Printf("\nMPI protocol model (Cray-MPICH-calibrated):\n")
		fmt.Printf("  eager max %d B, send/recv/match overheads %v/%v/%v\n",
			p.EagerMax, p.SendOverhead, p.RecvOverhead, p.MatchCost)
		fmt.Printf("  RMA put base %v, flush %v (+%v sync >=256B), FMA bands %v @ %v ns/B\n",
			p.RMAPutBase, p.RMAFlushBase, p.RMAFlushSync, p.Knees, p.NsPerB)

		for _, m := range []expmodel.Machine{expmodel.Haswell(), expmodel.KNL()} {
			fmt.Printf("\n%s: %d ranks/node, CPU scale %.1fx, %.2g s/flop\n",
				m.Name, m.RanksPerNode, m.CPUScale, m.FlopSecs)
			fmt.Printf("  modeled blocking rput(8B) RTT: %.2f us; flood BW(1MB): %.2f GB/s\n",
				m.UPCXXPutLatency(8)*1e6, m.UPCXXFloodBW(1<<20)/1e9)
		}

		fmt.Printf("\nruntime self-test: ")
	}
	var (
		sum      int64
		snap     obs.Snapshot
		haveSnap bool
		ci       upcxx.ConduitInfo
		report   bool
	)
	upcxx.RunConfig(upcxx.Config{Ranks: 4},
		func(rk *upcxx.Rank) {
			got := upcxx.AllReduce(rk.WorldTeam(), int64(rk.Me())+1,
				func(a, b int64) int64 { return a + b }).Wait()
			rk.Barrier()
			if rk.Me() == 0 {
				sum = got
				report = true
				ci = rk.World().Network().ConduitInfo()
				if rk.StatsEnabled() {
					// Merges in-process worlds locally; over a real conduit
					// this gathers every sibling process's snapshot by RPC.
					snap = rk.World().StatsMergedDist(rk)
					haveSnap = true
				}
			}
			rk.Barrier()
		})
	if !report {
		return // non-zero rank process of a real-conduit job
	}
	fmt.Printf("allreduce over %d ranks = %d (want %d)\n",
		ci.Ranks, sum, int64(ci.Ranks)*int64(ci.Ranks+1)/2)
	if ci.Backend != "model" {
		describeConduit(ci)
	} else {
		fmt.Printf("\nactive conduit: model (in-process; set UPCXX_CONDUIT=tcp|shm for OS-process ranks)\n")
	}
	if haveSnap {
		fmt.Println()
		obs.Fprint(os.Stdout, snap)
	}
}
