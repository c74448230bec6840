// Benchmarks regenerating the measured quantity behind every figure of
// the paper's evaluation (one benchmark family per figure; see DESIGN.md
// §3 and EXPERIMENTS.md for the full sweeps produced by the cmd/ tools).
//
// Real-runtime benchmarks run on the zero-delay conduit, so they measure
// the software path of this implementation (injection, progress,
// serialization, matching) rather than the modeled wire; the model
// benchmarks evaluate the calibrated machine models used for the
// at-scale figures.
package upcxx_test

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"upcxx"
	"upcxx/internal/dht"
	"upcxx/internal/expmodel"
	"upcxx/internal/matgen"
	"upcxx/internal/mpi"
	"upcxx/internal/sparse"
)

// --- Fig 3a: blocking put latency (software path) ---------------------

func benchRPutLatency(b *testing.B, size int) {
	w := upcxx.NewWorld(upcxx.Config{Ranks: 2, SegmentSize: 64 << 20})
	defer w.Close()
	w.Run(func(rk *upcxx.Rank) {
		var dst upcxx.GPtr[uint8]
		if rk.Me() == 1 {
			dst = upcxx.MustNewArray[uint8](rk, size)
		}
		obj := upcxx.NewDistObject(rk, dst)
		rk.Barrier()
		if rk.Me() == 0 {
			dst = upcxx.FetchDist[upcxx.GPtr[uint8]](rk, obj.ID(), 1).Wait()
			src := make([]uint8, size)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				upcxx.RPut(rk, src, dst).Wait()
			}
			b.StopTimer()
			b.SetBytes(int64(size))
		}
		rk.Barrier()
	})
}

func BenchmarkFig3aRPut8B(b *testing.B)   { benchRPutLatency(b, 8) }
func BenchmarkFig3aRPut1KB(b *testing.B)  { benchRPutLatency(b, 1<<10) }
func BenchmarkFig3aRPut64KB(b *testing.B) { benchRPutLatency(b, 64<<10) }

func benchMPIPutFlush(b *testing.B, size int) {
	w := mpi.NewWorld(mpi.Config{Ranks: 2, SegmentSize: 64 << 20})
	defer w.Close()
	w.Run(func(p *mpi.Proc) {
		win := mpi.CreateWin(p, size)
		p.Barrier()
		if p.Rank() == 0 {
			src := make([]byte, size)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				win.Put(src, 1, 0)
				win.Flush(1)
			}
			b.StopTimer()
			b.SetBytes(int64(size))
		}
		p.Barrier()
	})
}

func BenchmarkFig3aMPIPut8B(b *testing.B)  { benchMPIPutFlush(b, 8) }
func BenchmarkFig3aMPIPut1KB(b *testing.B) { benchMPIPutFlush(b, 1<<10) }

// --- Fig 3b: flood bandwidth (software path) ---------------------------

func BenchmarkFig3bRPutFlood4KB(b *testing.B) {
	const size = 4 << 10
	w := upcxx.NewWorld(upcxx.Config{Ranks: 2, SegmentSize: 64 << 20})
	defer w.Close()
	w.Run(func(rk *upcxx.Rank) {
		var dst upcxx.GPtr[uint8]
		if rk.Me() == 1 {
			dst = upcxx.MustNewArray[uint8](rk, size)
		}
		obj := upcxx.NewDistObject(rk, dst)
		rk.Barrier()
		if rk.Me() == 0 {
			dst = upcxx.FetchDist[upcxx.GPtr[uint8]](rk, obj.ID(), 1).Wait()
			src := make([]uint8, size)
			b.ResetTimer()
			p := upcxx.NewPromise[upcxx.Unit](rk)
			for i := 0; i < b.N; i++ {
				upcxx.RPutPromise(rk, src, dst, p)
				if i%10 == 0 {
					rk.Progress()
				}
			}
			p.Finalize().Wait()
			b.StopTimer()
			b.SetBytes(size)
		}
		rk.Barrier()
	})
}

// --- Fig 3 model evaluation --------------------------------------------

func BenchmarkFig3Model(b *testing.B) {
	m := expmodel.Haswell()
	for i := 0; i < b.N; i++ {
		for _, n := range expmodel.Fig3Sizes() {
			_ = m.UPCXXPutLatency(n)
			_ = m.MPIPutLatency(n)
			_ = m.UPCXXFloodBW(n)
			_ = m.MPIFloodBW(n)
		}
	}
}

// --- Fig 4: DHT insertion ------------------------------------------------

func benchDHTInsert(b *testing.B, mode dht.Mode, valSize int) {
	w := upcxx.NewWorld(upcxx.Config{Ranks: 4, SegmentSize: 256 << 20})
	defer w.Close()
	var rate float64
	w.Run(func(rk *upcxx.Rank) {
		d := dht.New(rk, mode)
		rk.Barrier()
		if rk.Me() == 0 {
			val := make([]byte, valSize)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d.Insert(uint64(i)*2654435761, val).Wait()
			}
			b.StopTimer()
			rate = float64(b.N)
		}
		rk.Barrier()
	})
	_ = rate
	b.SetBytes(int64(valSize))
}

func BenchmarkFig4InsertRPCOnly64B(b *testing.B)     { benchDHTInsert(b, dht.RPCOnly, 64) }
func BenchmarkFig4InsertLandingZone4KB(b *testing.B) { benchDHTInsert(b, dht.LandingZone, 4<<10) }

func BenchmarkFig4SerialBaseline(b *testing.B) {
	res := dht.RunSerialBench(dht.BenchConfig{ElemSize: 4 << 10, VolumePerRank: (4 << 10) * b.N, Seed: 1})
	b.ReportMetric(res.InsertsPerSec(), "inserts/s")
}

func BenchmarkFig4Model1024Procs(b *testing.B) {
	m := expmodel.Haswell()
	for i := 0; i < b.N; i++ {
		expmodel.SimulateDHT(expmodel.DHTConfig{
			M: m, P: 1024, ElemSize: 2048, InsertsPerRank: 32, Seed: uint64(i),
		})
	}
}

// --- Fig 8: extend-add ----------------------------------------------------

var fig8Tree *sparse.FrontTree

func fig8BenchPlan(p int) *sparse.EAddPlan {
	if fig8Tree == nil {
		prob := matgen.Generate("bench", matgen.Grid3D{NX: 10, NY: 10, NZ: 10}, 16)
		fig8Tree = sparse.Amalgamate(sparse.BuildFrontTree(prob.A, 0), 0.3)
	}
	return sparse.NewEAddPlan(fig8Tree, p, 8)
}

func BenchmarkFig8EAddUPCXX(b *testing.B) {
	plan := fig8BenchPlan(4)
	for i := 0; i < b.N; i++ {
		w := upcxx.NewWorld(upcxx.Config{Ranks: 4, SegmentSize: 64 << 20})
		w.Run(func(rk *upcxx.Rank) {
			_, _ = sparse.EAddUPCXX(rk, plan)
		})
		w.Close()
	}
	b.ReportMetric(float64(plan.TotalEntries), "entries")
}

func BenchmarkFig8EAddMPIAlltoallv(b *testing.B) {
	plan := fig8BenchPlan(4)
	for i := 0; i < b.N; i++ {
		w := mpi.NewWorld(mpi.Config{Ranks: 4, SegmentSize: 64 << 20})
		w.Run(func(p *mpi.Proc) {
			_, _ = sparse.EAddMPIAlltoallv(p, plan)
		})
		w.Close()
	}
}

func BenchmarkFig8EAddMPIP2P(b *testing.B) {
	plan := fig8BenchPlan(4)
	for i := 0; i < b.N; i++ {
		w := mpi.NewWorld(mpi.Config{Ranks: 4, SegmentSize: 64 << 20})
		w.Run(func(p *mpi.Proc) {
			_, _ = sparse.EAddMPIP2P(p, plan)
		})
		w.Close()
	}
}

func BenchmarkFig8Model256Procs(b *testing.B) {
	plan := fig8BenchPlan(256)
	m := expmodel.Haswell()
	for i := 0; i < b.N; i++ {
		_ = expmodel.SimulateEAddUPCXX(m, plan)
		_ = expmodel.SimulateEAddA2A(m, plan)
		_ = expmodel.SimulateEAddP2P(m, plan)
	}
}

// --- Fig 9: mini-symPACK ----------------------------------------------------

func benchChol(b *testing.B, variant string) {
	prob := matgen.Generate("cholbench", matgen.Grid3D{NX: 6, NY: 6, NZ: 6}, 8)
	tree := sparse.Amalgamate(sparse.BuildFrontTree(prob.A, 0), 0.3)
	plan := sparse.NewCholPlan(prob.A, tree, 4)
	for i := 0; i < b.N; i++ {
		w := upcxx.NewWorld(upcxx.Config{Ranks: 4, SegmentSize: 128 << 20})
		w.Run(func(rk *upcxx.Rank) {
			if variant == "v1" {
				_ = sparse.CholV1(rk, plan)
			} else {
				_ = sparse.CholV01(rk, plan)
			}
		})
		w.Close()
	}
}

func BenchmarkFig9CholV1(b *testing.B)  { benchChol(b, "v1") }
func BenchmarkFig9CholV01(b *testing.B) { benchChol(b, "v01") }

func BenchmarkFig9Model(b *testing.B) {
	prob := matgen.Generate("f9m", matgen.Grid3D{NX: 8, NY: 8, NZ: 8}, 16)
	tree := sparse.Amalgamate(sparse.BuildFrontTree(prob.A, 0), 0.3)
	m := expmodel.Haswell()
	for i := 0; i < b.N; i++ {
		_ = expmodel.SimulateSymPACK(m, tree, 64, expmodel.V1)
		_ = expmodel.SimulateSymPACK(m, tree, 64, expmodel.V01)
	}
}

// --- runtime primitives (supporting microbenchmarks) ---------------------

func benchEcho(trk *upcxx.Rank, x int64) int64 { return x + 1 }

func init() { upcxx.RegisterRPC(benchEcho) }

// BenchmarkRPCRoundTrip times a blocking RPC of a registered function, the
// form every program and the committed benchmark's rpc_lat_us use, and
// apart from it an unregistered closure, which builds its body and token
// per call.
func BenchmarkRPCRoundTrip(b *testing.B) {
	for _, c := range []struct {
		name string
		fn   func(*upcxx.Rank, int64) int64
	}{
		{"registered", benchEcho},
		{"closure", func(trk *upcxx.Rank, x int64) int64 { return x + 1 }},
	} {
		b.Run(c.name, func(b *testing.B) {
			w := upcxx.NewWorld(upcxx.Config{Ranks: 2})
			defer w.Close()
			w.Run(func(rk *upcxx.Rank) {
				if rk.Me() == 0 {
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						upcxx.RPC(rk, 1, c.fn, int64(i)).Wait()
					}
					b.StopTimer()
				}
				rk.Barrier()
			})
		})
	}
}

func BenchmarkRPCFFThroughput(b *testing.B) {
	w := upcxx.NewWorld(upcxx.Config{Ranks: 2})
	defer w.Close()
	w.Run(func(rk *upcxx.Rank) {
		if rk.Me() == 0 {
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				upcxx.RPCFF(rk, 1, func(trk *upcxx.Rank, x int64) {}, int64(i))
			}
			b.StopTimer()
		}
		rk.Barrier()
	})
}

func BenchmarkAtomicFetchAdd(b *testing.B) {
	w := upcxx.NewWorld(upcxx.Config{Ranks: 2})
	defer w.Close()
	w.Run(func(rk *upcxx.Rank) {
		var cell upcxx.GPtr[uint64]
		if rk.Me() == 1 {
			cell = upcxx.MustNewArray[uint64](rk, 1)
		}
		obj := upcxx.NewDistObject(rk, cell)
		rk.Barrier()
		if rk.Me() == 0 {
			cell = upcxx.FetchDist[upcxx.GPtr[uint64]](rk, obj.ID(), 1).Wait()
			ad := upcxx.NewAtomicU64(rk)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ad.FetchAdd(cell, 1).Wait()
			}
			b.StopTimer()
		}
		rk.Barrier()
	})
}

// BenchmarkBarrier8Ranks times a world barrier at 8 ranks and at 2, the
// committed benchmark's shape; allocs/op counts every rank's heap objects,
// what TestRPCAllocPins pins for 2 ranks.
func BenchmarkBarrier8Ranks(b *testing.B) {
	for _, n := range []int{8, 2} {
		b.Run(fmt.Sprintf("ranks=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			w := upcxx.NewWorld(upcxx.Config{Ranks: n})
			defer w.Close()
			w.Run(func(rk *upcxx.Rank) {
				if rk.Me() == 0 {
					b.ResetTimer()
				}
				for i := 0; i < b.N; i++ {
					rk.Barrier()
				}
			})
		})
	}
}

func BenchmarkViewSerializationRPC(b *testing.B) {
	for _, n := range []int{128, 4096} {
		b.Run(fmt.Sprintf("floats=%d", n), func(b *testing.B) {
			w := upcxx.NewWorld(upcxx.Config{Ranks: 2})
			defer w.Close()
			w.Run(func(rk *upcxx.Rank) {
				if rk.Me() == 0 {
					data := make([]float64, n)
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						upcxx.RPC(rk, 1, func(trk *upcxx.Rank, v upcxx.View[float64]) int {
							return v.Len()
						}, upcxx.MakeView(data)).Wait()
					}
					b.StopTimer()
					b.SetBytes(int64(8 * n))
				}
				rk.Barrier()
			})
		})
	}
}

// --- personas: self-progress vs dedicated progress thread -----------------
//
// Four user goroutines per rank flood the peer with RPCs (or RPuts),
// each waiting on its own persona's completions. Incoming RPCs execute
// on the rank's master persona in self-progress mode — so the master
// goroutine polls Progress while its users flood, the classic
// main-thread-as-poller structure — and on the dedicated progress
// persona in progress-thread mode, where the master goroutine idles
// and the progress goroutine serves. ns/op is per operation completed
// at rank 0.

const benchPersonaUsers = 4

func benchPersonaRPCFlood(b *testing.B, progressThread bool) {
	w := upcxx.NewWorld(upcxx.Config{Ranks: 2, ProgressThread: progressThread})
	defer w.Close()
	w.Run(func(rk *upcxx.Rank) {
		peer := (rk.Me() + 1) % rk.N()
		rk.Barrier()
		if rk.Me() == 0 {
			b.ResetTimer()
		}
		var done atomic.Bool
		var wg sync.WaitGroup
		per := (b.N + benchPersonaUsers - 1) / benchPersonaUsers
		for u := 0; u < benchPersonaUsers; u++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer upcxx.DetachDefaultPersonas()
				for i := 0; i < per; i++ {
					upcxx.RPC(rk, peer, func(trk *upcxx.Rank, x int) int { return x + 1 }, i).Wait()
				}
			}()
		}
		go func() { wg.Wait(); done.Store(true) }()
		for !done.Load() {
			if progressThread {
				runtime.Gosched() // master idles; the progress thread serves
			} else {
				rk.Progress() // master polls; incoming RPCs run here
			}
		}
		rk.Barrier()
		if rk.Me() == 0 {
			b.StopTimer()
		}
	})
}

func BenchmarkPersonaRPCFloodSelfProgress(b *testing.B)   { benchPersonaRPCFlood(b, false) }
func BenchmarkPersonaRPCFloodProgressThread(b *testing.B) { benchPersonaRPCFlood(b, true) }

func benchPersonaRPutFlood(b *testing.B, progressThread bool) {
	w := upcxx.NewWorld(upcxx.Config{Ranks: 2, ProgressThread: progressThread, SegmentSize: 16 << 20})
	defer w.Close()
	w.Run(func(rk *upcxx.Rank) {
		slab := upcxx.MustNewArray[uint64](rk, benchPersonaUsers)
		obj := upcxx.NewDistObject(rk, slab)
		rk.Barrier()
		peer := (rk.Me() + 1) % rk.N()
		remote := upcxx.FetchDist[upcxx.GPtr[uint64]](rk, obj.ID(), peer).Wait()
		rk.Barrier()
		if rk.Me() == 0 {
			b.ResetTimer()
		}
		var wg sync.WaitGroup
		per := (b.N + benchPersonaUsers - 1) / benchPersonaUsers
		for u := 0; u < benchPersonaUsers; u++ {
			u := u
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer upcxx.DetachDefaultPersonas()
				src := []uint64{0}
				for i := 0; i < per; i++ {
					src[0] = uint64(i)
					upcxx.RPut(rk, src, remote.Add(u)).Wait()
				}
			}()
		}
		wg.Wait()
		rk.Barrier()
		if rk.Me() == 0 {
			b.StopTimer()
			b.SetBytes(8)
		}
	})
}

func BenchmarkPersonaRPutFloodSelfProgress(b *testing.B)   { benchPersonaRPutFlood(b, false) }
func BenchmarkPersonaRPutFloodProgressThread(b *testing.B) { benchPersonaRPutFlood(b, true) }

// --- Signaling put vs put+RPC notification -----------------------------
//
// The halo-exchange pattern: move a block and make the receiver act on
// it. The signaling put delivers data and notification in ONE one-way
// message (remote_cx::as_rpc piggybacks on the transfer); the
// pre-completion-object idiom needs the put's full round trip before the
// initiator may send the (second) notification message. The benchmark
// ping-pongs a notification between two ranks and reports ns per hop; on
// the zero-delay conduit it measures the software-path saving (one
// conduit op instead of put+ack+AM), while cmd/rma-bench -mode signal
// measures the modeled-wire round trip saved (EXPERIMENTS.md §7).

func signalBump(trk *upcxx.Rank, counter upcxx.GPtr[uint64]) {
	upcxx.Local(trk, counter, 1)[0]++
}

func benchNotifyPingPong(b *testing.B, signaling bool) {
	const size = 1 << 10
	w := upcxx.NewWorld(upcxx.Config{Ranks: 2, SegmentSize: 16 << 20})
	defer w.Close()
	w.Run(func(rk *upcxx.Rank) {
		type slots struct {
			Buf upcxx.GPtr[uint64]
			Ctr upcxx.GPtr[uint64]
		}
		mine := slots{
			Buf: upcxx.MustNewArray[uint64](rk, size/8),
			Ctr: upcxx.MustNewArray[uint64](rk, 1),
		}
		obj := upcxx.NewDistObject(rk, mine)
		rk.Barrier()
		peer := (rk.Me() + 1) % 2
		theirs := upcxx.FetchDist[slots](rk, obj.ID(), peer).Wait()
		ctr := upcxx.Local(rk, mine.Ctr, 1)
		src := make([]uint64, size/8)
		rk.Barrier()
		if rk.Me() == 0 {
			b.ResetTimer()
		}
		hop := func() {
			if signaling {
				// Data + notification in one message; nothing to wait on
				// locally — the next event is the peer's reply signal.
				upcxx.RPutSignal(rk, src, theirs.Buf, signalBump, theirs.Ctr)
				return
			}
			// Old idiom: wait out the put's round trip, then notify.
			upcxx.RPut(rk, src, theirs.Buf).Wait()
			upcxx.RPCFF(rk, peer, signalBump, theirs.Ctr)
		}
		for i := 0; i < b.N; i++ {
			if rk.Me() == 0 {
				hop()
			}
			for ctr[0] < uint64(i+1) {
				// Yield on idle progress so the peer rank's goroutine can
				// run on few-core hosts.
				if rk.Progress() == 0 {
					runtime.Gosched()
				}
			}
			if rk.Me() == 1 {
				hop()
			}
		}
		rk.Barrier()
		if rk.Me() == 0 {
			b.StopTimer()
			b.SetBytes(size)
		}
	})
}

func BenchmarkSignalingPutPingPong(b *testing.B) { benchNotifyPingPong(b, true) }
func BenchmarkPutPlusRPCPingPong(b *testing.B)   { benchNotifyPingPong(b, false) }

// BenchmarkDHTInsertSignalingPut completes the Fig 4 family with the
// signaling-put insert strategy (landing zone published at remote
// completion).
func BenchmarkDHTInsertSignalingPut4KB(b *testing.B) {
	benchDHTInsert(b, dht.SignalingPut, 4<<10)
}
