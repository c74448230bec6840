// rma-bench regenerates Fig 3 of the paper: round-trip put latency (3a)
// and flood put bandwidth (3b) for UPC++ rput versus MPI-3 RMA
// (MPI_Put + MPI_Win_flush, passive target), swept over transfer sizes
// from 8 B to 4 MB.
//
// Two evaluation modes are reported side by side:
//
//   - measured: both runtimes execute on the Aries-calibrated conduit (one
//     initiator, one passive target on distinct simulated nodes), timed on
//     the initiator's model clock — the analogue of the paper's IMB-RMA
//     runs, and the same on every run;
//   - model: the closed-form LogGP/protocol model of
//     internal/expmodel, which the measured numbers should track.
//
// A third mode, signal, quantifies the completion-object system's
// signaling put: the time from injecting a put carrying remote_cx::as_rpc
// to the notification running at the target (one one-way message) versus
// the pre-completion-object idiom of a blocking put followed by a
// notification RPC (the put's full round trip plus another one-way
// message) — measured as a notification ping-pong on the Aries conduit,
// next to the closed-form model.
//
// A fourth mode, rpc, compares the three ways RPC v2 moves data plus a
// notification now that RPC rides the single injection path: rpc_ff (one
// one-way message, payload serialized into the RPC), blocking rpc (the
// same message plus a reply round trip), and the signaling put (payload
// as one-sided RMA with the notification piggybacked on the transfer).
//
// Usage:
//
//	go run ./cmd/rma-bench [-mode latency|flood|signal|rpc|both|all]
//	                       [-model-only] [-max-size bytes] [-stats]
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"upcxx/internal/expmodel"
	"upcxx/internal/gasnet"
	"upcxx/internal/mpi"
	"upcxx/internal/obs"
	"upcxx/internal/stats"

	core "upcxx/internal/core"
)

var (
	mode      = flag.String("mode", "both", "latency, flood, signal, rpc, batch, both (latency+flood), or all")
	modelOnly = flag.Bool("model-only", false, "skip the measured runs (fast)")
	maxSize   = flag.Int("max-size", 4<<20, "largest transfer size in bytes")
	withStats = flag.Bool("stats", false, "record runtime stats in every measured world; in rpc mode, print the per-layer small-RPC cost breakdown from the latency histograms and a final merged counter dump")
)

// lastSnap holds the merged job-wide counters of the most recent
// stats-enabled measured world, printed at exit under -stats.
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

// runMeasured runs one two-node measured UPC++ world on the Aries model,
// capturing its merged runtime counters for the -stats dump after the
// body's final barrier.
func runMeasured(seg int, fn func(rk *core.Rank)) {
	core.RunConfig(core.Config{Ranks: 2, RanksPerNode: 1, Model: gasnet.Aries(),
		SegmentSize: seg, Stats: *withStats}, func(rk *core.Rank) {
		fn(rk)
		captureStats(rk)
	})
}

// runMPI runs one two-node MPI job on the Aries model.
func runMPI(seg int, fn func(p *mpi.Proc)) {
	w := mpi.NewWorld(mpi.Config{Ranks: 2, RanksPerNode: 1, Model: gasnet.Aries(), SegmentSize: seg})
	defer w.Close()
	w.Run(fn)
}

// per is the model time elapsed on a clock since t0, in seconds per op.
func per(now, t0 time.Duration, ops int) float64 {
	return (now - t0).Seconds() / float64(ops)
}

func sizes() []int {
	var out []int
	for n := 8; n <= *maxSize; n *= 2 {
		out = append(out, n)
	}
	return out
}

// latencyIters bounds the per-size iteration count so large transfers
// don't dominate wall time.
func latencyIters(size int) int {
	it := (1 << 21) / size
	if it < 6 {
		it = 6
	}
	if it > 200 {
		it = 200
	}
	return it
}

func floodIters(size int) int {
	it := (8 << 20) / size
	if it < 6 {
		it = 6
	}
	if it > 400 {
		it = 400
	}
	return it
}

// measureUPCXXLatency times blocking rputs between two single-rank nodes.
func measureUPCXXLatency(size int) float64 {
	var perOp float64
	runMeasured(16<<20, func(rk *core.Rank) {
		var dst core.GPtr[uint8]
		if rk.Me() == 1 {
			dst = core.MustNewArray[uint8](rk, size)
		}
		obj := core.NewDistObject(rk, dst)
		rk.Barrier()
		if rk.Me() == 0 {
			dst = core.FetchDist[core.GPtr[uint8]](rk, obj.ID(), 1).Wait()
			src := make([]uint8, size)
			iters := latencyIters(size)
			core.RPut(rk, src, dst).Wait() // warm up
			t0 := rk.Clock()
			for i := 0; i < iters; i++ {
				core.RPut(rk, src, dst).Wait()
			}
			perOp = per(rk.Clock(), t0, iters)
		}
		rk.Barrier()
	})
	return perOp
}

// measureUPCXXFlood times the paper's flood loop: non-blocking rputs
// tracked by one promise, with occasional progress.
func measureUPCXXFlood(size int) float64 {
	var bw float64
	runMeasured(32<<20, func(rk *core.Rank) {
		var dst core.GPtr[uint8]
		if rk.Me() == 1 {
			dst = core.MustNewArray[uint8](rk, size)
		}
		obj := core.NewDistObject(rk, dst)
		rk.Barrier()
		if rk.Me() == 0 {
			dst = core.FetchDist[core.GPtr[uint8]](rk, obj.ID(), 1).Wait()
			src := make([]uint8, size)
			iters := floodIters(size)
			p := core.NewPromise[core.Unit](rk)
			t0 := rk.Clock()
			for i := 0; i < iters; i++ {
				core.RPutPromise(rk, src, dst, p)
				if i%10 == 0 {
					rk.Progress()
				}
			}
			p.Finalize().Wait()
			bw = float64(size) / per(rk.Clock(), t0, iters)
		}
		rk.Barrier()
	})
	return bw
}

// await serves progress on rk until its counter reaches v. It waits by
// the idle rule, whose empty passes advance the model clock to the next
// message.
func await(rk *core.Rank, ctr []uint64, v uint64) {
	for ctr[0] < v {
		rk.ProgressWait(time.Millisecond)
	}
}

// pingPong runs a warm-up hop each way, then iters round trips of hop
// between ranks 0 and 1, each side awaiting its counter; rank 0 stores the
// model time per one-way hop in perHop.
func pingPong(rk *core.Rank, ctr []uint64, iters int, hop func(), perHop *float64) {
	if rk.Me() == 0 {
		hop()
	}
	await(rk, ctr, 1)
	if rk.Me() == 1 {
		hop()
	}
	if rk.Me() == 0 {
		await(rk, ctr, 1)
	}
	rk.Barrier()
	t0 := rk.Clock()
	for i := 0; i < iters; i++ {
		if rk.Me() == 0 {
			hop()
		}
		await(rk, ctr, uint64(i+2))
		if rk.Me() == 1 {
			hop()
		}
	}
	if rk.Me() == 0 {
		await(rk, ctr, uint64(iters+1))
		*perHop = per(rk.Clock(), t0, 2*iters)
	}
	rk.Barrier()
}

// measureNotify times one notification hop — data landing plus the
// target-side handler observing it — as a ping-pong between two
// single-rank nodes. signaling selects the remote-cx piggyback; otherwise
// the put+RPC idiom runs (blocking put, then rpc_ff).
func measureNotify(size int, signaling bool) float64 {
	var perHop float64
	runMeasured(16<<20, func(rk *core.Rank) {
		type slots struct {
			Buf core.GPtr[uint8]
			Ctr core.GPtr[uint64]
		}
		mine := slots{
			Buf: core.MustNewArray[uint8](rk, size),
			Ctr: core.MustNewArray[uint64](rk, 1),
		}
		obj := core.NewDistObject(rk, mine)
		rk.Barrier()
		peer := (rk.Me() + 1) % 2
		theirs := core.FetchDist[slots](rk, obj.ID(), peer).Wait()
		src := make([]uint8, size)
		bump := func(trk *core.Rank, c core.GPtr[uint64]) {
			core.Local(trk, c, 1)[0]++
		}
		hop := func() {
			if signaling {
				core.RPutSignal(rk, src, theirs.Buf, bump, theirs.Ctr)
				return
			}
			core.RPut(rk, src, theirs.Buf).Wait()
			core.RPCFF(rk, peer, bump, theirs.Ctr)
		}
		pingPong(rk, core.Local(rk, mine.Ctr, 1), latencyIters(size), hop, &perHop)
	})
	return perHop
}

// rpcHopArgs carries one RPC notification hop's payload: the peer's
// counter to bump plus size value bytes riding as a zero-copy view.
type rpcHopArgs struct {
	Ctr core.GPtr[uint64]
	Val core.View[uint8]
}

func rpcHopBody(trk *core.Rank, a rpcHopArgs) {
	core.Local(trk, a.Ctr, 1)[0]++
}

// measureRPCFF times one rpc_ff notification hop — payload serialized
// into the message, body observing it at the target — as a ping-pong
// between two single-rank nodes (there is no initiator-side completion
// to wait on, exactly like measureNotify's signaling half).
func measureRPCFF(size int) float64 {
	var perHop float64
	runMeasured(16<<20, func(rk *core.Rank) {
		mine := core.MustNewArray[uint64](rk, 1)
		obj := core.NewDistObject(rk, mine)
		rk.Barrier()
		peer := (rk.Me() + 1) % 2
		theirs := core.FetchDist[core.GPtr[uint64]](rk, obj.ID(), peer).Wait()
		val := make([]uint8, size)
		hop := func() {
			core.RPCFF(rk, peer, rpcHopBody, rpcHopArgs{Ctr: theirs, Val: core.MakeView(val)})
		}
		pingPong(rk, core.Local(rk, mine, 1), latencyIters(size), hop, &perHop)
	})
	return perHop
}

// rpcLoop runs a warm-up then latencyIters(size) blocking rpcs carrying
// size payload bytes and returning a small acknowledgment, from rank 0 to
// rank 1, on the Aries model or (model nil) the zero-delay conduit, and
// hands rank 0 and its model time per call to done.
func rpcLoop(size int, model *gasnet.LogGP, stats bool, done func(rk *core.Rank, perOp float64)) {
	iters := latencyIters(size)
	core.RunConfig(core.Config{Ranks: 2, RanksPerNode: 1, Model: model,
		SegmentSize: 16 << 20, Stats: stats}, func(rk *core.Rank) {
		mine := core.MustNewArray[uint64](rk, 1)
		obj := core.NewDistObject(rk, mine)
		rk.Barrier()
		if rk.Me() == 0 {
			theirs := core.FetchDist[core.GPtr[uint64]](rk, obj.ID(), 1).Wait()
			val := make([]uint8, size)
			call := func() {
				core.RPC(rk, 1, func(trk *core.Rank, a rpcHopArgs) uint64 {
					c := core.Local(trk, a.Ctr, 1)
					c[0]++
					return c[0]
				}, rpcHopArgs{Ctr: theirs, Val: core.MakeView(val)}).Wait()
			}
			call() // warm up
			t0 := rk.Clock()
			for i := 0; i < iters; i++ {
				call()
			}
			done(rk, per(rk.Clock(), t0, iters))
		}
		rk.Barrier()
		captureStats(rk)
	})
}

// measureRPCRoundTrip times a blocking rpc carrying size payload bytes and
// returning a small acknowledgment.
func measureRPCRoundTrip(size int) float64 {
	var perOp float64
	rpcLoop(size, gasnet.Aries(), *withStats, func(_ *core.Rank, p float64) { perOp = p })
	return perOp
}

// rpcBreakdown is the per-layer cost split of one blocking RPC: the
// runtime's latency histograms split the round trip at the
// remote-landing edge of the request message.
type rpcBreakdown struct {
	reqUS   float64 // inject → request landing at the target
	replyUS float64 // remote execution + reply crossing + completion delivery
}

// measureRPCBreakdown reruns the blocking-RPC loop with runtime stats
// forced on and reads rank 0's — the initiator's — latency histograms:
// the mean inject→landing of KindRPC is the request leg, and mean
// inject→complete minus that is everything after the request lands
// (remote body, reply crossing, completion delivery). The histograms keep
// wall-clock stamps, so the loop runs on the zero-delay conduit, where
// wall-clock time is the runtime's own software path.
func measureRPCBreakdown(size int) rpcBreakdown {
	var out rpcBreakdown
	rpcLoop(size, nil, true, func(rk *core.Rank, _ float64) {
		s := rk.Stats()
		land := s.HistMean(obs.HistLand, obs.KindRPC)
		done := s.HistMean(obs.HistDone, obs.KindRPC)
		out.reqUS = land / 1e3
		out.replyUS = (done - land) / 1e3
	})
	return out
}

// bumpCounter is the small-RPC body of the batch throughput sweep.
func bumpCounter(trk *core.Rank, c core.GPtr[uint64]) uint64 {
	cc := core.Local(trk, c, 1)
	cc[0]++
	return cc[0]
}

// measureBatchRPCRate times pipelined small-message RPC throughput with
// requests coalesced into batchSize-entry wire messages: total round-trip
// RPCs flushed every batchSize, every flush's operation completion on one
// promise, finalized at the end — the flood idiom over the batched
// datapath. Returns ops per model second.
func measureBatchRPCRate(batchSize, total int) float64 {
	var rate float64
	runMeasured(16<<20, func(rk *core.Rank) {
		mine := core.MustNewArray[uint64](rk, 1)
		obj := core.NewDistObject(rk, mine)
		rk.Barrier()
		if rk.Me() == 0 {
			theirs := core.FetchDist[core.GPtr[uint64]](rk, obj.ID(), 1).Wait()
			b := core.NewBatch(rk, 1)
			// Warm-up batch.
			core.BatchRPC(b, bumpCounter, theirs)
			b.Flush(core.OpCxAsFuture()).Op.Wait()
			done := core.NewPromise[core.Unit](rk)
			t0 := rk.Clock()
			for i := 0; i < total; i++ {
				core.BatchRPC(b, bumpCounter, theirs)
				if b.Len() >= batchSize {
					b.Flush(core.OpCxAsPromise(done))
					rk.Progress()
				}
			}
			if b.Len() > 0 {
				b.Flush(core.OpCxAsPromise(done))
			}
			done.Finalize().Wait()
			rate = 1 / per(rk.Clock(), t0, total)
		}
		rk.Barrier()
	})
	return rate
}

// measurePerAMRate is the un-batched floor of the same loop: one wire
// message per RPC (plus one per reply), pipelined on a single promise.
func measurePerAMRate(total int) float64 {
	var rate float64
	runMeasured(16<<20, func(rk *core.Rank) {
		mine := core.MustNewArray[uint64](rk, 1)
		obj := core.NewDistObject(rk, mine)
		rk.Barrier()
		if rk.Me() == 0 {
			theirs := core.FetchDist[core.GPtr[uint64]](rk, obj.ID(), 1).Wait()
			core.RPC(rk, 1, bumpCounter, theirs).Wait() // warm up
			done := core.NewPromise[core.Unit](rk)
			t0 := rk.Clock()
			for i := 0; i < total; i++ {
				core.RPCWith(rk, 1, bumpCounter, theirs, core.OpCxAsPromise(done))
				if i%10 == 0 {
					rk.Progress()
				}
			}
			done.Finalize().Wait()
			rate = 1 / per(rk.Clock(), t0, total)
		}
		rk.Barrier()
	})
	return rate
}

// measureMPILatency times MPI_Put + MPI_Win_flush per operation.
func measureMPILatency(size int) float64 {
	var perOp float64
	runMPI(16<<20, func(p *mpi.Proc) {
		win := mpi.CreateWin(p, size)
		p.Barrier()
		if p.Rank() == 0 {
			src := make([]byte, size)
			iters := latencyIters(size)
			win.Put(src, 1, 0)
			win.Flush(1)
			t0 := p.Clock()
			for i := 0; i < iters; i++ {
				win.Put(src, 1, 0)
				win.Flush(1)
			}
			perOp = per(p.Clock(), t0, iters)
		}
		p.Barrier()
	})
	return perOp
}

// measureMPIFlood times the IMB-style aggregate mode: many puts, one
// flush.
func measureMPIFlood(size int) float64 {
	var bw float64
	runMPI(32<<20, func(p *mpi.Proc) {
		win := mpi.CreateWin(p, size)
		p.Barrier()
		if p.Rank() == 0 {
			src := make([]byte, size)
			iters := floodIters(size)
			t0 := p.Clock()
			for i := 0; i < iters; i++ {
				win.Put(src, 1, 0)
			}
			win.Flush(1)
			bw = float64(size) / per(p.Clock(), t0, iters)
		}
		p.Barrier()
	})
	return bw
}

func main() {
	flag.Parse()
	m := expmodel.Haswell()

	if *mode == "latency" || *mode == "both" || *mode == "all" {
		t := &stats.Table{
			Title:  "Fig 3a — round-trip put latency, us (Cori Haswell model; lower is better)",
			XLabel: "size",
			XFmt:   func(v float64) string { return stats.BytesHuman(int(v)) },
			YFmt:   func(v float64) string { return fmt.Sprintf("%.2f", v) },
		}
		up := &stats.Series{Name: "UPC++ (model)"}
		mp := &stats.Series{Name: "MPI RMA (model)"}
		var upM, mpM *stats.Series
		if !*modelOnly {
			upM = &stats.Series{Name: "UPC++ (measured)"}
			mpM = &stats.Series{Name: "MPI RMA (measured)"}
		}
		for _, n := range sizes() {
			up.Add(float64(n), m.UPCXXPutLatency(n)*1e6)
			mp.Add(float64(n), m.MPIPutLatency(n)*1e6)
			if !*modelOnly {
				upM.Add(float64(n), measureUPCXXLatency(n)*1e6)
				mpM.Add(float64(n), measureMPILatency(n)*1e6)
			}
		}
		t.Series = []*stats.Series{up, mp}
		if !*modelOnly {
			t.Series = append(t.Series, upM, mpM)
		}
		t.Fprint(os.Stdout)
		fmt.Println()
	}

	if *mode == "signal" || *mode == "all" {
		t := &stats.Table{
			Title:  "Signaling put vs put+RPC — notification latency, us (Cori Haswell model; lower is better)",
			XLabel: "size",
			XFmt:   func(v float64) string { return stats.BytesHuman(int(v)) },
			YFmt:   func(v float64) string { return fmt.Sprintf("%.2f", v) },
		}
		sg := &stats.Series{Name: "signaling put (model)"}
		pr := &stats.Series{Name: "put+RPC (model)"}
		var sgM, prM *stats.Series
		if !*modelOnly {
			sgM = &stats.Series{Name: "signaling put (measured)"}
			prM = &stats.Series{Name: "put+RPC (measured)"}
		}
		for _, n := range sizes() {
			sg.Add(float64(n), m.SignalNotifyLatency(n)*1e6)
			pr.Add(float64(n), m.PutRPCNotifyLatency(n)*1e6)
			if !*modelOnly {
				sgM.Add(float64(n), measureNotify(n, true)*1e6)
				prM.Add(float64(n), measureNotify(n, false)*1e6)
			}
		}
		t.Series = []*stats.Series{sg, pr}
		if !*modelOnly {
			t.Series = append(t.Series, sgM, prM)
		}
		t.Fprint(os.Stdout)
		fmt.Println()
		rtt := m.UPCXXPutLatency(8) * 1e6
		fmt.Printf("saved per notification vs put+RPC: the put's full round trip (~%.2f us at 8 B) —\n", rtt)
		fmt.Println("the remote-cx AM piggybacks on the transfer and costs no extra wire message.")
		fmt.Println()
	}

	if *mode == "rpc" || *mode == "all" {
		t := &stats.Table{
			Title:  "RPC v2 — ff vs round-trip vs signaling-put notification latency, us (Cori Haswell model; lower is better)",
			XLabel: "size",
			XFmt:   func(v float64) string { return stats.BytesHuman(int(v)) },
			YFmt:   func(v float64) string { return fmt.Sprintf("%.2f", v) },
		}
		ff := &stats.Series{Name: "rpc_ff (model)"}
		rt := &stats.Series{Name: "rpc round-trip (model)"}
		sp := &stats.Series{Name: "signaling put (model)"}
		var ffM, rtM, spM *stats.Series
		if !*modelOnly {
			ffM = &stats.Series{Name: "rpc_ff (measured)"}
			rtM = &stats.Series{Name: "rpc round-trip (measured)"}
			spM = &stats.Series{Name: "signaling put (measured)"}
		}
		for _, n := range sizes() {
			ff.Add(float64(n), m.RPCFFNotifyLatency(n)*1e6)
			rt.Add(float64(n), m.RPCRoundTripLatency(n)*1e6)
			sp.Add(float64(n), m.SignalNotifyLatency(n)*1e6)
			if !*modelOnly {
				ffM.Add(float64(n), measureRPCFF(n)*1e6)
				rtM.Add(float64(n), measureRPCRoundTrip(n)*1e6)
				spM.Add(float64(n), measureNotify(n, true)*1e6)
			}
		}
		t.Series = []*stats.Series{ff, rt, sp}
		if !*modelOnly {
			t.Series = append(t.Series, ffM, rtM, spM)
		}
		t.Fprint(os.Stdout)
		fmt.Println()
		fmt.Println("rpc_ff and the signaling put are both one one-way message; the signaling put wins at")
		fmt.Println("size because the payload moves as RMA (no serialization on the handler path), while")
		fmt.Println("the round-trip rpc pays one extra wire crossing for its reply.")
		fmt.Println()

		if *withStats && !*modelOnly {
			bt := &stats.Table{
				Title:  "RPC per-layer breakdown — runtime latency histograms on the zero-delay conduit, wall-clock us",
				XLabel: "size",
				XFmt:   func(v float64) string { return stats.BytesHuman(int(v)) },
				YFmt:   func(v float64) string { return fmt.Sprintf("%.2f", v) },
			}
			req := &stats.Series{Name: "inject→landing (request)"}
			rep := &stats.Series{Name: "landing→complete (exec+reply)"}
			sum := &stats.Series{Name: "hist sum"}
			for _, n := range []int{8, 64, 512, 4 << 10} {
				b := measureRPCBreakdown(n)
				req.Add(float64(n), b.reqUS)
				rep.Add(float64(n), b.replyUS)
				sum.Add(float64(n), b.reqUS+b.replyUS)
			}
			bt.Series = []*stats.Series{req, rep, sum}
			bt.Fprint(os.Stdout)
			fmt.Println()
			fmt.Println("hist sum is the initiator histograms' inject→complete mean: the runtime's software path")
			fmt.Println("for one blocking RPC, which the model tables above leave out.")
			fmt.Println()
		}
	}

	if *mode == "batch" || *mode == "all" {
		t := &stats.Table{
			Title:  "Batched RPC — small-message throughput vs per-AM floor, Mops/s (Aries model; higher is better)",
			XLabel: "batch",
			XFmt:   func(v float64) string { return fmt.Sprintf("%d", int(v)) },
			YFmt:   func(v float64) string { return fmt.Sprintf("%.3f", v) },
		}
		aries := gasnet.Aries()
		perMsg := (aries.O + aries.Gp).Seconds()
		bm := &stats.Series{Name: "batched rpc (model, 2 msgs / B ops)"}
		fm := &stats.Series{Name: "per-AM floor (model, 1/(o+g))"}
		// The measured sweep is a few thousand 8-byte operations — cheap
		// enough to run even under -model-only, which elsewhere gates
		// minute-scale size sweeps.
		bM := &stats.Series{Name: "batched rpc (measured)"}
		fM := &stats.Series{Name: "per-AM floor (measured)"}
		const total = 512
		floor := measurePerAMRate(total)
		for _, bsz := range []int{1, 8, 32, 128} {
			// Closed form: a batch of B round trips costs two injections
			// (request + reply message), amortized over B operations; the
			// un-batched floor pays one injection occupancy per operation.
			// Per-entry costs (framing, marshal, body) are omitted, so the
			// model is an upper bound the measured curve approaches.
			bm.Add(float64(bsz), float64(bsz)/(2*perMsg)/1e6)
			fm.Add(float64(bsz), 1/perMsg/1e6)
			bM.Add(float64(bsz), measureBatchRPCRate(bsz, total)/1e6)
			fM.Add(float64(bsz), floor/1e6)
		}
		t.Series = []*stats.Series{bm, fm, bM, fM}
		t.Fprint(os.Stdout)
		fmt.Println()
		fmt.Println("every wire message pays injection occupancy (o+g) no matter how small; a batch ships")
		fmt.Println("B requests in one message and receives B replies in one, so the per-op share of the")
		fmt.Println("fixed costs falls as 1/B until per-entry work (framing, serialization, body) dominates.")
		fmt.Println()
	}

	if *mode == "flood" || *mode == "both" || *mode == "all" {
		t := &stats.Table{
			Title:  "Fig 3b — flood put bandwidth, GB/s (Cori Haswell model; higher is better)",
			XLabel: "size",
			XFmt:   func(v float64) string { return stats.BytesHuman(int(v)) },
			YFmt:   func(v float64) string { return fmt.Sprintf("%.3f", v) },
		}
		up := &stats.Series{Name: "UPC++ (model)"}
		mp := &stats.Series{Name: "MPI RMA (model)"}
		var upM, mpM *stats.Series
		if !*modelOnly {
			upM = &stats.Series{Name: "UPC++ (measured)"}
			mpM = &stats.Series{Name: "MPI RMA (measured)"}
		}
		for _, n := range sizes() {
			up.Add(float64(n), m.UPCXXFloodBW(n)/1e9)
			mp.Add(float64(n), m.MPIFloodBW(n)/1e9)
			if !*modelOnly {
				upM.Add(float64(n), measureUPCXXFlood(n)/1e9)
				mpM.Add(float64(n), measureMPIFlood(n)/1e9)
			}
		}
		t.Series = []*stats.Series{up, mp}
		if !*modelOnly {
			t.Series = append(t.Series, upM, mpM)
		}
		t.Fprint(os.Stdout)
	}

	if *withStats && haveSnap {
		fmt.Println()
		fmt.Println("runtime stats (merged across ranks, last measured world):")
		obs.Fprint(os.Stdout, lastSnap)
	}
}
