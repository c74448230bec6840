// rma-bench regenerates Fig 3 of the paper: round-trip put latency (3a)
// and flood put bandwidth (3b) for UPC++ rput versus MPI-3 RMA
// (MPI_Put + MPI_Win_flush, passive target), swept over transfer sizes
// from 8 B to 4 MB.
//
// Every table sets two kinds of column side by side:
//
//   - measured: the runtimes execute on the Aries-calibrated conduit (one
//     initiator, one passive target on distinct simulated nodes), timed on
//     the initiator's model clock — the analogue of the paper's IMB-RMA
//     runs;
//   - model: the closed-form LogGP/protocol model of
//     internal/expmodel, which the measured numbers should track.
//
// Between Fig 3a and 3b come three more tables. The signaling put: the time
// from injecting a put carrying remote_cx::as_rpc to the notification
// running at the target (one one-way message) versus a blocking put
// followed by a notification RPC (the put's full round trip plus another
// one-way message), measured as a notification ping-pong. RPC v2: rpc_ff
// (one one-way message, payload serialized into the RPC), blocking rpc (the
// same message plus a reply round trip) and the signaling put (payload as
// one-sided RMA with the notification piggybacked on the transfer). Batched
// RPC: small-message throughput against the per-AM floor.
//
// Every run prints the same bytes, a function of the code alone; the golden
// test (main_test.go) pins them against testdata/figure.golden.
//
// Usage:
//
//	go run ./cmd/rma-bench
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"upcxx/internal/expmodel"
	"upcxx/internal/gasnet"
	"upcxx/internal/mpi"
	"upcxx/internal/stats"

	"upcxx"
)

// maxSize is the largest transfer size swept, in bytes.
const maxSize = 4 << 20

// runMeasured runs one two-node measured UPC++ world on the Aries model.
func runMeasured(seg int, fn func(rk *upcxx.Rank)) {
	upcxx.RunConfig(upcxx.Config{Ranks: 2, RanksPerNode: 1, Model: gasnet.Aries(), SegmentSize: seg}, fn)
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
	for n := 8; n <= maxSize; n *= 2 {
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
	runMeasured(16<<20, func(rk *upcxx.Rank) {
		var dst upcxx.GPtr[uint8]
		if rk.Me() == 1 {
			dst = upcxx.MustNewArray[uint8](rk, size)
		}
		obj := upcxx.NewDistObject(rk, dst)
		rk.Barrier()
		if rk.Me() == 0 {
			dst = upcxx.FetchDist[upcxx.GPtr[uint8]](rk, obj.ID(), 1).Wait()
			src := make([]uint8, size)
			iters := latencyIters(size)
			upcxx.RPut(rk, src, dst).Wait() // warm up
			t0 := rk.Clock()
			for i := 0; i < iters; i++ {
				upcxx.RPut(rk, src, dst).Wait()
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
	runMeasured(32<<20, func(rk *upcxx.Rank) {
		var dst upcxx.GPtr[uint8]
		if rk.Me() == 1 {
			dst = upcxx.MustNewArray[uint8](rk, size)
		}
		obj := upcxx.NewDistObject(rk, dst)
		rk.Barrier()
		if rk.Me() == 0 {
			dst = upcxx.FetchDist[upcxx.GPtr[uint8]](rk, obj.ID(), 1).Wait()
			src := make([]uint8, size)
			iters := floodIters(size)
			p := upcxx.NewPromise[upcxx.Unit](rk)
			t0 := rk.Clock()
			for i := 0; i < iters; i++ {
				upcxx.RPutPromise(rk, src, dst, p)
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
func await(rk *upcxx.Rank, ctr []uint64, v uint64) {
	for ctr[0] < v {
		rk.ProgressWait(time.Millisecond)
	}
}

// pingPong runs a warm-up hop each way, then iters round trips of hop
// between ranks 0 and 1, each side awaiting its counter; rank 0 stores the
// model time per one-way hop in perHop.
func pingPong(rk *upcxx.Rank, ctr []uint64, iters int, hop func(), perHop *float64) {
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
	runMeasured(16<<20, func(rk *upcxx.Rank) {
		type slots struct {
			Buf upcxx.GPtr[uint8]
			Ctr upcxx.GPtr[uint64]
		}
		mine := slots{
			Buf: upcxx.MustNewArray[uint8](rk, size),
			Ctr: upcxx.MustNewArray[uint64](rk, 1),
		}
		obj := upcxx.NewDistObject(rk, mine)
		rk.Barrier()
		peer := (rk.Me() + 1) % 2
		theirs := upcxx.FetchDist[slots](rk, obj.ID(), peer).Wait()
		src := make([]uint8, size)
		bump := func(trk *upcxx.Rank, c upcxx.GPtr[uint64]) {
			upcxx.Local(trk, c, 1)[0]++
		}
		hop := func() {
			if signaling {
				upcxx.RPutSignal(rk, src, theirs.Buf, bump, theirs.Ctr)
				return
			}
			upcxx.RPut(rk, src, theirs.Buf).Wait()
			upcxx.RPCFF(rk, peer, bump, theirs.Ctr)
		}
		pingPong(rk, upcxx.Local(rk, mine.Ctr, 1), latencyIters(size), hop, &perHop)
	})
	return perHop
}

// rpcHopArgs carries one RPC notification hop's payload: the peer's
// counter to bump plus size value bytes riding as a zero-copy view.
type rpcHopArgs struct {
	Ctr upcxx.GPtr[uint64]
	Val upcxx.View[uint8]
}

func rpcHopBody(trk *upcxx.Rank, a rpcHopArgs) {
	upcxx.Local(trk, a.Ctr, 1)[0]++
}

// measureRPCFF times one rpc_ff notification hop — payload serialized
// into the message, body observing it at the target — as a ping-pong
// between two single-rank nodes (there is no initiator-side completion
// to wait on, exactly like measureNotify's signaling half).
func measureRPCFF(size int) float64 {
	var perHop float64
	runMeasured(16<<20, func(rk *upcxx.Rank) {
		mine := upcxx.MustNewArray[uint64](rk, 1)
		obj := upcxx.NewDistObject(rk, mine)
		rk.Barrier()
		peer := (rk.Me() + 1) % 2
		theirs := upcxx.FetchDist[upcxx.GPtr[uint64]](rk, obj.ID(), peer).Wait()
		val := make([]uint8, size)
		hop := func() {
			upcxx.RPCFF(rk, peer, rpcHopBody, rpcHopArgs{Ctr: theirs, Val: upcxx.MakeView(val)})
		}
		pingPong(rk, upcxx.Local(rk, mine, 1), latencyIters(size), hop, &perHop)
	})
	return perHop
}

// measureRPCRoundTrip times a blocking rpc carrying size payload bytes and
// returning a small acknowledgment.
func measureRPCRoundTrip(size int) float64 {
	var perOp float64
	runMeasured(16<<20, func(rk *upcxx.Rank) {
		mine := upcxx.MustNewArray[uint64](rk, 1)
		obj := upcxx.NewDistObject(rk, mine)
		rk.Barrier()
		if rk.Me() == 0 {
			theirs := upcxx.FetchDist[upcxx.GPtr[uint64]](rk, obj.ID(), 1).Wait()
			val := make([]uint8, size)
			call := func() {
				upcxx.RPC(rk, 1, func(trk *upcxx.Rank, a rpcHopArgs) uint64 {
					c := upcxx.Local(trk, a.Ctr, 1)
					c[0]++
					return c[0]
				}, rpcHopArgs{Ctr: theirs, Val: upcxx.MakeView(val)}).Wait()
			}
			call() // warm up
			iters := latencyIters(size)
			t0 := rk.Clock()
			for i := 0; i < iters; i++ {
				call()
			}
			perOp = per(rk.Clock(), t0, iters)
		}
		rk.Barrier()
	})
	return perOp
}

// bumpCounter is the small-RPC body of the batch throughput sweep.
func bumpCounter(trk *upcxx.Rank, c upcxx.GPtr[uint64]) uint64 {
	cc := upcxx.Local(trk, c, 1)
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
	runMeasured(16<<20, func(rk *upcxx.Rank) {
		mine := upcxx.MustNewArray[uint64](rk, 1)
		obj := upcxx.NewDistObject(rk, mine)
		rk.Barrier()
		if rk.Me() == 0 {
			theirs := upcxx.FetchDist[upcxx.GPtr[uint64]](rk, obj.ID(), 1).Wait()
			b := upcxx.NewBatch(rk, 1)
			// Warm-up batch.
			upcxx.BatchRPC(b, bumpCounter, theirs)
			b.Flush(upcxx.OpCxAsFuture()).Op.Wait()
			done := upcxx.NewPromise[upcxx.Unit](rk)
			t0 := rk.Clock()
			for i := 0; i < total; i++ {
				upcxx.BatchRPC(b, bumpCounter, theirs)
				if b.Len() >= batchSize {
					b.Flush(upcxx.OpCxAsPromise(done))
					rk.Progress()
				}
			}
			if b.Len() > 0 {
				b.Flush(upcxx.OpCxAsPromise(done))
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
	runMeasured(16<<20, func(rk *upcxx.Rank) {
		mine := upcxx.MustNewArray[uint64](rk, 1)
		obj := upcxx.NewDistObject(rk, mine)
		rk.Barrier()
		if rk.Me() == 0 {
			theirs := upcxx.FetchDist[upcxx.GPtr[uint64]](rk, obj.ID(), 1).Wait()
			upcxx.RPC(rk, 1, bumpCounter, theirs).Wait() // warm up
			done := upcxx.NewPromise[upcxx.Unit](rk)
			t0 := rk.Clock()
			for i := 0; i < total; i++ {
				upcxx.RPCWith(rk, 1, bumpCounter, theirs, upcxx.OpCxAsPromise(done))
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

// column is one series of a size-swept table: its name and its value at
// each transfer size.
type column struct {
	name string
	y    func(n int) float64
}

// sizeTable prints one table over sizes(), computing it size by size and,
// within a size, column by column.
func sizeTable(w io.Writer, title, yfmt string, cols ...column) {
	t := &stats.Table{
		Title:  title,
		XLabel: "size",
		XFmt:   func(v float64) string { return stats.BytesHuman(int(v)) },
		YFmt:   func(v float64) string { return fmt.Sprintf(yfmt, v) },
	}
	for _, c := range cols {
		t.Series = append(t.Series, &stats.Series{Name: c.name})
	}
	for _, n := range sizes() {
		for i, c := range cols {
			t.Series[i].Add(float64(n), c.y(n))
		}
	}
	t.Fprint(w)
}

// us and gbps scale a per-op time in seconds and a rate in bytes per second.
func us(f func(n int) float64) func(int) float64   { return func(n int) float64 { return f(n) * 1e6 } }
func gbps(f func(n int) float64) func(int) float64 { return func(n int) float64 { return f(n) / 1e9 } }

// run prints every table: Fig 3a, the signaling put, RPC v2, batched RPC and
// Fig 3b.
func run(w io.Writer) error {
	m := expmodel.Haswell()

	sizeTable(w, "Fig 3a — round-trip put latency, us (Cori Haswell model; lower is better)", "%.2f",
		column{"UPC++ (model)", us(m.UPCXXPutLatency)},
		column{"MPI RMA (model)", us(m.MPIPutLatency)},
		column{"UPC++ (measured)", us(measureUPCXXLatency)},
		column{"MPI RMA (measured)", us(measureMPILatency)})
	fmt.Fprintln(w)

	signaling := func(n int) float64 { return measureNotify(n, true) }
	sizeTable(w, "Signaling put vs put+RPC — notification latency, us (Cori Haswell model; lower is better)", "%.2f",
		column{"signaling put (model)", us(m.SignalNotifyLatency)},
		column{"put+RPC (model)", us(m.PutRPCNotifyLatency)},
		column{"signaling put (measured)", us(signaling)},
		column{"put+RPC (measured)", us(func(n int) float64 { return measureNotify(n, false) })})
	fmt.Fprintln(w)
	fmt.Fprintf(w, "saved per notification vs put+RPC: the put's full round trip (~%.2f us at 8 B) —\n", m.UPCXXPutLatency(8)*1e6)
	fmt.Fprintln(w, "the remote-cx AM piggybacks on the transfer and costs no extra wire message.")
	fmt.Fprintln(w)

	sizeTable(w, "RPC v2 — ff vs round-trip vs signaling-put notification latency, us (Cori Haswell model; lower is better)", "%.2f",
		column{"rpc_ff (model)", us(m.RPCFFNotifyLatency)},
		column{"rpc round-trip (model)", us(m.RPCRoundTripLatency)},
		column{"signaling put (model)", us(m.SignalNotifyLatency)},
		column{"rpc_ff (measured)", us(measureRPCFF)},
		column{"rpc round-trip (measured)", us(measureRPCRoundTrip)},
		column{"signaling put (measured)", us(signaling)})
	fmt.Fprintln(w)
	fmt.Fprintln(w, "rpc_ff and the signaling put are both one one-way message; the signaling put wins at")
	fmt.Fprintln(w, "size because the payload moves as RMA (no serialization on the handler path), while")
	fmt.Fprintln(w, "the round-trip rpc pays one extra wire crossing for its reply.")
	fmt.Fprintln(w)

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
	t.Fprint(w)
	fmt.Fprintln(w)
	fmt.Fprintln(w, "every wire message pays injection occupancy (o+g) no matter how small; a batch ships")
	fmt.Fprintln(w, "B requests in one message and receives B replies in one, so the per-op share of the")
	fmt.Fprintln(w, "fixed costs falls as 1/B until per-entry work (framing, serialization, body) dominates.")
	fmt.Fprintln(w)

	sizeTable(w, "Fig 3b — flood put bandwidth, GB/s (Cori Haswell model; higher is better)", "%.3f",
		column{"UPC++ (model)", gbps(m.UPCXXFloodBW)},
		column{"MPI RMA (model)", gbps(m.MPIFloodBW)},
		column{"UPC++ (measured)", gbps(measureUPCXXFlood)},
		column{"MPI RMA (measured)", gbps(measureMPIFlood)})
	return nil
}

func main() {
	flag.Parse() // it declares none: a stale flag fails instead of being ignored
	if err := run(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "rma-bench:", err)
		os.Exit(1)
	}
}
