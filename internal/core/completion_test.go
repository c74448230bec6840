package upcxx

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"upcxx/internal/gasnet"
	"upcxx/internal/obs"
	"upcxx/internal/serial"
)

// Completion-object conformance matrix:
//
//	{operation, source, remote} × {future, promise, LPC, RPC}
//	  × {host, device destination} × {self, cross-rank}
//
// Each valid cell issues one put with exactly that descriptor (plus an
// op-future where the cell itself provides no way to block), proves the
// event fired, and proves the put's bytes are correct at the destination.
// The matrix runs under -race in CI (make race) — the deliveries cross
// the persona LPC queues, which is precisely the machinery the race gate
// exists to watch. The cells the type system cannot rule out but the
// model forbids (RPC delivery of op/source events; source/remote events
// on gets) are pinned to panic in TestCxInvalidCombos.

// cxDeliveries enumerates the delivery methods under test.
var cxDeliveries = []string{"future", "promise", "lpc", "rpc"}

// cxEvents enumerates the events under test.
var cxEvents = []CxEvent{obs.EvOp, obs.EvSource, obs.EvRemote}

// cxSigArgs is the argument bundle of the matrix's remote-RPC cells.
type cxSigArgs struct {
	Dst  GPtr[uint64] // the put's destination
	Flag GPtr[uint64] // host flag at the target: 1 = data correct, 2 = wrong
	N    int64
}

// cxCheckLanded verifies at the target that the put's payload (the
// pattern i+1) is fully visible, using a direct segment read so
// device-kind destinations are checkable from inside a restricted
// context. Test-only: applications use RunKernel or kind-aware copies.
func cxCheckLanded(trk *Rank, a cxSigArgs) bool {
	seg := trk.ep.SegByID(a.Dst.segID("cxCheckLanded"))
	got := seg.Bytes(a.Dst.Off, int(a.N)*8)
	want := make([]byte, 0, a.N*8)
	for i := int64(0); i < a.N; i++ {
		want = append(want, byte(i+1), 0, 0, 0, 0, 0, 0, 0)
	}
	return bytes.Equal(got, want)
}

func cxSignalBody(trk *Rank, a cxSigArgs) {
	if cxCheckLanded(trk, a) {
		Local(trk, a.Flag, 1)[0] = 1
	} else {
		Local(trk, a.Flag, 1)[0] = 2
	}
}

// readFlag reads a flag word through an RPC at its owner: the read
// executes on the same execution persona as the remote-cx body that
// writes it, so polling never races the writer (one-sided gets of a word
// another rank's CPU is writing would, exactly as on real RDMA hardware).
func readFlag(rk *Rank, flag GPtr[uint64]) uint64 {
	return RPC(rk, flag.Owner, func(trk *Rank, f GPtr[uint64]) uint64 {
		return Local(trk, f, 1)[0]
	}, flag).Wait()
}

// resetFlag zeroes a flag word at its owner through the same RPC path.
func resetFlag(rk *Rank, flag GPtr[uint64]) {
	RPC(rk, flag.Owner, func(trk *Rank, f GPtr[uint64]) Unit {
		Local(trk, f, 1)[0] = 0
		return Unit{}
	}, flag).Wait()
}

// cxSlots holds one target rank's published buffers for the matrix.
type cxSlots struct {
	Host GPtr[uint64]
	Dev  GPtr[uint64]
	Flag GPtr[uint64]
}

const cxN = 16 // put payload elements

func TestCxMatrix(t *testing.T) {
	Run(2, func(rk *Rank) {
		da := NewDeviceAllocator(rk, 1<<16)
		slots := cxSlots{
			Host: MustNewArray[uint64](rk, cxN),
			Dev:  MustNewDeviceArray[uint64](da, cxN),
			Flag: MustNewArray[uint64](rk, 1),
		}
		obj := NewDistObject(rk, slots)
		rk.Barrier()
		if rk.Me() == 0 {
			src := make([]uint64, cxN)
			for i := range src {
				src[i] = uint64(i + 1)
			}
			for _, cross := range []bool{false, true} {
				target := Intrank(0)
				if cross {
					target = 1
				}
				tgt := FetchDist[cxSlots](rk, obj.ID(), target).Wait()
				for _, dev := range []bool{false, true} {
					dst := tgt.Host
					if dev {
						dst = tgt.Dev
					}
					for _, ev := range cxEvents {
						for _, how := range cxDeliveries {
							name := fmt.Sprintf("%v/%s/dev=%v/cross=%v", ev, how, dev, cross)
							if how == "rpc" && ev != obs.EvRemote {
								continue // forbidden; pinned in TestCxInvalidCombos
							}
							runCxCell(t, rk, name, src, dst, tgt.Flag, ev, how)
						}
					}
				}
			}
		}
		rk.Barrier()
	})
}

// runCxCell executes one matrix cell: a put of src to dst carrying the
// descriptor (ev, how), blocking until both the put and the event have
// demonstrably completed, then verifying the destination bytes.
func runCxCell(t *testing.T, rk *Rank, name string, src []uint64, dst, flag GPtr[uint64], ev CxEvent, how string) {
	// Zero the destination and the flag so each cell stands alone.
	zero := make([]uint64, cxN)
	RPut(rk, zero, dst).Wait()
	resetFlag(rk, flag)

	var cx Cx
	fired := false
	var prom *Promise[Unit]
	switch how {
	case "future", "rpc":
	case "promise":
		prom = NewPromise[Unit](rk)
	case "lpc":
	}
	switch {
	case how == "rpc":
		cx = RemoteCxAsRPC(cxSignalBody, cxSigArgs{Dst: dst, Flag: flag, N: cxN})
	case how == "future" && ev == obs.EvOp:
		cx = OpCxAsFuture()
	case how == "future" && ev == obs.EvSource:
		cx = SourceCxAsFuture()
	case how == "future" && ev == obs.EvRemote:
		cx = RemoteCxAsFuture()
	case how == "promise" && ev == obs.EvOp:
		cx = OpCxAsPromise(prom)
	case how == "promise" && ev == obs.EvSource:
		cx = SourceCxAsPromise(prom)
	case how == "promise" && ev == obs.EvRemote:
		cx = RemoteCxAsPromise(prom)
	case how == "lpc" && ev == obs.EvOp:
		cx = OpCxAsLPC(nil, func() { fired = true })
	case how == "lpc" && ev == obs.EvSource:
		cx = SourceCxAsLPC(nil, func() { fired = true })
	case how == "lpc" && ev == obs.EvRemote:
		cx = RemoteCxAsLPC(nil, func() { fired = true })
	}

	// Every cell also requests op-as-future so it can bound the put —
	// except the cell that *is* op-as-future.
	cxs := []Cx{cx}
	if !(ev == obs.EvOp && how == "future") {
		cxs = append(cxs, OpCxAsFuture())
	}
	fs := RPutWith(rk, src, dst, cxs...)

	// Block on the cell's own delivery.
	switch how {
	case "future":
		var f Future[Unit]
		switch ev {
		case obs.EvOp:
			f = fs.Op
		case obs.EvSource:
			f = fs.Source
		case obs.EvRemote:
			f = fs.Remote
		}
		if !f.Valid() {
			t.Fatalf("%s: requested future is invalid", name)
		}
		f.Wait()
	case "promise":
		prom.Finalize().Wait()
	case "lpc":
		waitUntil(t, rk, name+" lpc", func() bool { return fired })
	case "rpc":
		waitUntil(t, rk, name+" rpc flag", func() bool {
			return readFlag(rk, flag) != 0
		})
		if got := readFlag(rk, flag); got != 1 {
			t.Errorf("%s: remote RPC observed wrong/partial data (flag=%d)", name, got)
		}
	}
	// Operation completion always bounds the cell.
	fs.Op.Wait()

	// The put's bytes must be at the destination (read back through the
	// kind-aware path).
	got := make([]uint64, cxN)
	RGet(rk, dst, got).Wait()
	for i := range got {
		if got[i] != uint64(i+1) {
			t.Fatalf("%s: dst[%d] = %d, want %d", name, i, got[i], i+1)
		}
	}
}

// waitUntil spins user progress until cond holds, yielding on idle
// passes so peer-rank goroutines run on few-core hosts.
func waitUntil(t *testing.T, rk *Rank, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for !cond() {
		if rk.Progress() == 0 {
			runtime.Gosched()
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s: never became true", what)
		}
	}
}

// TestCxSourceBufferReuse pins the source-completion contract: once
// source_cx fires, the initiator may scribble on the source buffer
// without affecting the data in flight.
func TestCxSourceBufferReuse(t *testing.T) {
	Run(2, func(rk *Rank) {
		dst := MustNewArray[uint64](rk, 4)
		obj := NewDistObject(rk, dst)
		rk.Barrier()
		if rk.Me() == 0 {
			rdst := FetchDist[GPtr[uint64]](rk, obj.ID(), 1).Wait()
			src := []uint64{10, 20, 30, 40}
			fs := RPutWith(rk, src, rdst, OpCxAsFuture(), SourceCxAsFuture())
			fs.Source.Wait()
			for i := range src {
				src[i] = 999 // reuse after source completion
			}
			fs.Op.Wait()
			got := make([]uint64, 4)
			RGet(rk, rdst, got).Wait()
			for i, v := range []uint64{10, 20, 30, 40} {
				if got[i] != v {
					t.Errorf("dst[%d] = %d, want %d (source buffer not captured)", i, got[i], v)
				}
			}
		}
		rk.Barrier()
	})
}

// TestCxVectorAggregation: a multi-fragment put with one completion set —
// operation and remote events must fire exactly once, after *all*
// fragments have landed, and the gated remote RPC must observe every
// fragment's bytes.
func TestCxVectorAggregation(t *testing.T) {
	Run(2, func(rk *Rank) {
		dst := MustNewArray[uint64](rk, cxN)
		flag := MustNewArray[uint64](rk, 1)
		obj := NewDistObject(rk, [2]GPtr[uint64]{dst, flag})
		rk.Barrier()
		if rk.Me() == 0 {
			tg := FetchDist[[2]GPtr[uint64]](rk, obj.ID(), 1).Wait()
			rdst, rflag := tg[0], tg[1]
			src := make([]uint64, cxN)
			for i := range src {
				src[i] = uint64(i + 1)
			}
			// Four fragments of four elements each, one shared cx set.
			var frags []PutPair[uint64]
			for f := 0; f < 4; f++ {
				frags = append(frags, PutPair[uint64]{Src: src[f*4 : (f+1)*4], Dst: rdst.Add(f * 4)})
			}
			lpcs := 0
			p := NewPromise[Unit](rk)
			fs := RPutVWith(rk, frags,
				OpCxAsFuture(),
				OpCxAsPromise(p),
				OpCxAsLPC(nil, func() { lpcs++ }),
				RemoteCxAsRPC(cxSignalBody, cxSigArgs{Dst: rdst, Flag: rflag, N: cxN}))
			fs.Op.Wait()
			p.Finalize().Wait()
			waitUntil(t, rk, "aggregated lpc", func() bool { return lpcs > 0 })
			if lpcs != 1 {
				t.Errorf("op LPC fired %d times for a 4-fragment put, want once", lpcs)
			}
			waitUntil(t, rk, "gated remote rpc", func() bool {
				return readFlag(rk, rflag) != 0
			})
			if got := readFlag(rk, rflag); got != 1 {
				t.Errorf("gated remote RPC saw partial data (flag=%d)", got)
			}
		}
		rk.Barrier()
	})
}

// TestCxEmptyVector: a zero-fragment vector put with completions must
// complete immediately rather than hang.
func TestCxEmptyVector(t *testing.T) {
	Run(1, func(rk *Rank) {
		p := NewPromise[Unit](rk)
		fs := RPutVWith(rk, []PutPair[uint64](nil), OpCxAsFuture(), OpCxAsPromise(p))
		fs.Op.Wait()
		p.Finalize().Wait()
	})
}

// TestCxInvalidCombos pins the cells of the matrix the model forbids.
func TestCxInvalidCombos(t *testing.T) {
	Run(2, func(rk *Rank) {
		dst := MustNewArray[uint64](rk, 4)
		obj := NewDistObject(rk, dst)
		rk.Barrier()
		if rk.Me() == 0 {
			rdst := FetchDist[GPtr[uint64]](rk, obj.ID(), 1).Wait()
			buf := make([]uint64, 4)
			expectPanic(t, "source_cx on get", func() {
				RGetWith(rk, rdst, buf, SourceCxAsFuture())
			})
			// A copy's source is a global pointer the conduit reads only
			// when the hop chain reaches it (lazily, on a process conduit) —
			// a source event at injection would license overwriting bytes
			// still to be read.
			expectPanic(t, "source_cx on copy", func() {
				CopyWith(rk, dst, rdst, 4, SourceCxAsFuture())
			})
			expectPanic(t, "remote_cx on get", func() {
				RGetWith(rk, rdst, buf, RemoteCxAsFuture())
			})
			expectPanic(t, "remote_cx as_rpc on get", func() {
				RGetWith(rk, rdst, buf, RemoteCxAsRPC(func(*Rank, int) {}, 0))
			})
			expectPanic(t, "duplicate op as_future", func() {
				RPutWith(rk, buf, rdst, OpCxAsFuture(), OpCxAsFuture())
			})
			expectPanic(t, "nil promise", func() {
				RPutWith(rk, buf, rdst, OpCxAsPromise(nil))
			})
			expectPanic(t, "mixed-destination remote_cx", func() {
				frags := []PutPair[uint64]{
					{Src: buf[:1], Dst: rdst},
					{Src: buf[1:2], Dst: dst}, // different owner
				}
				RPutVWith(rk, frags, RemoteCxAsRPC(func(*Rank, int) {}, 0))
			})
			rk.Quiesce()
		}
		rk.Barrier()
	})
}

func expectPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: expected panic", what)
		}
	}()
	fn()
}

// TestCxRemoteAfterDeviceDMA is the acceptance pin for the conduit's
// remote-completion hop placement: on a cross-rank put into *device*
// memory under a model whose DMA hop is far slower than the
// wire, the remote RPC must still observe the complete payload — i.e. the
// notification is enqueued after the h2d DMA lands, not when the wire hop
// reaches the target's host side. An implementation that fired at wire
// landing would run the body ~milliseconds before the copy engine writes
// the bytes and reliably fail the content check.
func TestCxRemoteAfterDeviceDMA(t *testing.T) {
	cfg := Config{
		Ranks:        2,
		RanksPerNode: 1,
		Model:        &gasnet.LogGP{L: 20 * time.Microsecond, Gp: time.Microsecond},
		DMA:          &gasnet.PCIeDMA{L: 4 * time.Millisecond, Gp: 100 * time.Microsecond},
	}
	RunConfig(cfg, func(rk *Rank) {
		da := NewDeviceAllocator(rk, 1<<16)
		slots := cxSlots{
			Dev:  MustNewDeviceArray[uint64](da, cxN),
			Flag: MustNewArray[uint64](rk, 1),
		}
		obj := NewDistObject(rk, slots)
		rk.Barrier()
		if rk.Me() == 0 {
			tgt := FetchDist[cxSlots](rk, obj.ID(), 1).Wait()
			src := make([]uint64, cxN)
			for i := range src {
				src[i] = uint64(i + 1)
			}
			RPutWith(rk, src, tgt.Dev,
				OpCxAsFuture(),
				RemoteCxAsRPC(cxSignalBody, cxSigArgs{Dst: tgt.Dev, Flag: tgt.Flag, N: cxN}))
			waitUntil(t, rk, "device remote rpc", func() bool {
				return readFlag(rk, tgt.Flag) != 0
			})
			if got := readFlag(rk, tgt.Flag); got != 1 {
				t.Errorf("remote RPC ran before the destination DMA completed (flag=%d)", got)
			}
		}
		rk.Barrier()
	})
}

// TestCxCopyRemoteRPC: remote completion on upcxx::copy, including a
// same-rank device destination and a third-party initiator.
func TestCxCopyRemoteRPC(t *testing.T) {
	Run(3, func(rk *Rank) {
		da := NewDeviceAllocator(rk, 1<<16)
		slots := cxSlots{
			Host: MustNewArray[uint64](rk, cxN),
			Dev:  MustNewDeviceArray[uint64](da, cxN),
			Flag: MustNewArray[uint64](rk, 1),
		}
		obj := NewDistObject(rk, slots)
		rk.Barrier()
		if rk.Me() == 0 {
			src := make([]uint64, cxN)
			for i := range src {
				src[i] = uint64(i + 1)
			}
			// Stage the pattern into rank 1's host slot.
			s1 := FetchDist[cxSlots](rk, obj.ID(), 1).Wait()
			s2 := FetchDist[cxSlots](rk, obj.ID(), 2).Wait()
			RPut(rk, src, s1.Host).Wait()
			// Third-party copy rank1.host → rank2.dev with a remote RPC at
			// rank 2.
			CopyWith(rk, s1.Host, s2.Dev, cxN,
				OpCxAsFuture(),
				RemoteCxAsRPC(cxSignalBody, cxSigArgs{Dst: s2.Dev, Flag: s2.Flag, N: cxN}))
			waitUntil(t, rk, "third-party copy remote rpc", func() bool {
				return readFlag(rk, s2.Flag) != 0
			})
			if got := readFlag(rk, s2.Flag); got != 1 {
				t.Errorf("copy remote RPC saw wrong data (flag=%d)", got)
			}
		}
		rk.Barrier()
	})
}

// TestCxOneEventThreeDescriptors: one put carries operation completion as a
// future, into a promise and as an LPC. The in-process put completes inside
// the call, so the future and the promise are ready at return and the LPC
// runs at the next progress: all three fire exactly once, in descriptor
// order, on the goroutine holding the persona.
func TestCxOneEventThreeDescriptors(t *testing.T) {
	Run(2, func(rk *Rank) {
		dst := MustNewArray[uint64](rk, 1)
		obj := NewDistObject(rk, dst)
		rk.Barrier()
		if rk.Me() == 0 {
			rdst := FetchDist[GPtr[uint64]](rk, obj.ID(), 1).Wait()
			me := rk.CurrentPersona()
			var fired []string
			fire := func(what string) {
				if !me.onOwnerGoroutine() {
					t.Errorf("%s fired off its persona's goroutine", what)
				}
				fired = append(fired, what)
			}
			p := NewPromise[Unit](rk)
			fs := RPutWith(rk, []uint64{7}, rdst, OpCxAsFuture(), OpCxAsPromise(p), OpCxAsLPC(nil, func() { fire("lpc") }))
			ThenDo(fs.Op, func(Unit) { fire("future") })
			ThenDo(p.Finalize(), func(Unit) { fire("promise") })
			waitUntil(t, rk, "three deliveries", func() bool { return len(fired) >= 3 })
			for i := 0; i < 8; i++ {
				rk.Progress()
			}
			if want := "[future promise lpc]"; fmt.Sprint(fired) != want {
				t.Errorf("deliveries fired as %v, want %s", fired, want)
			}
		}
		rk.Barrier()
	})
}

// TestCxAddressedToHeldPersona: a completion addressed to a persona another
// goroutine holds is routed to that persona's queue by whichever goroutine
// harvests it, and its future stays unready until the holder drains it —
// a future is readied on its owner's goroutine or not at all.
func TestCxAddressedToHeldPersona(t *testing.T) {
	Run(2, func(rk *Rank) {
		dst := MustNewArray[uint64](rk, 1)
		obj := NewDistObject(rk, dst)
		rk.Barrier()
		if rk.Me() == 0 {
			rdst := FetchDist[GPtr[uint64]](rk, obj.ID(), 1).Wait()
			wk := startCxWorker(rk, "held")
			defer wk.stop()
			for _, row := range []struct {
				name string
				// start runs on the master; harvested fires there once the
				// completion has been routed.
				start func(harvested func()) Future[Unit]
			}{
				{"put op future", func(h func()) Future[Unit] {
					return RPutWith(rk, []uint64{1}, rdst, OpCxAsFuture().On(wk.p), OpCxAsLPC(nil, h)).Op
				}},
				{"rpc op future", func(h func()) Future[Unit] {
					_, fs := RPCWith(rk, 1, func(_ *Rank, x int) int { return x }, 2, OpCxAsFuture().On(wk.p), OpCxAsLPC(nil, h))
					return fs.Op
				}},
				{"FulfillResult off the owner", func(h func()) Future[Unit] {
					p := NewPromiseOn[Unit](rk, wk.p)
					p.FulfillResult(Unit{})
					h()
					return p.Future()
				}},
			} {
				var harvested, consumed atomic.Bool
				var readiedOnOwner atomic.Int32 // 0 not yet, 1 on the holder, -1 elsewhere
				f := row.start(func() { harvested.Store(true) })
				registered, release := make(chan struct{}), make(chan struct{})
				wk.run(func() {
					ThenDo(f, func(Unit) {
						if wk.p.onOwnerGoroutine() {
							readiedOnOwner.Store(1)
						} else {
							readiedOnOwner.Store(-1)
						}
					})
					close(registered)
					<-release // hold the persona without draining it
					f.Wait()
					consumed.Store(true)
				})
				<-registered
				spinProgress(t, rk, row.name+" harvested", harvested.Load)
				if f.c.ready || readiedOnOwner.Load() != 0 {
					t.Errorf("%s: readied before its holder drained it", row.name)
				}
				if n := wk.p.PendingLPCs(); n != 1 {
					t.Errorf("%s: %d LPCs queued on the holder, want 1", row.name, n)
				}
				close(release)
				spinProgress(t, rk, row.name+" consumed", consumed.Load)
				if readiedOnOwner.Load() != 1 {
					t.Errorf("%s: readied off the holder's goroutine", row.name)
				}
			}
		}
		rk.Barrier()
	})
}

// TestCxLPCToExplicitPersona: completions must land on the persona the
// descriptor names, not the initiating goroutine's.
func TestCxLPCToExplicitPersona(t *testing.T) {
	Run(2, func(rk *Rank) {
		dst := MustNewArray[uint64](rk, 1)
		obj := NewDistObject(rk, dst)
		rk.Barrier()
		if rk.Me() == 0 {
			rdst := FetchDist[GPtr[uint64]](rk, obj.ID(), 1).Wait()
			// The master persona is current on this goroutine; deliver the
			// op LPC to it explicitly and confirm it arrives through its
			// queue.
			hit := false
			fs := RPutWith(rk, []uint64{7}, rdst,
				OpCxAsFuture(),
				OpCxAsLPC(rk.MasterPersona(), func() { hit = true }))
			fs.Op.Wait()
			waitUntil(t, rk, "explicit persona lpc", func() bool { return hit })
		}
		rk.Barrier()
	})
}

// TestCxZeroFuture: a CxFutures field whose event was not requested as a
// future is the zero Future, and using it panics with that cause instead of
// dereferencing nil.
func TestCxZeroFuture(t *testing.T) {
	Run(1, func(rk *Rank) {
		dst := MustNewArray[uint64](rk, 1)
		p := NewPromise[Unit](rk)
		op := RPutWith(rk, []uint64{1}, dst, OpCxAsPromise(p)).Op
		if op.Valid() {
			t.Error("a field not requested as_future is Valid")
		}
		for name, use := range map[string]func(){
			"Wait":    func() { op.Wait() },
			"Ready":   func() { op.Ready() },
			"Result":  func() { op.Result() },
			"Then":    func() { ThenDo(op, func(Unit) {}) },
			"WhenAll": func() { WhenAll(rk, op) },
		} {
			func() {
				defer func() {
					if r := recover(); !strings.Contains(fmt.Sprint(r), "not requested as_future") {
						t.Errorf("%s on a zero Future: recovered %v, want a panic naming the unrequested event", name, r)
					}
				}()
				use()
			}()
		}
		p.Finalize().Wait()
	})
}

// TestCxFutureLayout pins the future's size: a Future[Unit] is one word (a
// ready one is the rank's shared ready cell, with nothing inline), so
// CxFutures is three, and a value future is its value plus the word. A
// 16-byte Future[Unit] (the cell pointer first, the padded Unit after it)
// moved the committed benchmark's in-process rput latency +7.1 %, rget +7.0 %
// and the put flood -4.5 %, losing every pair (4 pairs, 2-core x86-64).
func TestCxFutureLayout(t *testing.T) {
	for _, c := range []struct {
		name      string
		got, want uintptr
	}{
		{"Future[Unit]", unsafe.Sizeof(Future[Unit]{}), 8},
		{"CxFutures", unsafe.Sizeof(CxFutures{}), 24},
		{"Future[int64]", unsafe.Sizeof(Future[int64]{}), 16},
	} {
		if c.got != c.want {
			t.Errorf("unsafe.Sizeof(%s) = %d, want %d", c.name, c.got, c.want)
		}
	}
}

// TestCxReadyCombinators: a combinator over ready futures runs its callback
// at once and returns a future that holds its value inline; one pending
// input keeps the result pending until that input readies.
func TestCxReadyCombinators(t *testing.T) {
	Run(1, func(rk *Rank) {
		one, two := ReadyFuture(rk, int64(1)), ReadyFuture(rk, "two")
		ran := 0
		inline := func(name string, f interface {
			Ready() bool
			Valid() bool
		}, c *cell) {
			t.Helper()
			if !f.Valid() || !f.Ready() || !c.inline {
				t.Errorf("%s over ready inputs: valid %v, ready %v, inline %v", name, f.Valid(), f.Ready(), c.inline)
			}
		}
		th := Then(one, func(v int64) int64 { ran++; return v + 1 })
		inline("Then", th, th.c)
		td := ThenDo(two, func(string) { ran++ })
		inline("ThenDo", td, td.c)
		if ran != 2 || th.Result() != 2 {
			t.Errorf("Then ran %d callbacks at once, result %d: want 2 and 2", ran, th.Result())
		}
		for _, f := range []Future[Unit]{WhenAll(rk), WhenAll(rk, one, two, EmptyFuture(rk))} {
			inline("WhenAll", f, f.c)
		}
		w2 := WhenAll2(one, two)
		inline("WhenAll2", w2, w2.c)
		if got := w2.Wait(); got != (Pair[int64, string]{1, "two"}) {
			t.Errorf("WhenAll2 = %v", got)
		}
		ws := WhenAllSlice(rk, []Future[int64]{one, th})
		inline("WhenAllSlice", ws, ws.c)
		if got := fmt.Sprint(ws.Result()); got != "[1 2]" {
			t.Errorf("WhenAllSlice = %s, want [1 2]", got)
		}

		p := NewPromise[int64](rk)
		pend := p.Future()
		all, pair := WhenAll(rk, one, pend), WhenAll2(pend, two)
		slice, then := WhenAllSlice(rk, []Future[int64]{one, pend, th}), Then(pend, func(v int64) int64 { return -v })
		if all.Ready() || pair.Ready() || slice.Ready() || then.Ready() {
			t.Fatal("a combinator with a pending input is ready")
		}
		p.FulfillResult(5)
		if !all.Ready() || pair.Result().First != 5 || fmt.Sprint(slice.Result()) != "[1 5 2]" || then.Result() != -5 {
			t.Errorf("after fulfilment: all %v, pair %v, slice %v, then %d", all.Ready(), pair.Result(), slice.Result(), then.Result())
		}
		if then.c.inline || !Then(pend, func(v int64) int64 { return v }).c.inline {
			t.Error("Then over a pending input must keep its cell; over a fulfilled one it needs none")
		}
	})
}

// TestCxDeferredAtomicValue: an atomic that the conduit completes after its
// call keeps a cell, and the fetched word reaches it.
func TestCxDeferredAtomicValue(t *testing.T) {
	w := NewWorld(Config{Ranks: 2, Model: &gasnet.LogGP{IntraL: 20 * time.Microsecond}})
	defer w.Close()
	rk := w.Rank(0)
	sc := AcquirePersona(rk.MasterPersona())
	defer sc.Release()
	word, iword := MustNewArray[uint64](w.Rank(1), 1), MustNewArray[int64](w.Rank(1), 1)
	ad, ai := NewAtomicU64(rk), NewAtomicI64(rk)
	for i := uint64(0); i < 4; i++ {
		f := ad.FetchAdd(word, 10)
		if f.c.inline || f.Ready() {
			t.Fatal("a LogGP fetch-add is ready at return")
		}
		if got := f.Wait(); got != 10*i {
			t.Errorf("fetch-add %d fetched %d, want %d", i, got, 10*i)
		}
	}
	ai.Store(iword, -3).Wait()
	if got := ai.FetchMin(iword, -7).Wait(); got != -3 {
		t.Errorf("FetchMin fetched %d, want -3", got)
	}
	if got := ai.Load(iword).Wait(); got != -7 {
		t.Errorf("Load = %d, want -7", got)
	}
}

func eagerEcho(_ *Rank, x int64) int64 { return x + 1 }
func eagerSink(*Rank, int64)           {}

// cxProbe is what TestCxEagerSettle asks of a future of any type.
type cxProbe struct {
	ready   func() bool
	onReady func(func())
	wait    func()
}

func probeOf[T any](f Future[T]) cxProbe {
	return cxProbe{f.Ready, f.anyOnReady, func() { f.Wait() }}
}

// TestCxEagerSettle: an operation the conduit completes inside its call
// returns a ready future, and one it completes later returns a future that
// readies on its owner during progress. Rows are operations, columns
// conduits: in-process (everything lands in the call), LogGP (nothing does),
// and two-rank tcp and shm jobs, where a put, get or atomic completes in the
// call only over shm's mapped segment. A source event and an rpc_ff's
// operation event fire in the call everywhere. Where the put is deferred an
// LPC and a future of its one event still fire in descriptor order; where it
// is not, a promise it was given keeps no dependency.
func TestCxEagerSettle(t *testing.T) {
	RegisterRPC(eagerEcho)
	RegisterRPCFF(eagerSink)
	inproc := func(m *gasnet.LogGP) func(*testing.T) (*Rank, *Rank) {
		return func(t *testing.T) (*Rank, *Rank) {
			w := NewWorld(Config{Ranks: 2, Model: m})
			t.Cleanup(w.Close)
			return w.Rank(0), w.Rank(1)
		}
	}
	wire := func(backend string) func(*testing.T) (*Rank, *Rank) {
		return func(t *testing.T) (*Rank, *Rank) {
			ws := wireWorlds(t, backend, false)
			return ws[0].Rank(0), ws[1].Rank(1)
		}
	}
	for _, col := range []struct {
		name     string
		ranks    func(*testing.T) (*Rank, *Rank)
		inCall   bool // a put, get or atomic completes inside the call
		harvests bool // its ack may be in before the call returns (harvested by the call's own progress pass)
	}{
		{"loopback", inproc(nil), true, false},
		{"loggp", inproc(&gasnet.LogGP{IntraL: 50 * time.Microsecond}), false, false},
		{"tcp", wire("tcp"), false, true},
		{"shm", wire("shm"), true, false},
	} {
		t.Run(col.name, func(t *testing.T) {
			defer DetachDefaultPersonas()
			rk0, rk1 := col.ranks(t)
			stop, stopped := make(chan struct{}), make(chan struct{})
			go func() { // rank 1 serves the RPC rows
				defer close(stopped)
				defer DetachDefaultPersonas()
				for {
					select {
					case <-stop:
						return
					default:
						rk1.ProgressWait(time.Millisecond)
					}
				}
			}()
			defer func() { close(stop); <-stopped }()
			word, buf, ad := MustNewArray[uint64](rk1, 1), []uint64{7}, NewAtomicU64(rk0)
			me := rk0.CurrentPersona()
			var vals []Future[int64]
			for _, row := range []struct {
				name   string
				inCall bool
				start  func() cxProbe
			}{
				{"put", col.inCall, func() cxProbe { return probeOf(RPut(rk0, buf, word)) }},
				{"get", col.inCall, func() cxProbe { return probeOf(RGet(rk0, word, buf)) }},
				{"fetch-add", col.inCall, func() cxProbe { return probeOf(ad.FetchAdd(word, 1)) }},
				{"rpc source", true, func() cxProbe {
					v, fs := RPCWith(rk0, 1, eagerEcho, 1, SourceCxAsFuture())
					vals = append(vals, v)
					return probeOf(fs.Source)
				}},
				{"rpc_ff op", true, func() cxProbe { return probeOf(RPCFFWith(rk0, 1, eagerSink, 1, OpCxAsFuture()).Op) }},
			} {
				f := row.start()
				if got := f.ready(); got != row.inCall && !(got && col.harvests) {
					t.Errorf("%s: ready at return = %v, want %v", row.name, got, row.inCall)
				}
				if f.ready() {
					continue
				}
				onOwner := false
				f.onReady(func() { onOwner = me.onOwnerGoroutine() })
				f.wait()
				if !onOwner {
					t.Errorf("%s: readied off its owner's goroutine", row.name)
				}
			}
			for _, v := range vals {
				if got := v.Wait(); got != 2 {
					t.Errorf("rpc: echo = %d, want 2", got)
				}
			}

			// Whether the conduit finishes a put, get or atomic in the call is
			// its report; on tcp a future may still be ready at return.
			seg := word.segID("conduit")
			for name, op := range map[string]func(cb func()) bool{
				"put": func(cb func()) bool {
					return rk0.ep.PutSegTag(1, seg, word.Off, serial.AsBytes(buf), cb, nil, obs.OpTag{})
				},
				"get": func(cb func()) bool { return rk0.ep.GetSegTag(1, seg, word.Off, serial.AsBytes(buf), cb, obs.OpTag{}) },
				"fetch-add": func(cb func()) bool {
					_, now := rk0.ep.AMOTag(1, word.Off, gasnet.AMOAdd, 1, 0, func(uint64) { cb() }, obs.OpTag{})
					return now
				},
			} {
				done := false
				now := op(func() { done = true })
				if now != col.inCall {
					t.Errorf("%s: the conduit reported completion in the call = %v, want %v", name, now, col.inCall)
				}
				for !now && !done {
					rk0.ep.Poll()
				}
			}

			p := NewPromise[Unit](rk0)
			RPutWith(rk0, buf, word, OpCxAsPromise(p))
			if got := p.Finalize().Ready(); got != col.inCall && !(got && col.harvests) {
				t.Errorf("promise of a put: Finalize().Ready() = %v at once, want %v", got, col.inCall)
			}
			p.Finalize().Wait()
			if col.inCall {
				return
			}
			var order []string
			fs := RPutWith(rk0, buf, word, OpCxAsLPC(nil, func() { order = append(order, "lpc") }), OpCxAsFuture())
			if fs.Op.Ready() { // done in the call, as on loopback and shm: its LPC is still queued
				if !col.harvests {
					t.Error("a put with an LPC: ready at return")
				}
				return
			}
			ThenDo(fs.Op, func(Unit) { order = append(order, "future") })
			fs.Op.Wait()
			if fmt.Sprint(order) != "[lpc future]" {
				t.Errorf("deferred deliveries fired as %v, want [lpc future]", order)
			}
		})
	}
}
