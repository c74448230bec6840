package upcxx

import (
	"bytes"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"upcxx/internal/gasnet"
	"upcxx/internal/obs"
)

// TestBatchRPCBasic exercises the batched round-trip surface: many
// requests accumulate into one batch, flush as one message, and every
// per-request future resolves with its own result — self- and cross-rank,
// with the batch reusable after each flush.
func TestBatchRPCBasic(t *testing.T) {
	Run(2, func(rk *Rank) {
		if rk.Me() == 0 {
			for _, target := range []Intrank{1, 0} {
				b := NewBatch(rk, target)
				if b.Target() != target {
					t.Errorf("Target() = %d, want %d", b.Target(), target)
				}
				const n = 32
				futs := make([]Future[int], n)
				for i := 0; i < n; i++ {
					futs[i] = BatchRPC(b, func(trk *Rank, x int) int { return x * x }, i)
				}
				if b.Len() != n {
					t.Errorf("Len() = %d before flush, want %d", b.Len(), n)
				}
				b.Flush()
				if b.Len() != 0 {
					t.Errorf("Len() = %d after flush, want 0", b.Len())
				}
				for i, f := range futs {
					if got := f.Wait(); got != i*i {
						t.Errorf("target %d entry %d = %d, want %d", target, i, got, i*i)
					}
				}
				// The batch is reusable: a second round on the same object.
				f := BatchRPC(b, func(trk *Rank, x int) int { return x + 1 }, 41)
				b.Flush()
				if got := f.Wait(); got != 42 {
					t.Errorf("reused batch result = %d, want 42", got)
				}
			}
			// An empty flush completes its plan immediately.
			fs := NewBatch(rk, 1).Flush(OpCxAsFuture())
			fs.Op.Wait()
		}
		rk.Barrier()
	})
}

// TestBatchRPCMixedFF covers a batch mixing round-trip and
// fire-and-forget entries: the ff bodies execute at the target, the
// round-trip futures resolve, and operation completion (gated on the
// reply batch) postdates every round-trip body.
func TestBatchRPCMixedFF(t *testing.T) {
	Run(2, func(rk *Rank) {
		ctr := MustNewArray[uint64](rk, 1)
		obj := NewDistObject(rk, ctr)
		rk.Barrier()
		if rk.Me() == 0 {
			rctr := FetchDist[GPtr[uint64]](rk, obj.ID(), 1).Wait()
			b := NewBatch(rk, 1)
			const nff = 5
			for i := 0; i < nff; i++ {
				BatchRPCFF(b, func(trk *Rank, c GPtr[uint64]) {
					Local(trk, c, 1)[0]++
				}, rctr)
			}
			sum := BatchRPC(b, func(trk *Rank, c GPtr[uint64]) uint64 {
				return Local(trk, c, 1)[0]
			}, rctr)
			fs := b.Flush(OpCxAsFuture())
			fs.Op.Wait()
			// The single execution-persona pass runs entries in order, so
			// the trailing read observes every preceding ff increment.
			if got := sum.Wait(); got != nff {
				t.Errorf("read after %d batched ffs = %d, want %d", nff, got, nff)
			}
		}
		rk.Barrier()
	})
}

// TestBatchRPCCxMatrix is the batched-RPC completion conformance matrix:
// {future, promise, LPC} × {self, cross-rank} operation completion on
// Flush, each cell proving the delivery fired and every per-entry future
// resolved. Runs under -race in CI (make race) like its un-batched
// counterpart TestCxRPCMatrix.
func TestBatchRPCCxMatrix(t *testing.T) {
	Run(2, func(rk *Rank) {
		rk.Barrier()
		if rk.Me() == 0 {
			for _, how := range []string{"future", "promise", "lpc"} {
				for _, cross := range []bool{false, true} {
					name := fmt.Sprintf("%s/cross=%v", how, cross)
					target := Intrank(0)
					if cross {
						target = 1
					}
					b := NewBatch(rk, target)
					futs := make([]Future[int], 8)
					for i := range futs {
						futs[i] = BatchRPC(b, func(trk *Rank, x int) int { return -x }, i)
					}
					var cx Cx
					var prom *Promise[Unit]
					fired := false
					switch how {
					case "future":
						cx = OpCxAsFuture()
					case "promise":
						prom = NewPromise[Unit](rk)
						cx = OpCxAsPromise(prom)
					case "lpc":
						cx = OpCxAsLPC(nil, func() { fired = true })
					}
					fs := b.Flush(cx)
					switch how {
					case "future":
						fs.Op.Wait()
					case "promise":
						prom.Finalize().Wait()
					case "lpc":
						spinProgress(t, rk, name+" lpc", func() bool { return fired })
					}
					// Operation completion means every reply landed; the
					// value futures must already be resolved.
					for i, f := range futs {
						if !f.Ready() {
							t.Errorf("%s: entry %d future not ready at op completion", name, i)
						}
						if got := f.Wait(); got != -i {
							t.Errorf("%s: entry %d = %d, want %d", name, i, got, -i)
						}
					}
				}
			}
		}
		rk.Barrier()
	})
}

// TestBatchRPCRemoteLanding: a RemoteCxAsRPC descriptor on Flush fires
// once at the target for the whole batch, when the message lands.
func TestBatchRPCRemoteLanding(t *testing.T) {
	Run(2, func(rk *Rank) {
		rk.Barrier()
		if rk.Me() == 0 {
			b := NewBatch(rk, 1)
			futs := make([]Future[int], 4)
			for i := range futs {
				futs[i] = BatchRPC(b, func(trk *Rank, x int) int { return x }, i)
			}
			fs := b.Flush(OpCxAsFuture(), RemoteCxAsRPC(func(trk *Rank, tag string) {
				landings.Add(1)
			}, "batch-landing"))
			fs.Op.Wait()
			for i, f := range futs {
				if got := f.Wait(); got != i {
					t.Errorf("entry %d = %d, want %d", i, got, i)
				}
			}
		}
		rk.Barrier()
		if rk.Me() == 1 {
			if got := landings.Load(); got != 1 {
				t.Errorf("remote landing fired %d times for one batch, want 1", got)
			}
			landings.Store(0)
		}
		rk.Barrier()
	})
}

// landings counts target-side batch landing events (RemoteCxAsRPC bodies
// run at the target, which cannot capture initiator-side test state).
var landings atomic.Int64

// TestBatchRPCSourceZeroCopy pins the zero-copy scatter-gather contract.
// A view argument is NOT copied when BatchRPC marshals it — the encoded
// entry borrows the caller's buffer — and IS captured exactly once, at
// the conduit's capture stage inside Flush. A plain []byte is copied at
// BatchRPC: nothing asks its caller to keep it until Flush. The proof
// mutates the buffer in both windows: a post-add/pre-flush mutation must be
// visible at the target for the view (no marshal-time copy) and invisible
// for the []byte, and a post-source-cx mutation must be invisible for both
// (capture precedes the wire), with a fat simulated latency holding the
// message in flight while the second mutation happens.
func TestBatchRPCSourceZeroCopy(t *testing.T) {
	model := &gasnet.LogGP{O: time.Microsecond, L: 5 * time.Millisecond, Gp: time.Microsecond}
	const n = 4096
	tally := func(b []byte) [3]int { // how many of 0xAA, 0xBB, 0xCC
		return [3]int{bytes.Count(b, []byte{0xAA}), bytes.Count(b, []byte{0xBB}), bytes.Count(b, []byte{0xCC})}
	}
	RunConfig(Config{Ranks: 2, RanksPerNode: 1, Model: model}, func(rk *Rank) {
		rk.Barrier()
		if rk.Me() == 0 {
			buf := make([]byte, n)
			for _, row := range []struct {
				name string
				add  func(b *Batch) Future[[3]int]
				want [3]int // what the target must see
			}{
				{"view", func(b *Batch) Future[[3]int] {
					return BatchRPC(b, func(_ *Rank, v View[uint8]) [3]int { return tally(v.Elements()) }, MakeView(buf))
				}, [3]int{0, n, 0}},
				{"[]byte", func(b *Batch) Future[[3]int] {
					return BatchRPC(b, func(_ *Rank, s []byte) [3]int { return tally(s) }, buf)
				}, [3]int{n, 0, 0}},
			} {
				for i := range buf {
					buf[i] = 0xAA
				}
				b := NewBatch(rk, 1)
				probe := row.add(b)
				// Window 1: between add and Flush.
				for i := range buf {
					buf[i] = 0xBB
				}
				fs := b.Flush(SourceCxAsFuture())
				// Source completion == conduit capture: buf is ours again.
				fs.Source.Wait()
				// Window 2: the message is still in flight (L = 5ms); this
				// mutation must NOT reach the target.
				for i := range buf {
					buf[i] = 0xCC
				}
				if got := probe.Wait(); got != row.want {
					t.Errorf("%s: target saw %v of 0xAA/0xBB/0xCC, want %v", row.name, got, row.want)
				}
			}
		}
		rk.Barrier()
	})
}

// batchLocalView adds to b a call whose argument views an array local to
// this frame: the frame is gone by the time b flushes.
//
//go:noinline
func batchLocalView(b *Batch, got *[]byte) Future[Unit] {
	var local [256]byte
	for i := range local {
		local[i] = byte(i)
	}
	return BatchRPC(b, func(_ *Rank, v View[byte]) Unit { *got = v.CopyOut(); return Unit{} }, MakeView(local[:]))
}

//go:noinline
func clobberStack(n int) byte {
	var x [4 << 10]byte
	for i := range x {
		x[i] = 0xEE
	}
	if n > 0 {
		return clobberStack(n-1) + x[n]
	}
	return x[0]
}

// TestBatchRPCViewOutlivesFrame: a view borrowed by a Batch entry is read at
// Flush, after the frame whose array it views has returned — so the codec
// must let the compiler see the array escape, though it hides the encoder
// and the argument themselves.
func TestBatchRPCViewOutlivesFrame(t *testing.T) {
	w := NewWorld(Config{Ranks: 2})
	defer w.Close()
	var got []byte
	b := NewBatch(w.Rank(0), 1)
	clobberStack(8) // grow the stack first: the second pass overwrites the frame in place
	f := batchLocalView(b, &got)
	clobberStack(8)
	b.Flush()
	for !f.Ready() {
		w.Rank(1).Progress()
		w.Rank(0).Progress()
	}
	for i, c := range got {
		if c != byte(i) {
			t.Fatalf("byte %d of the viewed array arrived as %#x, want %#x", i, c, byte(i))
		}
	}
	if len(got) != 256 {
		t.Fatalf("%d bytes arrived, want 256", len(got))
	}
}

// TestBatchDoorbellCoalescing pins doorbell accounting: the 1-slot
// conduit doorbell counts a ring only when the deposit finds the slot
// empty, so LPCs pushed while the owner is not draining — a flushed
// batch's completions, one LPC each — wake (and count) once and drain in
// FIFO order, while the same deliveries rung one by one — each drained
// before the next — count once each. The obs DoorbellRings counter is the
// witness.
func TestBatchDoorbellCoalescing(t *testing.T) {
	RunConfig(Config{Ranks: 1, Stats: true}, func(rk *Rank) {
		p := NewPersona(rk, "db-worker")
		sc := AcquirePersona(p)
		defer sc.Release()
		rings := func() uint64 { return rk.Stats().Counters[obs.DoorbellRings] }
		// Leave the doorbell slot empty (drain any startup ring).
		rk.ep.WaitPending(time.Millisecond)

		var order []int
		base := rings()
		for i := 0; i < 16; i++ {
			LPCTo(p, func() { order = append(order, i) })
		}
		if got := rings() - base; got != 1 {
			t.Errorf("16 LPCs pushed while the owner was not draining rang %d times, want 1", got)
		}
		rk.Progress()
		if len(order) != 16 {
			t.Fatalf("drained %d of 16 LPCs", len(order))
		}
		for i, v := range order {
			if v != i {
				t.Fatalf("LPCs drained out of order: %v", order)
			}
		}

		// Baseline: per-op delivery rings per op when the slot is drained
		// between rings (an attentive progress thread). Drain the pushes'
		// still-deposited ring first.
		rk.ep.WaitPending(50 * time.Millisecond)
		ran := 0
		base = rings()
		for i := 0; i < 16; i++ {
			LPCTo(p, func() { ran++ })
			if !rk.ep.WaitPending(50 * time.Millisecond) {
				t.Fatal("LPC did not ring the doorbell")
			}
			rk.Progress()
		}
		if got := rings() - base; got != 16 {
			t.Errorf("16 drained per-op deliveries rang %d times, want 16", got)
		}
	})
}

// TestRPCWireErrors rejects malformed RPC messages at the decode
// boundary: messages with neither entries nor a landing, unknown kinds,
// sequence-carrying ffs, mixed request/reply direction, replies with
// landings, and length fields disagreeing with the actual span — for
// one-entry messages (what RPC and RPCFF send), multi-entry ones and the
// zero-entry landing a put carries alike.
func TestRPCWireErrors(t *testing.T) {
	req := rpcEntry{kind: rpcReqKind, seq: 1, args: []byte{1, 2}}
	rep := rpcEntry{kind: rpcReplyKind, seq: 1, args: []byte{3}}
	ff := rpcEntry{kind: rpcFFKind, args: []byte{9, 9, 9}}
	enc := func(land *[]byte, entries ...rpcEntry) []byte {
		return encodeMsg(0, entries, land)
	}
	land := func(b ...byte) *[]byte { return &b }
	cases := []struct {
		name string
		msg  []byte
	}{
		{"empty message", enc(nil)},
		{"bad magic", append([]byte{0xC7}, enc(nil, req)[1:]...)},
		{"retired single-RPC magic", append([]byte{rpcMagic - 1}, enc(nil, req)[1:]...)},
		{"bad version", func() []byte {
			b := enc(nil, req)
			b[1] = 9
			return b
		}()},
		{"unknown kind", enc(nil, rpcEntry{kind: 7})},
		{"ff with seq", enc(nil, rpcEntry{kind: rpcFFKind, seq: 4})},
		{"ff with seq after a request", enc(nil, req, rpcEntry{kind: rpcFFKind, seq: 4})},
		{"mixed direction", enc(nil, req, rep)},
		{"reply with a landing", enc(land(1), rep)},
		{"two replies with an empty landing", enc(land(), rep, rep)},
		{"truncated", enc(nil, req)[:8]},
		{"trailing bytes", append(enc(nil, req), 0)},
		{"landing length short of remaining", append(enc(land(1, 2), req), 3)},
		{"landing length beyond remaining", enc(land(1, 2), ff)[:len(enc(land(1, 2), ff))-1]},
		{"landing-only message cut short", enc(land(1, 2))[:8]},
	}
	for _, tc := range cases {
		if _, err := decodeRPCMsg(tc.msg); err == nil {
			t.Errorf("%s: decode accepted % x", tc.name, tc.msg)
		}
	}
	// The happy paths round-trip: a lone request, a lone ff, a request
	// message mixing ff in — each carrying a landing — and the landing
	// alone.
	for _, entries := range [][]rpcEntry{{req}, {ff}, {req, ff}, nil} {
		m, err := decodeRPCMsg(encodeMsg(3, entries, land(5)))
		if err != nil {
			t.Fatalf("decode of valid %d-entry message: %v", len(entries), err)
		}
		if m.src != 3 || m.count != len(entries) || m.reply || !m.landing || !bytes.Equal(m.largs, []byte{5}) {
			t.Errorf("round trip mangled message: %+v", m)
		}
		for i, want := range entries {
			if got := m.next(); got.kind != want.kind || got.seq != want.seq || !bytes.Equal(got.args, want.args) {
				t.Errorf("entry %d = %+v, want %+v", i, got, want)
			}
		}
	}
}
