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
// the conduit's capture stage inside Flush. The proof mutates the buffer
// in both windows: a post-add/pre-flush mutation must be visible at the
// target (no marshal-time copy), and a post-source-cx mutation must NOT
// be (capture precedes the wire), with a fat simulated latency holding
// the message in flight while the second mutation happens.
func TestBatchRPCSourceZeroCopy(t *testing.T) {
	model := &gasnet.LogGP{O: time.Microsecond, L: 5 * time.Millisecond, Gp: time.Microsecond}
	RunConfig(Config{Ranks: 2, Model: model}, func(rk *Rank) {
		rk.Barrier()
		if rk.Me() == 0 {
			buf := bytes.Repeat([]byte{0xAA}, 4096)
			b := NewBatch(rk, 1)
			probe := BatchRPC(b, func(trk *Rank, v View[uint8]) [2]int {
				counts := [2]int{}
				for _, x := range v.Elements() {
					switch x {
					case 0xBB:
						counts[0]++
					case 0xCC:
						counts[1]++
					}
				}
				return counts
			}, MakeView(buf))
			// Window 1: the entry only borrows buf — this mutation must
			// reach the target.
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
			counts := probe.Wait()
			if counts[0] != len(buf) || counts[1] != 0 {
				t.Errorf("target saw %d×0xBB / %d×0xCC of %d bytes; want %d/0 — "+
					"argument was copied at marshal time or not captured at the capture stage",
					counts[0], counts[1], len(buf), len(buf))
			}
		}
		rk.Barrier()
	})
}

// TestBatchDoorbellCoalescing pins doorbell accounting: the 1-slot
// conduit doorbell counts a ring only when the deposit finds the slot
// empty, so a batched LPC delivery wakes (and counts) once, while the
// same deliveries rung one by one — each drained before the next — count
// once each. The obs DoorbellRings counter is the witness.
func TestBatchDoorbellCoalescing(t *testing.T) {
	RunConfig(Config{Ranks: 1, Stats: true}, func(rk *Rank) {
		p := NewPersona(rk, "db-worker")
		sc := AcquirePersona(p)
		defer sc.Release()
		rings := func() uint64 { return rk.Stats().Counters[obs.DoorbellRings] }
		// Leave the doorbell slot empty (drain any startup ring).
		rk.ep.WaitPending(time.Millisecond)

		ran := 0
		fns := make([]func(), 16)
		for i := range fns {
			fns[i] = func() { ran++ }
		}
		base := rings()
		p.LPCBatch(fns)
		if got := rings() - base; got != 1 {
			t.Errorf("batched delivery of 16 LPCs rang %d times, want 1", got)
		}
		rk.Progress()
		if ran != 16 {
			t.Fatalf("drained %d of 16 batched LPCs", ran)
		}

		// Baseline: per-op delivery rings per op when the slot is drained
		// between rings (an attentive progress thread). Drain the batch's
		// still-deposited ring first.
		rk.ep.WaitPending(50 * time.Millisecond)
		base = rings()
		for i := 0; i < 16; i++ {
			p.LPC(func() { ran++ })
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
// boundary: empty messages, unknown kinds, sequence-carrying ffs, mixed
// request/reply direction, replies with landing payloads, and length
// fields disagreeing with the actual span — for one-entry messages (what
// RPC and RPCFF send) and multi-entry ones alike.
func TestRPCWireErrors(t *testing.T) {
	req := rpcEntry{kind: rpcReqKind, seq: 1, args: []byte{1, 2}}
	rep := rpcEntry{kind: rpcReplyKind, seq: 1, args: []byte{3}}
	ff := rpcEntry{kind: rpcFFKind, args: []byte{9, 9, 9}}
	enc := func(rem []byte, entries ...rpcEntry) []byte {
		b, _ := encodeRPCMsg[Unit](0, entries, nil, rem, false)
		return b
	}
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
		{"reply with rem", enc([]byte{1}, rep)},
		{"two replies with rem", enc(encodeRemoteCx(0, nil), rep, rep)},
		{"truncated", enc(nil, req)[:8]},
		{"trailing bytes", append(enc(nil, req), 0)},
		{"rem length short of remaining", append(enc([]byte{1, 2}, req), 3)},
		{"rem length beyond remaining", enc([]byte{1, 2}, ff)[:len(enc([]byte{1, 2}, ff))-1]},
	}
	for _, tc := range cases {
		if _, err := decodeRPCMsg(tc.msg); err == nil {
			t.Errorf("%s: decode accepted % x", tc.name, tc.msg)
		}
	}
	// The happy paths round-trip: a lone request, a lone ff carrying a
	// landing payload, and a request message mixing ff in.
	for _, entries := range [][]rpcEntry{{req}, {ff}, {req, ff}} {
		rem := encodeRemoteCx(3, []byte{5})
		b, _ := encodeRPCMsg[Unit](3, entries, nil, rem, false)
		m, err := decodeRPCMsg(b)
		if err != nil {
			t.Fatalf("decode of valid %d-entry message: %v", len(entries), err)
		}
		if m.src != 3 || m.count != len(entries) || m.reply || !bytes.Equal(m.rem, rem) {
			t.Errorf("round trip mangled message: %+v", m)
		}
		for i, want := range entries {
			if got := m.next(); got.kind != want.kind || got.seq != want.seq || !bytes.Equal(got.args, want.args) {
				t.Errorf("entry %d = %+v, want %+v", i, got, want)
			}
		}
	}
}
