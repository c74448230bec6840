package upcxx

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"upcxx/internal/gasnet"
	"upcxx/internal/obs"
)

// Tests for the collectives engine: tree topologies (table-driven over
// every shape and team size), the completion conformance matrix
// ({barrier, bcast, reduce, allreduce} × {future, promise, LPC,
// remote-RPC} × {host, device} × {world, split-team}), persona handoff,
// the device-resident reduction path (zero host-staging copies, pinned
// by the DMA hop trace), the leaf-side broadcast RPC ordering against
// the h2d DMA, and the conduit's last-landing piggyback for
// multi-fragment remote completions. The matrix and handoff tests run
// under -race in CI (make race).

// --- topology table -------------------------------------------------------

// checkTopology verifies the tree contract for one radix and team size:
// children in range and strictly increasing, exactly one parent per
// non-root (knomialChildren and knomialParent agreeing), everything
// reachable from the root, and depth within the number of base-k digits
// of p-1 — which for a radix of p or more, the flat tree, is one.
func checkTopology(t *testing.T, name string, k, p int) {
	t.Helper()
	parent := make([]int, p)
	for i := range parent {
		parent[i] = -1
	}
	seen := 0
	for rr := 0; rr < p; rr++ {
		prev := rr
		for _, c := range knomialChildren(k, rr, p) {
			if c <= rr || c >= p {
				t.Fatalf("%s p=%d: child %d of %d out of range", name, p, c, rr)
			}
			if c <= prev && prev != rr {
				t.Fatalf("%s p=%d: children of %d not strictly increasing", name, p, rr)
			}
			prev = c
			if parent[c] != -1 {
				t.Fatalf("%s p=%d: rank %d has two parents (%d and %d)", name, p, c, parent[c], rr)
			}
			parent[c] = rr
			seen++
			if got := knomialParent(k, c); got != rr {
				t.Fatalf("%s p=%d: knomialParent(%d) = %d, want %d", name, p, c, got, rr)
			}
		}
	}
	if seen != p-1 {
		t.Fatalf("%s p=%d: %d ranks have parents, want %d", name, p, seen, p-1)
	}
	maxDepth := 0
	for rr := 1; rr < p; rr++ {
		d, x := 0, rr
		for x != 0 {
			x = parent[x]
			d++
			if d > p {
				t.Fatalf("%s p=%d: cycle above rank %d", name, p, rr)
			}
		}
		if d > maxDepth {
			maxDepth = d
		}
	}
	want := 0
	for x := p - 1; x > 0; x /= k {
		want++
	}
	if maxDepth > want {
		t.Fatalf("%s p=%d: depth %d exceeds digit bound %d", name, p, maxDepth, want)
	}
}

// TestCollTopologyTable pins the tree for team sizes 1–17 and every
// radix — including the non-power-of-two and size-1 edges the old
// bcastChildren/ceilLog2 helpers were never table-tested on.
func TestCollTopologyTable(t *testing.T) {
	for p := 1; p <= 17; p++ {
		for _, k := range []int{2, 3, 4, 5, 8, 16, 17} {
			checkTopology(t, fmt.Sprintf("knomial-%d", k), k, p)
		}
		// The engine's selection (Config.CollRadix semantics, including
		// the flat cut-over for tiny teams) must itself be a valid shape,
		// and radix 1 and tiny teams must come out flat.
		for _, r := range []int{0, 1, 2, 3, 4, 8} {
			k := treeRadix(r, p)
			checkTopology(t, fmt.Sprintf("radix-%d", r), k, p)
			if flat := r == 1 || p <= collFlatMax; flat && k < p {
				t.Fatalf("CollRadix %d p=%d: radix %d is not the flat tree", r, p, k)
			}
		}
	}
}

// TestCollRadixSweepSemantics runs real collectives over one-member and
// non-power-of-two teams under every topology class: results must not
// depend on the tree.
func TestCollRadixSweepSemantics(t *testing.T) {
	for _, radix := range []int{0, 1, 3, 4} {
		for _, p := range []int{1, 5, 7} {
			radix, p := radix, p
			t.Run(fmt.Sprintf("radix=%d/p=%d", radix, p), func(t *testing.T) {
				RunConfig(Config{Ranks: p, CollRadix: radix, Stats: true}, func(rk *Rank) {
					world := rk.WorldTeam()
					got := Broadcast(world, Intrank(p-1), int64(rk.Me())).Wait()
					if got != int64(p-1) {
						t.Errorf("rank %d: broadcast = %d, want %d", rk.Me(), got, p-1)
					}
					sum := AllReduce(world, int64(rk.Me())+1,
						func(a, b int64) int64 { return a + b }).Wait()
					if want := int64(p * (p + 1) / 2); sum != want {
						t.Errorf("rank %d: allreduce = %d, want %d", rk.Me(), sum, want)
					}
					red := ReduceOne(world, int64(rk.Me())+1,
						func(a, b int64) int64 { return a + b }).Wait()
					if rk.Me() == 0 {
						if want := int64(p * (p + 1) / 2); red != want {
							t.Errorf("reduce root = %d, want %d", red, want)
						}
					}
					// Gather to a non-zero root, indexed by team rank whatever
					// the rotation; nil everywhere else.
					groot := Intrank(p / 2)
					vals := Gather(world, groot, int64(rk.Me())*10).Wait()
					if rk.Me() != groot && vals != nil {
						t.Errorf("rank %d: non-root gather = %v, want nil", rk.Me(), vals)
					}
					if rk.Me() == groot && len(vals) != p {
						t.Errorf("gather root: %d values, want %d", len(vals), p)
					}
					for r, v := range vals {
						if v != int64(r)*10 {
							t.Errorf("gather[%d] = %d, want %d", r, v, r*10)
						}
					}
					// AllGather is one collective — one sequence number, every
					// tree edge crossed once each way — not a gather and then a
					// broadcast. A member's rounds are all sent by the time its
					// own future readies, so the per-rank deltas add up exactly.
					seq, rounds := rk.coll.seqs[world.id], rk.Stats().Ops[obs.KindCollRound]
					all := AllGather(world, int64(rk.Me())+100).Wait()
					seq, rounds = rk.coll.seqs[world.id]-seq, rk.Stats().Ops[obs.KindCollRound]-rounds
					if len(all) != p {
						t.Errorf("rank %d: allgather has %d values, want %d", rk.Me(), len(all), p)
					}
					for r, v := range all {
						if v != int64(r)+100 {
							t.Errorf("rank %d: allgather[%d] = %d, want %d", rk.Me(), r, v, r+100)
						}
					}
					if seq != 1 {
						t.Errorf("rank %d: allgather consumed %d collective sequence numbers, want 1", rk.Me(), seq)
					}
					if total := AllReduce(world, rounds, func(a, b uint64) uint64 { return a + b }).Wait(); total != uint64(2*(p-1)) {
						t.Errorf("rank %d: allgather took %d rounds job-wide, want %d", rk.Me(), total, 2*(p-1))
					}
					// The buffer pair over the same tree (a one-member team is
					// a root with no children there too).
					buf := MustNewArray[int64](rk, 2)
					copy(Local(rk, buf, 2), []int64{int64(rk.Me()) + 1, 1})
					AllReduceBufWith(world, nil, buf, 2, addI64).Op.Wait()
					if b := Local(rk, buf, 2); b[0] != int64(p*(p+1)/2) || b[1] != int64(p) {
						t.Errorf("rank %d: buffer allreduce = %v", rk.Me(), b)
					}
					BroadcastBufWith(world, Intrank(p-1), buf, 2).Op.Wait()
					rk.Barrier()
				})
			})
		}
	}
}

// --- conformance matrix ---------------------------------------------------

var collKinds = []string{"barrier", "bcast", "reduce", "allreduce"}

func addI64(a, b int64) int64 { return a + b }

// runCollCell executes one matrix cell: all team members run the same
// collective carrying the cell's delivery descriptor, block until that
// delivery demonstrably fired, and verify the collective's payload.
// Device cells use the buffer collectives over device operands (the
// barrier has no operands and is identical in both kind columns).
func runCollCell(t *testing.T, rk *Rank, team *Team, da *DeviceAllocator, dev bool, kind, how string) {
	name := fmt.Sprintf("%s/%s/dev=%v", kind, how, dev)
	const n = 8
	p := int64(team.RankN())
	tr := int64(team.RankMe())
	wantSum := p * (p + 1) / 2

	// The delivery under test. The remote-RPC descriptor runs on the
	// rank's execution persona — this goroutine in self-progress mode —
	// when the collective's data lands locally, so the plain flag is
	// race-free.
	fired := false
	var prom *Promise[Unit]
	var cxs []Cx
	switch how {
	case "future":
		cxs = []Cx{OpCxAsFuture()}
	case "promise":
		prom = NewPromise[Unit](rk)
		cxs = []Cx{OpCxAsPromise(prom)}
	case "lpc":
		cxs = []Cx{OpCxAsLPC(nil, func() { fired = true }), OpCxAsFuture()}
	case "rpc":
		cxs = []Cx{RemoteCxAsRPC(func(*Rank, int) { fired = true }, 0), OpCxAsFuture()}
	}

	var futs CxFutures
	buf := NilGPtr[int64]()
	root := team.RankN() - 1 // exercise non-zero roots where allowed
	switch {
	case kind == "barrier":
		futs = team.BarrierAsyncWith(cxs...)
	case !dev:
		switch kind {
		case "bcast":
			f, fs := BroadcastWith(team, root, 4242+tr, cxs...)
			futs = fs
			if got := f.Wait(); got != 4242+int64(root) {
				t.Errorf("%s: value = %d, want %d", name, got, 4242+int64(root))
			}
		case "reduce":
			f, fs := ReduceOneWith(team, tr+1, addI64, cxs...)
			futs = fs
			got := f.Wait()
			want := int64(0)
			if tr == 0 {
				want = wantSum
			}
			if got != want {
				t.Errorf("%s: value = %d, want %d", name, got, want)
			}
		case "allreduce":
			f, fs := AllReduceWith(team, tr+1, addI64, cxs...)
			futs = fs
			if got := f.Wait(); got != wantSum {
				t.Errorf("%s: value = %d, want %d", name, got, wantSum)
			}
		}
	default:
		buf = MustNewDeviceArray[int64](da, n)
		switch kind {
		case "bcast":
			if tr == int64(root) {
				RunKernel(da, buf, n, func(s []int64) {
					for i := range s {
						s[i] = int64(i) + 7
					}
				})
			}
			futs = BroadcastBufWith(team, root, buf, n, cxs...)
		case "reduce":
			fillCollBuf(da, buf, n, tr+1)
			futs = ReduceOneBufWith(team, da, buf, n, addI64, cxs...)
		case "allreduce":
			fillCollBuf(da, buf, n, tr+1)
			futs = AllReduceBufWith(team, da, buf, n, addI64, cxs...)
		}
	}

	// Block on the cell's own delivery.
	switch how {
	case "future":
		if !futs.Op.Valid() {
			t.Fatalf("%s: requested future is invalid", name)
		}
		futs.Op.Wait()
	case "promise":
		prom.Finalize().Wait()
	case "lpc", "rpc":
		futs.Op.Wait()
		waitUntil(t, rk, name+" delivery", func() bool { return fired })
	}

	// Verify device payloads landed device-resident.
	if dev && !buf.IsNil() {
		check := func(want func(i int) int64) {
			RunKernel(da, buf, n, func(s []int64) {
				for i, v := range s {
					if v != want(i) {
						t.Errorf("%s: buf[%d] = %d, want %d", name, i, v, want(i))
					}
				}
			})
		}
		switch kind {
		case "bcast":
			check(func(i int) int64 { return int64(i) + 7 })
		case "reduce":
			if tr == 0 {
				check(func(i int) int64 { return int64(i+1) * wantSum })
			}
		case "allreduce":
			check(func(i int) int64 { return int64(i+1) * wantSum })
		}
		if err := Delete(rk, buf); err != nil {
			t.Errorf("%s: free device operand: %v", name, err)
		}
	}
}

// fillCollBuf writes scale*(i+1) into the n elements at p.
func fillCollBuf(da *DeviceAllocator, p GPtr[int64], n int, scale int64) {
	RunKernel(da, p, n, func(s []int64) {
		for i := range s {
			s[i] = scale * int64(i+1)
		}
	})
}

// TestCollCxMatrix drives every collective × delivery × kind × team
// combination. Cells run back to back without barriers between them —
// the per-team collective sequence numbers keep them matched.
func TestCollCxMatrix(t *testing.T) {
	for _, dev := range []bool{false, true} {
		for _, split := range []bool{false, true} {
			dev, split := dev, split
			t.Run(fmt.Sprintf("dev=%v/split=%v", dev, split), func(t *testing.T) {
				Run(4, func(rk *Rank) {
					da := NewDeviceAllocator(rk, 1<<20)
					team := rk.WorldTeam()
					if split {
						team = rk.WorldTeam().Split(int(rk.Me())%2, int(rk.Me()))
					}
					for _, kind := range collKinds {
						for _, how := range cxDeliveries {
							runCollCell(t, rk, team, da, dev, kind, how)
						}
					}
					team.Barrier()
					rk.Barrier()
				})
			})
		}
	}
}

// TestCollInvalidCombos pins the descriptor combinations the model
// forbids on collectives.
func TestCollInvalidCombos(t *testing.T) {
	Run(2, func(rk *Rank) {
		da := NewDeviceAllocator(rk, 1<<16)
		dbuf := MustNewDeviceArray[int64](da, 4)
		if rk.Me() == 0 {
			expectPanic(t, "source_cx on a collective", func() {
				rk.WorldTeam().BarrierAsyncWith(SourceCxAsFuture())
			})
			expectPanic(t, "remote_cx as_future on a collective", func() {
				rk.WorldTeam().BarrierAsyncWith(RemoteCxAsFuture())
			})
			expectPanic(t, "remote_cx as_promise on a collective", func() {
				rk.WorldTeam().BarrierAsyncWith(RemoteCxAsPromise(NewPromise[Unit](rk)))
			})
			expectPanic(t, "device operand without its allocator", func() {
				ReduceOneBufWith(rk.WorldTeam(), nil, dbuf, 4, addI64)
			})
			expectPanic(t, "non-local operand", func() {
				remote := dbuf
				remote.Owner = 1
				BroadcastBufWith(rk.WorldTeam(), 0, remote, 4)
			})
			expectPanic(t, "broadcast root out of range", func() {
				BroadcastWith(rk.WorldTeam(), 5, int64(0))
			})
			expectPanic(t, "buffer broadcast root out of range", func() {
				BroadcastBufWith(rk.WorldTeam(), 5, dbuf, 4)
			})
			expectPanic(t, "gather root out of range", func() {
				Gather(rk.WorldTeam(), 99, int64(0))
			})
		}
		rk.Barrier()
	})
}

// TestCollRequiresHeldExecPersona: a world driven without Run has no
// held master persona, so bodyQueue's inline fallback would advance the
// engine on arbitrary goroutines; collectives must fail loud there (as
// the seed's master-persona check did) instead of racing on the engine
// maps.
func TestCollRequiresHeldExecPersona(t *testing.T) {
	w := NewWorld(Config{Ranks: 2})
	defer w.Close()
	expectPanic(t, "collective without a held execution persona", func() {
		w.Rank(0).BarrierAsync()
	})
}

// --- arrivals a collective cannot act on ------------------------------------

// TestCollArrivalRejects: team ranks, frame ranks and addresses in a
// collective message come off the wire. A well-formed message whose sender
// is not the tree neighbour the collective is waiting for, whose frames
// name ranks outside the team, whose kind or payload the collective cannot
// use — and a payload that is no 0xC6 or 0xC7 message at all — fails the
// sending peer (World.Failed wraps ErrPeerLost); it neither panics the
// execution persona nor moves the collective. Teams of 3 are flat: rank 0
// is the parent of ranks 1 and 2.
func TestCollArrivalRejects(t *testing.T) {
	up := func(kind uint8, src uint32, data []byte) []byte {
		return encodeCollMsg(collMsg{kind: kind, round: collRoundUp, src: src, data: data})
	}
	down := func(kind uint8, src uint32, data []byte) []byte {
		return encodeCollMsg(collMsg{kind: kind, round: collRoundDown, src: src, data: data})
	}
	frames := func(r uint32) []byte { return encodeCollFrames(map[uint32][]byte{r: mustMarshal(int64(1))}) }
	addr := encodeCollAddr(collBufAddr{off: 64})
	barrier := func(rk *Rank) { rk.WorldTeam().BarrierAsync() }
	bcastBuf := func(rk *Rank) { BroadcastBufWith(rk.WorldTeam(), 0, MustNewArray[int64](rk, 4), 4) }
	reduceBuf := func(rk *Rank) { ReduceOneBufWith(rk.WorldTeam(), nil, MustNewArray[int64](rk, 4), 4, addI64) }
	rows := []struct {
		name   string
		p      int
		victim Intrank
		enter  func(rk *Rank) // the collective the victim is inside
		from   Intrank        // conduit sender
		msgs   [][]byte
	}{
		{"gather: sender outside the team", 2, 0, func(rk *Rank) { Gather(rk.WorldTeam(), 0, int64(1)) },
			1, [][]byte{up(collGather, 7, frames(7))}},
		{"split: frame rank outside the team", 2, 0, func(rk *Rank) { rk.WorldTeam().SplitAsync(0, 0) },
			1, [][]byte{up(collGather, 1, frames(7))}},
		{"split: frame for a rank already held", 2, 0, func(rk *Rank) { rk.WorldTeam().SplitAsync(0, 0) },
			1, [][]byte{up(collGather, 1, frames(0))}},
		{"allgather: truncated frame set", 2, 0, func(rk *Rank) { AllGather(rk.WorldTeam(), int64(1)) },
			1, [][]byte{up(collGather, 1, frames(1)[:5])}},
		{"barrier: a child reports twice", 3, 0, barrier, 1, [][]byte{up(collBarrier, 1, nil), up(collBarrier, 1, nil)}},
		{"barrier: arrival at a leaf", 3, 1, barrier, 2, [][]byte{up(collBarrier, 2, nil)}},
		{"barrier: release from a non-parent", 3, 1, barrier, 2, [][]byte{down(collBarrier, 2, nil)}},
		{"barrier: wrong kind", 3, 0, barrier, 1, [][]byte{up(collReduce, 1, mustMarshal(int64(1)))}},
		{"bcast: value that does not decode", 3, 1, func(rk *Rank) { Broadcast(rk.WorldTeam(), 0, int64(0)) },
			0, [][]byte{down(collBcast, 0, []byte{1, 2, 3})}},
		{"reduce: partial that does not decode", 3, 0, func(rk *Rank) { ReduceOne(rk.WorldTeam(), int64(1), addI64) },
			1, [][]byte{up(collReduce, 1, []byte{1, 2, 3})}},
		{"buffer bcast: truncated address", 3, 0, bcastBuf, 1, [][]byte{up(collAddr, 1, addr[:3])}},
		{"buffer bcast: address from outside the team", 3, 0, bcastBuf, 1, [][]byte{up(collAddr, 7, addr)}},
		{"buffer bcast: a child announces twice", 3, 0, bcastBuf, 1, [][]byte{up(collAddr, 1, addr), up(collAddr, 1, addr)}},
		{"buffer bcast: address at a leaf", 3, 1, bcastBuf, 2, [][]byte{up(collAddr, 2, addr)}},
		{"buffer reduce: landing from outside the team", 3, 0, reduceBuf, 1, [][]byte{up(collLand, 7, addr)}},
		{"buffer reduce: truncated address in a landing", 3, 0, reduceBuf, 1, [][]byte{up(collLand, 1, addr[:3])}},
		{"buffer reduce: slot from a non-parent", 3, 1, reduceBuf, 2, [][]byte{down(collAddr, 2, addr)}},
		{"malformed 0xC6 payload", 2, 0, barrier, 1, [][]byte{{collMagic, collVersion, 1, 2}}},
	}
	// refused runs feed on a fresh world and requires that it fail a peer,
	// panic nowhere and run no body.
	ran := false
	refused := func(name string, p int, feed func(w *World)) {
		w := NewWorld(Config{Ranks: p, SegmentSize: 1 << 16})
		defer w.Close()
		defer func() {
			if r := recover(); r != nil {
				t.Errorf("%s: panicked: %v", name, r)
			}
		}()
		feed(w)
		if err := w.Failed(); !errors.Is(err, gasnet.ErrPeerLost) || ran {
			t.Errorf("%s: Failed() = %v (a body ran: %v), want an ErrPeerLost-wrapped error and no body", name, err, ran)
		}
	}
	for _, row := range rows {
		refused(row.name, row.p, func(w *World) {
			rk := w.Rank(row.victim)
			sc := AcquirePersona(rk.MasterPersona())
			defer sc.Release()
			row.enter(rk)
			for _, m := range row.msgs {
				w.handleColl(rk.ep, row.from, m, nil)
			}
			rk.Progress()
		})
	}
	// The remote-cx handler (0xC7) keeps the same rule.
	body := remoteCxAux{body: ffBody(func(*Rank, int64) { ran = true })}
	for _, row := range []struct {
		name    string
		payload []byte
		aux     any
	}{
		{"malformed 0xC7 payload", []byte{remoteCxMagic, remoteCxVersion, 1}, body},
		{"0xC7 payload with a foreign body token", encodeRemoteCx(0, mustMarshal(int64(1))), nil},
	} {
		refused(row.name, 2, func(w *World) {
			w.handleRemoteCx(w.Rank(1).ep, 0, row.payload, row.aux)
			w.Rank(1).Progress()
		})
	}
	// The matching forms are served: both children of a 3-rank barrier's
	// root report, the root releases.
	w := NewWorld(Config{Ranks: 3, SegmentSize: 1 << 16})
	defer w.Close()
	rk := w.Rank(0)
	sc := AcquirePersona(rk.MasterPersona())
	defer sc.Release()
	f := rk.WorldTeam().BarrierAsync()
	w.handleColl(rk.ep, 1, up(collBarrier, 1, nil), nil)
	w.handleColl(rk.ep, 2, up(collBarrier, 2, nil), nil)
	rk.Progress()
	if err := w.Failed(); err != nil || !f.Ready() {
		t.Errorf("well-formed arrivals: Failed() = %v, barrier ready = %v", err, f.Ready())
	}
}

// --- persona handoff ------------------------------------------------------

// TestCollPersonaHandoffProgressThread: in progress-thread mode the
// engine advances on the progress persona, so collectives initiated by
// user goroutines complete even while every master sits blocked, and the
// completion routes back to the initiating persona.
func TestCollPersonaHandoffProgressThread(t *testing.T) {
	RunConfig(Config{Ranks: 4, ProgressThread: true}, func(rk *Rank) {
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			mine := rk.CurrentPersona()
			f, _ := AllReduceWith(rk.WorldTeam(), int64(1), addI64)
			var on *Persona
			ThenDo(f, func(int64) { on = rk.CurrentPersona() }).Wait()
			if got := f.Result(); got != 4 {
				t.Errorf("rank %d: allreduce from user goroutine = %d, want 4", rk.Me(), got)
			}
			if on != mine {
				t.Errorf("rank %d: completion ran on %v, want initiating persona %v", rk.Me(), on, mine)
			}
		}()
		// The master blocks without a single Progress call: the progress
		// thread must drive the whole collective.
		wg.Wait()
		rk.Barrier()
	})
}

// --- device-resident reduction -------------------------------------------

// TestCollDeviceAllReduceNoHostStaging proves the kind-aware reduction
// path: an allreduce over device operands moves its payload exclusively
// through the DMA channel — the hop trace shows exactly the tree's
// exchange copies (two descriptors per link per direction: d2h at the
// source engine, h2d at the destination engine) and nothing else, and
// the AM ledger stays at header size (no payload marshaled through host
// memory).
func TestCollDeviceAllReduceNoHostStaging(t *testing.T) {
	const p, n = 8, 64
	w := NewWorld(Config{Ranks: p})
	defer w.Close()
	das := make([]*DeviceAllocator, p)
	bufs := make([]GPtr[float64], p)
	w.Run(func(rk *Rank) {
		da := NewDeviceAllocator(rk, 1<<20)
		buf := MustNewDeviceArray[float64](da, n)
		RunKernel(da, buf, n, func(s []float64) {
			for i := range s {
				s[i] = float64(rk.Me() + 1)
			}
		})
		das[rk.Me()], bufs[rk.Me()] = da, buf
	})

	amBytesBefore := uint64(0)
	for r := Intrank(0); r < p; r++ {
		amBytesBefore += w.Network().Endpoint(r).Stats().AMBytes
	}
	w.Network().TraceDMA(true)
	w.Run(func(rk *Rank) {
		AllReduceBufWith(rk.WorldTeam(), das[rk.Me()], bufs[rk.Me()], n,
			func(a, b float64) float64 { return a + b }).Op.Wait()
	})
	trace := w.Network().DMATrace()
	w.Network().TraceDMA(false)
	amBytesAfter := uint64(0)
	for r := Intrank(0); r < p; r++ {
		amBytesAfter += w.Network().Endpoint(r).Stats().AMBytes
	}

	// Correctness: every rank's buffer holds the elementwise global sum.
	want := float64(p * (p + 1) / 2)
	w.Run(func(rk *Rank) {
		RunKernel(das[rk.Me()], bufs[rk.Me()], n, func(s []float64) {
			for i, v := range s {
				if v != want {
					t.Errorf("rank %d: buf[%d] = %v, want %v", rk.Me(), i, v, want)
				}
			}
		})
	})

	// Hop trace: p-1 tree links, one cross-rank d2d copy up and one down
	// per link, two DMA descriptors each — and nothing more. Any host
	// staging (an RGet to host plus a host put / marshaled AM) would add
	// descriptors or payload-sized AM bytes and fail these bounds.
	links := p - 1
	wantHops := 4 * links
	if len(trace) != wantHops {
		t.Errorf("DMA trace has %d hops, want %d (2 per link per direction)", len(trace), wantHops)
	}
	for _, h := range trace {
		if h.Bytes != n*8 {
			t.Errorf("DMA hop on rank %d moved %d bytes, want %d (whole payload per hop)", h.Rank, h.Bytes, n*8)
		}
	}
	if delta := amBytesAfter - amBytesBefore; delta > 4096 {
		t.Errorf("collective moved %d AM bytes, want headers only (payload must ride the DMA channel)", delta)
	}
}

// --- leaf-side broadcast RPC vs the h2d DMA -------------------------------

// TestCollBcastLeafRPCAfterDeviceDMA is the collective analogue of
// TestCxRemoteAfterDeviceDMA: on a broadcast over device buffers under a
// real-time model whose DMA hop is far slower than the wire, each
// member's RemoteCxAsRPC descriptor must observe the complete payload in
// its device buffer — i.e. the landing notice rides the copy's final
// h2d DMA hop, not the wire arrival.
func TestCollBcastLeafRPCAfterDeviceDMA(t *testing.T) {
	if testing.Short() {
		t.Skip("real-time model run")
	}
	cfg := Config{
		Ranks:        3,
		RanksPerNode: 1,
		Model:        &gasnet.LogGP{L: 20 * time.Microsecond, Gp: time.Microsecond},
		DMA:          &gasnet.PCIeDMA{L: 4 * time.Millisecond, Gp: 100 * time.Microsecond},
	}
	RunConfig(cfg, func(rk *Rank) {
		da := NewDeviceAllocator(rk, 1<<16)
		buf := MustNewDeviceArray[uint64](da, cxN)
		if rk.Me() == 0 {
			RunKernel(da, buf, cxN, func(s []uint64) {
				for i := range s {
					s[i] = uint64(i + 1)
				}
			})
		}
		saw := 0 // 1 = payload complete when the RPC ran, 2 = premature
		fs := BroadcastBufWith(rk.WorldTeam(), 0, buf, cxN,
			OpCxAsFuture(),
			RemoteCxAsRPC(func(trk *Rank, dst GPtr[uint64]) {
				if cxCheckLanded(trk, cxSigArgs{Dst: dst, N: cxN}) {
					saw = 1
				} else {
					saw = 2
				}
			}, buf))
		fs.Op.Wait()
		waitUntil(t, rk, "leaf-side broadcast rpc", func() bool { return saw != 0 })
		if saw != 1 {
			t.Errorf("rank %d: broadcast RPC ran before the h2d DMA landed", rk.Me())
		}
		rk.Barrier()
	})
}

// --- last-landing piggyback -----------------------------------------------

// TestCollLastLandingPiggyback pins the conduit's counted remote AM: a
// multi-fragment put to one rank fires its remote RPC from the
// last-landing fragment, observing every fragment's bytes, and costs
// zero extra wire messages (the old implementation gated initiator-side
// and shipped a separate AM after all acks returned).
func TestCollLastLandingPiggyback(t *testing.T) {
	Run(2, func(rk *Rank) {
		dst := MustNewArray[uint64](rk, cxN)
		flag := MustNewArray[uint64](rk, 1)
		obj := NewDistObject(rk, [2]GPtr[uint64]{dst, flag})
		rk.Barrier()
		if rk.Me() == 0 {
			tg := FetchDist[[2]GPtr[uint64]](rk, obj.ID(), 1).Wait()
			src := make([]uint64, cxN)
			for i := range src {
				src[i] = uint64(i + 1)
			}
			var frags []PutPair[uint64]
			for f := 0; f < 4; f++ {
				frags = append(frags, PutPair[uint64]{Src: src[f*4 : (f+1)*4], Dst: tg[0].Add(f * 4)})
			}
			before := rk.World().Network().Endpoint(0).Stats().AMs
			fs := RPutVWith(rk, frags, OpCxAsFuture(),
				RemoteCxAsRPC(cxSignalBody, cxSigArgs{Dst: tg[0], Flag: tg[1], N: cxN}))
			fs.Op.Wait()
			after := rk.World().Network().Endpoint(0).Stats().AMs
			if after != before {
				t.Errorf("notification cost %d extra wire AMs, want 0 (piggyback on the last-landing fragment)", after-before)
			}
			waitUntil(t, rk, "last-landing rpc", func() bool { return readFlag(rk, tg[1]) != 0 })
			if got := readFlag(rk, tg[1]); got != 1 {
				t.Errorf("remote RPC observed partial data (flag=%d)", got)
			}
		}
		rk.Barrier()
	})
}

// --- team split over the tree exchange ------------------------------------

// TestCollSplitAsyncTree splits non-power-of-two teams under every
// topology class — including trees deep enough that the split's
// gather/fan-out genuinely aggregates hop by hop — and pins the
// (color, key, world) ordering contract plus nested splits of split
// teams.
func TestCollSplitAsyncTree(t *testing.T) {
	for _, radix := range []int{0, 1, 3} {
		for _, p := range []int{5, 7} {
			radix, p := radix, p
			t.Run(fmt.Sprintf("radix=%d/p=%d", radix, p), func(t *testing.T) {
				RunConfig(Config{Ranks: p, CollRadix: radix}, func(rk *Rank) {
					world := rk.WorldTeam()
					me := int(rk.Me())
					// Negated keys: team order must follow key, not world rank.
					sub := world.SplitAsync(me%2, -me).Wait()
					var want []Intrank
					for r := p - 1; r >= 0; r-- {
						if r%2 == me%2 {
							want = append(want, Intrank(r))
						}
					}
					if int(sub.RankN()) != len(want) {
						t.Errorf("rank %d: split size %d, want %d", me, sub.RankN(), len(want))
					}
					for i, wr := range want {
						if sub.WorldRank(Intrank(i)) != wr {
							t.Errorf("rank %d: split[%d] = %d, want %d", me, i, sub.WorldRank(Intrank(i)), wr)
						}
						if wr == rk.Me() && sub.RankMe() != Intrank(i) {
							t.Errorf("rank %d: RankMe = %d, want %d", me, sub.RankMe(), i)
						}
					}
					// Collectives on the split team, then a nested split back
					// to singletons: team IDs must stay distinct and usable.
					sum := AllReduce(sub, int64(1), func(a, b int64) int64 { return a + b }).Wait()
					if sum != int64(len(want)) {
						t.Errorf("rank %d: allreduce on split team = %d, want %d", me, sum, len(want))
					}
					solo := sub.Split(me, 0)
					if solo.RankN() != 1 || solo.RankMe() != 0 || solo.ID() == sub.ID() || solo.ID() == world.ID() {
						t.Errorf("rank %d: nested split %v invalid (parent %v)", me, solo, sub)
					}
					rk.Barrier()
				})
			})
		}
	}
}

// TestCollSplitAsyncOverlap pins the non-blocking contract: a member can
// initiate the split, run unrelated communication to completion, and
// only then force the team future.
func TestCollSplitAsyncOverlap(t *testing.T) {
	const p = 6
	RunConfig(Config{Ranks: p}, func(rk *Rank) {
		world := rk.WorldTeam()
		ft := world.SplitAsync(int(rk.Me())%3, int(rk.Me()))
		sum := AllReduce(world, int64(1), func(a, b int64) int64 { return a + b }).Wait()
		if sum != p {
			t.Errorf("rank %d: overlapped allreduce = %d, want %d", rk.Me(), sum, p)
		}
		sub := ft.Wait()
		if sub.RankN() != 2 {
			t.Errorf("rank %d: split size %d, want 2", rk.Me(), sub.RankN())
		}
		rk.Barrier()
	})
}

// --- LogGP radix auto-tuning ----------------------------------------------

// TestCollAutoRadix pins the auto-tuner: argmin of the closed-form tree
// time over the candidate set, flat/small-team and zero-cost-model
// guards, and the world-creation hook that routes CollRadix = 0 through
// it when a machine model is configured.
func TestCollAutoRadix(t *testing.T) {
	m := gasnet.Aries()
	if AutoRadix(nil, 64) != 0 {
		t.Errorf("AutoRadix(nil) must keep the static default")
	}
	if got := AutoRadix(m, collFlatMax); got != 0 {
		t.Errorf("AutoRadix(p=%d) = %d, want 0 (flat cut-over)", collFlatMax, got)
	}
	for _, p := range []int{8, 17, 64, 256} {
		got := AutoRadix(m, p)
		bestT := time.Duration(-1)
		best := 0
		for _, k := range autoRadixCandidates {
			tt := CollTreeTime(m, k, p, 8)
			if tt <= 0 {
				t.Fatalf("CollTreeTime(radix=%d, p=%d) = %v, want > 0", k, p, tt)
			}
			if bestT < 0 || tt < bestT {
				best, bestT = k, tt
			}
		}
		if got != best {
			t.Errorf("AutoRadix(p=%d) = %d, want argmin %d", p, got, best)
		}
	}
	// Deeper trees cost more rounds under a latency-dominated model:
	// binomial must beat flat for a latency-bound size, and the tuned
	// radix must never lose to the binomial default.
	for _, p := range []int{8, 64} {
		tuned := CollTreeTime(m, AutoRadix(m, p), p, 8)
		if bin := CollTreeTime(m, 2, p, 8); tuned > bin {
			t.Errorf("p=%d: tuned radix slower than binomial (%v > %v)", p, tuned, bin)
		}
	}
	// World-creation hook: a modeled world auto-tunes, an unmodeled one
	// keeps the default, and an explicit radix wins over the tuner.
	w := NewWorld(Config{Ranks: 8, Model: m})
	if want := AutoRadix(m, 8); w.Rank(0).coll.radix != want {
		t.Errorf("modeled world radix = %d, want auto-tuned %d", w.Rank(0).coll.radix, want)
	}
	w2 := NewWorld(Config{Ranks: 8})
	if w2.Rank(0).coll.radix != 0 {
		t.Errorf("unmodeled world radix = %d, want 0 (static default)", w2.Rank(0).coll.radix)
	}
	w3 := NewWorld(Config{Ranks: 8, Model: m, CollRadix: 3})
	if w3.Rank(0).coll.radix != 3 {
		t.Errorf("explicit radix = %d, want 3", w3.Rank(0).coll.radix)
	}
}
