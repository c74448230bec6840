package upcxx

import (
	"sync"
	"sync/atomic"
	"testing"
)

func TestRunSPMD(t *testing.T) {
	var count atomic.Int32
	Run(4, func(rk *Rank) {
		count.Add(1)
		if rk.N() != 4 {
			t.Errorf("N = %d", rk.N())
		}
		if rk.Me() < 0 || rk.Me() >= 4 {
			t.Errorf("Me = %d", rk.Me())
		}
	})
	if count.Load() != 4 {
		t.Fatalf("ran %d ranks", count.Load())
	}
}

func TestAllocLocalRoundTrip(t *testing.T) {
	Run(1, func(rk *Rank) {
		p := MustNewArray[float64](rk, 10)
		s := Local(rk, p, 10)
		for i := range s {
			s[i] = float64(i) * 1.5
		}
		// Arithmetic + Local must see the same memory.
		s2 := Local(rk, p.Add(5), 5)
		if s2[0] != 7.5 {
			t.Errorf("p+5 = %v", s2[0])
		}
		// Local-to-global inverse.
		back := ToGlobal(rk, s[5:])
		if back != p.Add(5) {
			t.Errorf("ToGlobal = %v, want %v", back, p.Add(5))
		}
		if p.Add(5).Diff(p) != 5 {
			t.Errorf("Diff = %d", p.Add(5).Diff(p))
		}
		if err := Delete(rk, p); err != nil {
			t.Error(err)
		}
	})
}

func TestGPtrNil(t *testing.T) {
	p := NilGPtr[int32]()
	if !p.IsNil() {
		t.Fatal("NilGPtr not nil")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("arithmetic on nil GPtr should panic")
		}
	}()
	p.Add(1)
}

func TestRPutRGet(t *testing.T) {
	Run(2, func(rk *Rank) {
		// Rank 1 allocates; rank 0 learns the pointer by RPC, puts, gets.
		var remote GPtr[uint64]
		if rk.Me() == 1 {
			p := MustNewArray[uint64](rk, 4)
			d := NewDistObject(rk, p)
			_ = d
		} else {
			_ = NewDistObject(rk, NilGPtr[uint64]())
		}
		rk.Barrier()
		if rk.Me() == 0 {
			remote = FetchDist[GPtr[uint64]](rk, 0, 1).Wait()
			if remote.Where() != 1 {
				t.Errorf("remote owner = %d", remote.Where())
			}
			src := []uint64{10, 20, 30, 40}
			RPut(rk, src, remote).Wait()
			dst := make([]uint64, 4)
			RGet(rk, remote, dst).Wait()
			for i := range src {
				if dst[i] != src[i] {
					t.Errorf("elem %d = %d", i, dst[i])
				}
			}
			// One value each way.
			RPut(rk, []uint64{99}, remote.Add(2)).Wait()
			if got := GetValue(rk, remote.Add(2)).Wait(); got != 99 {
				t.Errorf("GetValue = %d", got)
			}
		}
		rk.Barrier()
	})
}

func TestFutureCombinators(t *testing.T) {
	Run(1, func(rk *Rank) {
		f := ReadyFuture(rk, 21)
		g := Then(f, func(v int) int { return v * 2 })
		if g.Wait() != 42 {
			t.Errorf("Then = %d", g.Result())
		}
		h := ThenFut(g, func(v int) Future[string] {
			return ReadyFuture(rk, "x")
		})
		if h.Wait() != "x" {
			t.Errorf("ThenFut = %q", h.Result())
		}
		pair := WhenAll2(ReadyFuture(rk, 1), ReadyFuture(rk, "a")).Wait()
		if pair.First != 1 || pair.Second != "a" {
			t.Errorf("WhenAll2 = %+v", pair)
		}
		all := WhenAllSlice(rk, []Future[int]{
			ReadyFuture(rk, 1), ReadyFuture(rk, 2), ReadyFuture(rk, 3),
		}).Wait()
		if len(all) != 3 || all[0]+all[1]+all[2] != 6 {
			t.Errorf("WhenAllSlice = %v", all)
		}
		if !WhenAll(rk).Ready() {
			t.Error("empty WhenAll not ready")
		}
	})
}

func TestPromiseCounter(t *testing.T) {
	Run(1, func(rk *Rank) {
		p := NewPromise[Unit](rk)
		p.RequireAnonymous(3)
		f := p.Finalize()
		if f.Ready() {
			t.Fatal("ready too early")
		}
		p.FulfillAnonymous(2)
		if f.Ready() {
			t.Fatal("ready after 2 of 3")
		}
		p.FulfillAnonymous(1)
		if !f.Ready() {
			t.Fatal("not ready after all fulfilled")
		}
	})
}

func TestPromiseOverFulfillPanics(t *testing.T) {
	Run(1, func(rk *Rank) {
		p := NewPromise[Unit](rk)
		p.Finalize()
		defer func() {
			if recover() == nil {
				t.Error("over-fulfill should panic")
			}
		}()
		p.FulfillAnonymous(1)
	})
}

func TestRPutAsPromise(t *testing.T) {
	// The paper's flood idiom: many puts tracked by one promise.
	Run(2, func(rk *Rank) {
		var remote GPtr[uint64]
		if rk.Me() == 1 {
			_ = NewDistObject(rk, MustNewArray[uint64](rk, 64))
		} else {
			_ = NewDistObject(rk, NilGPtr[uint64]())
		}
		rk.Barrier()
		if rk.Me() == 0 {
			remote = FetchDist[GPtr[uint64]](rk, 0, 1).Wait()
			p := NewPromise[Unit](rk)
			for i := 0; i < 64; i++ {
				RPutPromise(rk, []uint64{uint64(i)}, remote.Add(i), p)
			}
			p.Finalize().Wait()
			dst := make([]uint64, 64)
			RGet(rk, remote, dst).Wait()
			for i, v := range dst {
				if v != uint64(i) {
					t.Errorf("elem %d = %d", i, v)
				}
			}
		}
		rk.Barrier()
	})
}

func TestRPCBasic(t *testing.T) {
	Run(4, func(rk *Rank) {
		target := (rk.Me() + 1) % rk.N()
		got := RPC(rk, target, func(trk *Rank, x int64) int64 {
			if trk.Me() != target {
				t.Errorf("rpc ran on %d, want %d", trk.Me(), target)
			}
			return x * 10
		}, int64(rk.Me())).Wait()
		if got != int64(rk.Me())*10 {
			t.Errorf("rpc result = %d", got)
		}
		rk.Barrier()
	})
}

func TestRPCVariants(t *testing.T) {
	Run(2, func(rk *Rank) {
		if rk.Me() == 0 {
			// No argument is a Unit; several are a struct.
			r0 := RPC(rk, 1, func(trk *Rank, _ Unit) Intrank { return trk.Me() }, Unit{}).Wait()
			if r0 != 1 {
				t.Errorf("RPC(Unit) = %d", r0)
			}
			type pair struct {
				A int32
				B string
			}
			r2 := RPC(rk, 1, func(trk *Rank, p pair) string {
				if p.A != 7 {
					t.Errorf("a = %d", p.A)
				}
				return p.B + "!"
			}, pair{7, "hey"}).Wait()
			if r2 != "hey!" {
				t.Errorf("RPC(struct) = %q", r2)
			}
		}
		rk.Barrier()
	})
}

func TestRPCFF(t *testing.T) {
	Run(2, func(rk *Rank) {
		p := MustNewArray[uint64](rk, 1)
		_ = NewDistObject(rk, p)
		rk.Barrier()
		if rk.Me() == 0 {
			RPCFF(rk, 1, func(trk *Rank, v uint64) {
				d, _ := LookupDist[GPtr[uint64]](trk, 0)
				Local(trk, *d.Value(), 1)[0] = v
			}, uint64(777))
		}
		rk.Barrier() // barrier traffic forces delivery before check
		if rk.Me() == 1 {
			// Spin until the ff rpc lands (ordering vs barrier is not
			// guaranteed).
			for Local(rk, p, 1)[0] != 777 {
				rk.Progress()
			}
		}
		rk.Barrier()
	})
}

func TestRPCSelf(t *testing.T) {
	Run(1, func(rk *Rank) {
		got := RPC(rk, 0, func(trk *Rank, s string) string { return s + s }, "ab").Wait()
		if got != "abab" {
			t.Errorf("self rpc = %q", got)
		}
	})
}

func TestRPCChainedWithRPut(t *testing.T) {
	// The paper's DHT insert pattern: RPC returns a landing zone, a .then
	// callback rputs into it.
	Run(2, func(rk *Rank) {
		if rk.Me() == 0 {
			val := []uint64{5, 6, 7}
			fut := RPC(rk, 1, func(trk *Rank, n int64) GPtr[uint64] {
				return MustNewArray[uint64](trk, int(n))
			}, int64(len(val)))
			done := ThenFut(fut, func(dst GPtr[uint64]) Future[Unit] {
				return RPut(rk, val, dst)
			})
			done.Wait()
			// Validate at the target via another RPC round trip.
			lz := fut.Result()
			sum := RPC(rk, 1, func(trk *Rank, p GPtr[uint64]) uint64 {
				s := Local(trk, p, 3)
				return s[0] + s[1] + s[2]
			}, lz).Wait()
			if sum != 18 {
				t.Errorf("sum = %d", sum)
			}
		}
		rk.Barrier()
	})
}

func TestViewRPC(t *testing.T) {
	Run(2, func(rk *Rank) {
		if rk.Me() == 0 {
			data := []float64{1, 2, 3, 4}
			got := RPC(rk, 1, func(trk *Rank, v View[float64]) float64 {
				sum := 0.0
				for _, x := range v.Elements() {
					sum += x
				}
				return sum
			}, MakeView(data)).Wait()
			if got != 10 {
				t.Errorf("view sum = %v", got)
			}
		}
		rk.Barrier()
	})
}

func TestBarrierSynchronizes(t *testing.T) {
	const ranks = 8
	var phase [ranks]atomic.Int32
	Run(ranks, func(rk *Rank) {
		phase[rk.Me()].Store(1)
		rk.Barrier()
		// After the barrier every rank must have reached phase 1.
		for r := 0; r < ranks; r++ {
			if phase[r].Load() != 1 {
				t.Errorf("rank %d saw rank %d at phase 0 after barrier", rk.Me(), r)
			}
		}
	})
}

func TestBarrierManyEpochs(t *testing.T) {
	var mu sync.Mutex
	counts := map[int]int{}
	Run(5, func(rk *Rank) {
		for epoch := 0; epoch < 20; epoch++ {
			mu.Lock()
			counts[epoch]++
			mine := counts[epoch]
			mu.Unlock()
			_ = mine
			rk.Barrier()
			mu.Lock()
			if counts[epoch] != 5 {
				t.Errorf("epoch %d: %d ranks at barrier exit", epoch, counts[epoch])
			}
			mu.Unlock()
			rk.Barrier()
		}
	})
}

func TestBroadcast(t *testing.T) {
	Run(7, func(rk *Rank) {
		team := rk.WorldTeam()
		val := ""
		if rk.Me() == 2 {
			val = "from-root"
		}
		got := Broadcast(team, 2, val).Wait()
		if got != "from-root" {
			t.Errorf("rank %d broadcast = %q", rk.Me(), got)
		}
		rk.Barrier()
	})
}

func TestReduceAndAllReduce(t *testing.T) {
	Run(6, func(rk *Rank) {
		team := rk.WorldTeam()
		sum := func(a, b int64) int64 { return a + b }
		got := ReduceOne(team, int64(rk.Me()+1), sum).Wait()
		if rk.Me() == 0 && got != 21 { // 1+2+...+6
			t.Errorf("reduce = %d", got)
		}
		all := AllReduce(team, int64(rk.Me()+1), sum).Wait()
		if all != 21 {
			t.Errorf("rank %d allreduce = %d", rk.Me(), all)
		}
		rk.Barrier()
	})
}

func TestTeamSplit(t *testing.T) {
	Run(8, func(rk *Rank) {
		team := rk.WorldTeam()
		color := int(rk.Me()) % 2
		sub := team.Split(color, int(rk.Me()))
		if sub.RankN() != 4 {
			t.Errorf("subteam size = %d", sub.RankN())
		}
		// Even ranks in color 0, odd in color 1, ordered by key.
		want := Intrank(2*int(sub.RankMe()) + color)
		if sub.WorldRank(sub.RankMe()) != rk.Me() || want != rk.Me() {
			t.Errorf("rank %d: team rank %d (want world %d)", rk.Me(), sub.RankMe(), want)
		}
		// Collectives work on the subteam.
		total := AllReduce(sub, int64(1), func(a, b int64) int64 { return a + b }).Wait()
		if total != 4 {
			t.Errorf("subteam allreduce = %d", total)
		}
		sub.Barrier()
		rk.Barrier()
	})
}

func TestAtomics(t *testing.T) {
	Run(4, func(rk *Rank) {
		var counter GPtr[uint64]
		if rk.Me() == 0 {
			counter = MustNewArray[uint64](rk, 1)
			_ = NewDistObject(rk, counter)
		} else {
			_ = NewDistObject(rk, NilGPtr[uint64]())
		}
		rk.Barrier()
		counter = FetchDist[GPtr[uint64]](rk, 0, 0).Wait()
		ad := NewAtomicU64(rk)
		const each = 50
		p := NewPromise[Unit](rk)
		for i := 0; i < each; i++ {
			p.RequireAnonymous(1)
			f := ad.FetchAdd(counter, 1)
			ThenDo(f, func(uint64) { p.FulfillAnonymous(1) })
		}
		p.Finalize().Wait()
		rk.Barrier()
		if rk.Me() == 0 {
			if got := ad.Load(counter).Wait(); got != 4*each {
				t.Errorf("counter = %d, want %d", got, 4*each)
			}
		}
		rk.Barrier()
		// The bitwise fetch-ops, first on the owner's local word, then on
		// the same word from a remote rank: each returns the previous value
		// and leaves the combination.
		for _, who := range []Intrank{0, 1} {
			if rk.Me() == who {
				ad.Store(counter, 0b1100).Wait()
				for _, c := range []struct {
					name          string
					op            func(GPtr[uint64], uint64) Future[uint64]
					arg, old, now uint64
				}{
					{"FetchAnd", ad.FetchAnd, 0b1010, 0b1100, 0b1000},
					{"FetchOr", ad.FetchOr, 0b0011, 0b1000, 0b1011},
					{"FetchXor", ad.FetchXor, 0b1111, 0b1011, 0b0100},
				} {
					if old := c.op(counter, c.arg).Wait(); old != c.old {
						t.Errorf("rank %d: %s(%#b) returned %#b, want %#b", who, c.name, c.arg, old, c.old)
					}
					if now := ad.Load(counter).Wait(); now != c.now {
						t.Errorf("rank %d: after %s(%#b) the word is %#b, want %#b", who, c.name, c.arg, now, c.now)
					}
				}
			}
			rk.Barrier()
		}
	})
}

func TestAtomicsI64MinMax(t *testing.T) {
	Run(2, func(rk *Rank) {
		var cell GPtr[int64]
		if rk.Me() == 0 {
			cell = MustNewArray[int64](rk, 1)
			Local(rk, cell, 1)[0] = 10
			_ = NewDistObject(rk, cell)
		} else {
			_ = NewDistObject(rk, NilGPtr[int64]())
		}
		rk.Barrier()
		if rk.Me() == 1 {
			cell = FetchDist[GPtr[int64]](rk, 0, 0).Wait()
			ad := NewAtomicI64(rk)
			if old := ad.FetchMin(cell, -3).Wait(); old != 10 {
				t.Errorf("FetchMin old = %d", old)
			}
			if got := ad.Load(cell).Wait(); got != -3 {
				t.Errorf("after min = %d", got)
			}
			if old := ad.FetchMax(cell, 100).Wait(); old != -3 {
				t.Errorf("FetchMax old = %d", old)
			}
			prev := ad.CompareExchange(cell, 100, 55).Wait()
			if prev != 100 {
				t.Errorf("CAS prev = %d", prev)
			}
			if got := ad.Load(cell).Wait(); got != 55 {
				t.Errorf("after CAS = %d", got)
			}
		}
		rk.Barrier()
	})
}

func TestDistObjectFetchBeforeConstruction(t *testing.T) {
	// A fetch that races ahead of remote construction must defer, not fail.
	Run(2, func(rk *Rank) {
		if rk.Me() == 0 {
			// Fetch immediately; rank 1 constructs only after some delay
			// (its own progress loop) — no barrier beforehand.
			got := FetchDist[int64](rk, 0, 1).Wait()
			if got != 1234 {
				t.Errorf("fetch = %d", got)
			}
		} else {
			// Delay construction by handling some progress first.
			for i := 0; i < 100; i++ {
				rk.Progress()
			}
			_ = NewDistObject(rk, int64(1234))
		}
		rk.Barrier()
	})
}

func TestVectorIndexedStridedRMA(t *testing.T) {
	Run(2, func(rk *Rank) {
		var base GPtr[int32]
		if rk.Me() == 1 {
			base = MustNewArray[int32](rk, 64)
			_ = NewDistObject(rk, base)
		} else {
			_ = NewDistObject(rk, NilGPtr[int32]())
		}
		rk.Barrier()
		if rk.Me() == 0 {
			base = FetchDist[GPtr[int32]](rk, 0, 1).Wait()
			// Indexed put: blocks of 2 at offsets 0, 10, 20.
			src := []int32{1, 2, 3, 4, 5, 6}
			RPutIndexedWith(rk, src, base, []int{0, 10, 20}, 2).Op.Wait()
			dst := make([]int32, 6)
			RGetIndexedWith(rk, base, []int{0, 10, 20}, 2, dst).Op.Wait()
			for i := range src {
				if dst[i] != src[i] {
					t.Errorf("indexed elem %d = %d", i, dst[i])
				}
			}
			// Strided put: 3 rows of 4, source stride 8, dest stride 16.
			flat := make([]int32, 24)
			for i := range flat {
				flat[i] = int32(100 + i)
			}
			RPutStrided2DWith(rk, flat, 8, base, 16, 4, 3).Op.Wait()
			row := make([]int32, 4)
			RGet(rk, base.Add(32), row).Wait() // third row at 2*16
			for j := 0; j < 4; j++ {
				if row[j] != int32(100+2*8+j) {
					t.Errorf("strided row elem %d = %d", j, row[j])
				}
			}
			// Vector get of two fragments.
			a := make([]int32, 2)
			b := make([]int32, 2)
			RGetVWith(rk, []GetPair[int32]{{base, a}, {base.Add(10), b}}).Op.Wait()
			// The strided put above rewrote base[0..3] with 100..103;
			// the indexed put's block at offset 10 is untouched.
			if a[0] != 100 || b[0] != 3 {
				t.Errorf("vector get = %v %v", a, b)
			}
		}
		rk.Barrier()
	})
}

func TestCopyGG(t *testing.T) {
	Run(3, func(rk *Rank) {
		p := MustNewArray[uint64](rk, 4)
		s := Local(rk, p, 4)
		for i := range s {
			s[i] = uint64(rk.Me())*100 + uint64(i)
		}
		_ = NewDistObject(rk, p)
		rk.Barrier()
		if rk.Me() == 0 {
			p1 := FetchDist[GPtr[uint64]](rk, 0, 1).Wait()
			p2 := FetchDist[GPtr[uint64]](rk, 0, 2).Wait()
			// Third-party copy rank1 -> rank2.
			CopyGG(rk, p1, p2, 4).Wait()
			dst := make([]uint64, 4)
			RGet(rk, p2, dst).Wait()
			if dst[0] != 100 || dst[3] != 103 {
				t.Errorf("third-party copy = %v", dst)
			}
			// Local source -> remote.
			CopyGG(rk, p, p1, 4).Wait()
			RGet(rk, p1, dst).Wait()
			if dst[0] != 0 || dst[3] != 3 {
				t.Errorf("put-side copy = %v", dst)
			}
			// Remote -> local dest.
			CopyGG(rk, p2, p, 4).Wait()
			if s[0] != 100 {
				t.Errorf("get-side copy = %v", s[:4])
			}
		}
		rk.Barrier()
	})
}

func TestWaitInRestrictedContextPanics(t *testing.T) {
	Run(2, func(rk *Rank) {
		if rk.Me() == 0 {
			got := RPC(rk, 1, func(trk *Rank, _ Unit) bool {
				defer func() { recover() }()
				// Waiting on an unready future inside an RPC body must
				// panic rather than deadlock.
				f := RPC(trk, 0, func(*Rank, Unit) int { return 1 }, Unit{})
				if !f.Ready() {
					f.Wait()
					return false // unreachable if panic fired
				}
				return true
			}, Unit{}).Wait()
			_ = got
		}
		rk.Barrier()
	})
}

func TestProgressQueuesObservable(t *testing.T) {
	Run(2, func(rk *Rank) {
		if rk.Me() == 0 {
			f := RPC(rk, 1, func(*Rank, Unit) int { return 1 }, Unit{})
			// After injection the op is active until the reply arrives.
			if rk.PendingOps() == 0 && !f.Ready() {
				t.Error("op not tracked in actQ")
			}
			f.Wait()
			if rk.PendingOps() != 0 {
				t.Errorf("actQ = %d after completion", rk.PendingOps())
			}
		}
		rk.Barrier()
	})
}

func TestLPC(t *testing.T) {
	Run(1, func(rk *Rank) {
		ran := false
		LPCTo(rk.CurrentPersona(), func() { ran = true })
		if ran {
			t.Fatal("LPC ran synchronously")
		}
		rk.Progress()
		if !ran {
			t.Fatal("LPC did not run at progress")
		}
	})
}

func TestMultipleEpochs(t *testing.T) {
	w := NewWorld(Config{Ranks: 3})
	defer w.Close()
	var ptrs [3]GPtr[uint64]
	w.Run(func(rk *Rank) {
		ptrs[rk.Me()] = MustNewArray[uint64](rk, 1)
		Local(rk, ptrs[rk.Me()], 1)[0] = uint64(rk.Me()) + 1
	})
	// Segment state persists into the next epoch.
	w.Run(func(rk *Rank) {
		next := (rk.Me() + 1) % 3
		got := GetValue(rk, ptrs[next]).Wait()
		if got != uint64(next)+1 {
			t.Errorf("epoch 2: read %d", got)
		}
	})
}

func TestManyRanksSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	Run(64, func(rk *Rank) {
		team := rk.WorldTeam()
		sum := AllReduce(team, int64(1), func(a, b int64) int64 { return a + b }).Wait()
		if sum != 64 {
			t.Errorf("allreduce = %d", sum)
		}
		got := RPC(rk, (rk.Me()+17)%64, func(trk *Rank, x int64) int64 {
			return x + int64(trk.Me())
		}, int64(1)).Wait()
		if got != 1+int64((rk.Me()+17)%64) {
			t.Errorf("rpc = %d", got)
		}
		rk.Barrier()
	})
}
