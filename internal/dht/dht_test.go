package dht

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"upcxx"
)

func testBothModes(t *testing.T, ranks int, fn func(t *testing.T, rk *upcxx.Rank, d *DHT)) {
	for _, mode := range []Mode{RPCOnly, LandingZone, SignalingPut} {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			upcxx.Run(ranks, func(rk *upcxx.Rank) {
				d := New(rk, mode)
				rk.Barrier()
				fn(t, rk, d)
				rk.Barrier()
			})
		})
	}
}

func TestInsertFind(t *testing.T) {
	testBothModes(t, 4, func(t *testing.T, rk *upcxx.Rank, d *DHT) {
		key := uint64(rk.Me())*1000 + 7
		val := []byte(fmt.Sprintf("value-from-%d", rk.Me()))
		d.Insert(key, val).Wait()
		rk.Barrier()
		// Every rank looks up every other rank's key.
		for r := upcxx.Intrank(0); r < rk.N(); r++ {
			k := uint64(r)*1000 + 7
			got := d.Find(k).Wait()
			want := fmt.Sprintf("value-from-%d", r)
			if string(got) != want {
				t.Errorf("rank %d find(%d) = %q, want %q", rk.Me(), k, got, want)
			}
		}
	})
}

func TestFindMissing(t *testing.T) {
	testBothModes(t, 2, func(t *testing.T, rk *upcxx.Rank, d *DHT) {
		if got := d.Find(0xdeadbeef).Wait(); got != nil {
			t.Errorf("find(missing) = %v", got)
		}
	})
}

func TestOverwrite(t *testing.T) {
	testBothModes(t, 3, func(t *testing.T, rk *upcxx.Rank, d *DHT) {
		if rk.Me() == 0 {
			d.Insert(42, []byte("first")).Wait()
			d.Insert(42, []byte("second-longer")).Wait()
			if got := d.Find(42).Wait(); string(got) != "second-longer" {
				t.Errorf("after overwrite: %q", got)
			}
		}
	})
}

func TestInsertAsyncPipeline(t *testing.T) {
	// Non-blocking inserts tracked by a conjoined future.
	testBothModes(t, 4, func(t *testing.T, rk *upcxx.Rank, d *DHT) {
		conj := upcxx.EmptyFuture(rk)
		base := uint64(rk.Me()) << 32
		for i := uint64(0); i < 50; i++ {
			conj = upcxx.WhenAll(rk, conj, d.Insert(base+i, []byte{byte(i)}))
		}
		conj.Wait()
		rk.Barrier()
		for i := uint64(0); i < 50; i++ {
			got := d.Find(base + i).Wait()
			if len(got) != 1 || got[0] != byte(i) {
				t.Errorf("find(%d) = %v", base+i, got)
			}
		}
	})
}

func TestInsertAsyncSourceReuse(t *testing.T) {
	// The completion-vocabulary hot loop: ONE value buffer reused across
	// every insert — source completion licenses the reuse — with all
	// operation completions on a single promise. Each stored value must
	// be the bytes the buffer held at its insert, not a later scribble.
	upcxx.Run(4, func(rk *upcxx.Rank) {
		d := New(rk, RPCOnly)
		rk.Barrier()
		const n = 64
		buf := make([]byte, 8)
		base := uint64(rk.Me()) << 32
		done := upcxx.NewPromise[upcxx.Unit](rk)
		for i := uint64(0); i < n; i++ {
			for j := range buf {
				buf[j] = byte(i + uint64(j))
			}
			d.InsertAsync(base+i, buf, done).Wait() // source-cx: buffer reusable
		}
		done.Finalize().Wait() // op-cx of every insert: all globally visible
		rk.Barrier()
		for i := uint64(0); i < n; i++ {
			got := d.Find(base + i).Wait()
			if len(got) != 8 {
				t.Fatalf("find(%d): %d bytes", base+i, len(got))
			}
			for j, b := range got {
				if b != byte(i+uint64(j)) {
					t.Errorf("find(%d)[%d] = %d, want %d (buffer reuse corrupted an in-flight insert)",
						base+i, j, b, byte(i+uint64(j)))
				}
			}
		}
		rk.Barrier()
	})
}

func TestTargetDistribution(t *testing.T) {
	upcxx.Run(8, func(rk *upcxx.Rank) {
		if rk.Me() != 0 {
			return
		}
		d := &DHT{rk: rk}
		counts := make([]int, 8)
		for k := uint64(0); k < 8000; k++ {
			counts[d.Target(k)]++
		}
		for r, c := range counts {
			if c < 500 || c > 1500 {
				t.Errorf("rank %d owns %d of 8000 keys (poor spread)", r, c)
			}
		}
	})
}

func TestMutateVertex(t *testing.T) {
	// The paper's graph example: append neighbours to a vertex value.
	upcxx.Run(4, func(rk *upcxx.Rank) {
		d := New(rk, RPCOnly)
		rk.Barrier()
		const vertex = uint64(99)
		// All ranks append their id; home-rank execution serializes them.
		d.Mutate(vertex, func(old, arg []byte) []byte {
			return append(old, arg...)
		}, []byte{byte(rk.Me())}).Wait()
		rk.Barrier()
		got := d.Find(vertex).Wait()
		if len(got) != 4 {
			t.Errorf("rank %d: %d neighbours, want 4", rk.Me(), len(got))
		}
		seen := map[byte]bool{}
		for _, b := range got {
			seen[b] = true
		}
		if len(seen) != 4 {
			t.Errorf("duplicate neighbours: %v", got)
		}
		rk.Barrier()
	})
}

func TestLocalLenAccounting(t *testing.T) {
	testBothModes(t, 4, func(t *testing.T, rk *upcxx.Rank, d *DHT) {
		base := uint64(rk.Me()) * 100
		for i := uint64(0); i < 25; i++ {
			d.Insert(base+i, []byte("x")).Wait()
		}
		rk.Barrier()
		total := upcxx.AllReduce(rk.WorldTeam(), int64(d.LocalLen()),
			func(a, b int64) int64 { return a + b }).Wait()
		if total != 100 {
			t.Errorf("total entries = %d, want 100", total)
		}
	})
}

// Property: the DHT agrees with a plain map under random workloads.
func TestQuickModelEquivalence(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const ops = 60
		type op struct {
			key uint64
			val []byte
		}
		plan := make([]op, ops)
		model := map[uint64][]byte{}
		for i := range plan {
			key := uint64(rng.Intn(20)) // few keys: exercise overwrites
			val := make([]byte, 1+rng.Intn(64))
			rng.Read(val)
			plan[i] = op{key, val}
			model[key] = val
		}
		ok := true
		for _, mode := range []Mode{RPCOnly, LandingZone} {
			upcxx.Run(3, func(rk *upcxx.Rank) {
				d := New(rk, mode)
				rk.Barrier()
				if rk.Me() == 0 {
					for _, o := range plan {
						d.Insert(o.key, o.val).Wait()
					}
					for k, want := range model {
						if got := d.Find(k).Wait(); !bytes.Equal(got, want) {
							ok = false
						}
					}
				}
				rk.Barrier()
			})
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
		t.Fatal(err)
	}
}

func TestBenchHarnessSmoke(t *testing.T) {
	serial := RunSerialBench(BenchConfig{ElemSize: 64, VolumePerRank: 64 * 20, Seed: 1})
	if serial.Inserts != 20 {
		t.Errorf("serial inserts = %d", serial.Inserts)
	}
}

func TestErase(t *testing.T) {
	testBothModes(t, 3, func(t *testing.T, rk *upcxx.Rank, d *DHT) {
		if rk.Me() == 0 {
			d.Insert(55, []byte("gone-soon")).Wait()
			if !d.Erase(55).Wait() {
				t.Error("erase of present key returned false")
			}
			if got := d.Find(55).Wait(); got != nil {
				t.Errorf("find after erase = %v", got)
			}
			if d.Erase(55).Wait() {
				t.Error("erase of absent key returned true")
			}
		}
	})
}

func TestEraseReclaimsSegmentMemory(t *testing.T) {
	// In LandingZone mode, insert/erase cycles must not leak segment
	// memory: a workload far larger than the segment succeeds only if
	// zones are reclaimed.
	upcxx.RunConfig(upcxx.Config{Ranks: 2, SegmentSize: 1 << 20}, func(rk *upcxx.Rank) {
		d := New(rk, LandingZone)
		rk.Barrier()
		if rk.Me() == 0 {
			val := make([]byte, 64<<10)
			for i := 0; i < 100; i++ { // 6.4 MB total through a 1 MB segment
				key := uint64(i)
				d.Insert(key, val).Wait()
				if !d.Erase(key).Wait() {
					t.Fatalf("erase %d failed", i)
				}
			}
		}
		rk.Barrier()
	})
}

func TestBatchInserter(t *testing.T) {
	// Coalesced inserts: every rank floods batched inserts through the
	// per-home-rank batches, rotating buffers batch by batch; the shared
	// promise's future is all operation completions. Every stored value
	// must be the bytes its buffer held at insert time.
	upcxx.Run(4, func(rk *upcxx.Rank) {
		d := New(rk, RPCOnly)
		rk.Barrier()
		const n, batch = 96, 16
		bufs := make([][]byte, batch)
		for i := range bufs {
			bufs[i] = make([]byte, 128)
		}
		base := uint64(rk.Me()) << 32
		done := upcxx.NewPromise[upcxx.Unit](rk)
		bi := d.NewBatchInserter()
		for i := uint64(0); i < n; i++ {
			buf := bufs[i%batch]
			for j := range buf {
				buf[j] = byte(i + uint64(j))
			}
			bi.Insert(base+i, buf)
			if bi.Pending() >= batch {
				bi.FlushAll(done) // captures every borrowed buffer
			}
		}
		bi.FlushAll(done)
		done.Finalize().Wait() // op-cx of every insert: all globally visible
		rk.Barrier()
		for i := uint64(0); i < n; i++ {
			got := d.Find(base + i).Wait()
			if len(got) != 128 {
				t.Fatalf("find(%d): %d bytes", base+i, len(got))
			}
			for j, b := range got {
				if b != byte(i+uint64(j)) {
					t.Errorf("find(%d)[%d] = %d, want %d (batched insert shipped stale or scribbled bytes)",
						base+i, j, b, byte(i+uint64(j)))
				}
			}
		}
		rk.Barrier()
	})
}
