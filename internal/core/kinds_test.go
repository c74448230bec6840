package upcxx

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"upcxx/internal/serial"
)

// Cross-kind conformance matrix: every {host,device} × {host,device} ×
// {same-rank,cross-rank} copy pair must move the right bytes, with
// completions on the initiating persona. The whole file runs under
// `go test -race` in CI (the DMA engine, device segments, and completion
// routing must be race-clean).

const kindsN = 256 // elements per transfer

// fillKind writes seed+i into the n elements at p, which must be owned by
// rk (device fills go through the sanctioned kernel-launch path).
func fillKind(rk *Rank, da *DeviceAllocator, p GPtr[int32], n int, seed int32) {
	if p.Kind == KindDevice {
		RunKernel(da, p, n, func(s []int32) {
			for i := range s {
				s[i] = seed + int32(i)
			}
		})
		return
	}
	s := Local(rk, p, n)
	for i := range s {
		s[i] = seed + int32(i)
	}
}

// readKind returns a copy of the n elements at p, owned by rk.
func readKind(rk *Rank, da *DeviceAllocator, p GPtr[int32], n int) []int32 {
	out := make([]int32, n)
	if p.Kind == KindDevice {
		RunKernel(da, p, n, func(s []int32) { copy(out, s) })
		return out
	}
	copy(out, Local(rk, p, n))
	return out
}

func allocKind(rk *Rank, da *DeviceAllocator, dev bool, n int) GPtr[int32] {
	if dev {
		return MustNewDeviceArray[int32](da, n)
	}
	return MustNewArray[int32](rk, n)
}

type kindCase struct {
	srcDev, dstDev   bool
	srcRank, dstRank Intrank
}

func (c kindCase) name() string {
	k := func(dev bool) string {
		if dev {
			return "device"
		}
		return "host"
	}
	loc := "same-rank"
	if c.srcRank != c.dstRank {
		loc = "cross-rank"
	}
	if c.srcRank != 0 && c.dstRank != 0 {
		loc = "third-party"
	}
	return fmt.Sprintf("%s-to-%s/%s", k(c.srcDev), k(c.dstDev), loc)
}

func kindMatrixCases() []kindCase {
	var cases []kindCase
	for _, srcDev := range []bool{false, true} {
		for _, dstDev := range []bool{false, true} {
			// Same-rank: both sides on the initiator.
			cases = append(cases, kindCase{srcDev, dstDev, 0, 0})
			// Cross-rank: source at the initiator, destination remote.
			cases = append(cases, kindCase{srcDev, dstDev, 0, 1})
		}
	}
	// Third-party copies: the initiator owns neither side.
	cases = append(cases,
		kindCase{true, true, 1, 2},
		kindCase{false, true, 1, 2},
	)
	return cases
}

// TestKindsCopyMatrix drives CopyGG over every kind pair and checks the
// payload from both the initiator (via RGet) and the destination owner
// (via Local / kernel access).
func TestKindsCopyMatrix(t *testing.T) {
	for _, tc := range kindMatrixCases() {
		tc := tc
		t.Run(tc.name(), func(t *testing.T) {
			Run(3, func(rk *Rank) {
				da := NewDeviceAllocator(rk, 1<<16)
				src := allocKind(rk, da, tc.srcDev, kindsN)
				dst := allocKind(rk, da, tc.dstDev, kindsN)
				srcObj := NewDistObject(rk, src)
				dstObj := NewDistObject(rk, dst)
				seed := int32(1000)
				if rk.Me() == tc.srcRank {
					fillKind(rk, da, src, kindsN, seed)
				}
				rk.Barrier()
				if rk.Me() == 0 {
					s := FetchDist[GPtr[int32]](rk, srcObj.ID(), tc.srcRank).Wait()
					d := FetchDist[GPtr[int32]](rk, dstObj.ID(), tc.dstRank).Wait()
					if s.Kind != src.Kind || d.Kind != dst.Kind {
						t.Errorf("kind lost on the wire: fetched %v / %v", s, d)
					}
					CopyGG(rk, s, d, kindsN).Wait()
					buf := make([]int32, kindsN)
					RGet(rk, d, buf).Wait()
					for i, v := range buf {
						if v != seed+int32(i) {
							t.Errorf("initiator readback [%d] = %d, want %d", i, v, seed+int32(i))
							break
						}
					}
				}
				rk.Barrier()
				if rk.Me() == tc.dstRank {
					got := readKind(rk, da, dst, kindsN)
					for i, v := range got {
						if v != seed+int32(i) {
							t.Errorf("owner readback [%d] = %d, want %d", i, v, seed+int32(i))
							break
						}
					}
				}
				rk.Barrier()
			})
		})
	}
}

// TestKindsRPutRGetDevice covers the put/get entry points (and thereby the
// V/Indexed/Strided2D variants, which compose them) against device
// destinations and sources, same-rank and cross-rank.
func TestKindsRPutRGetDevice(t *testing.T) {
	for _, cross := range []bool{false, true} {
		name := "same-rank"
		target := Intrank(0)
		if cross {
			name, target = "cross-rank", 1
		}
		t.Run(name, func(t *testing.T) {
			Run(2, func(rk *Rank) {
				da := NewDeviceAllocator(rk, 1<<16)
				dev := MustNewDeviceArray[int32](da, kindsN)
				obj := NewDistObject(rk, dev)
				rk.Barrier()
				if rk.Me() == 0 {
					d := FetchDist[GPtr[int32]](rk, obj.ID(), target).Wait()
					src := make([]int32, kindsN)
					for i := range src {
						src[i] = 42 + int32(i)
					}
					RPut(rk, src, d).Wait()
					got := make([]int32, kindsN)
					RGet(rk, d, got).Wait()
					for i, v := range got {
						if v != 42+int32(i) {
							t.Errorf("device rput/rget [%d] = %d, want %d", i, v, 42+int32(i))
							break
						}
					}
					// Strided section through the device path.
					rows, rowLen := 4, 8
					sec := make([]int32, rows*rowLen)
					for i := range sec {
						sec[i] = -int32(i)
					}
					RPutStrided2D(rk, sec, rowLen, d, 2*rowLen, rowLen, rows).Wait()
					back := make([]int32, rows*rowLen)
					RGetStrided2D(rk, d, 2*rowLen, back, rowLen, rowLen, rows).Wait()
					for i, v := range back {
						if v != -int32(i) {
							t.Errorf("device strided [%d] = %d, want %d", i, v, -int32(i))
							break
						}
					}
				}
				rk.Barrier()
			})
		})
	}
}

// TestKindsDeviceAllocatorGrow: DeviceAllocator.Grow extends the device
// segment without invalidating outstanding GPtrs — local ones and ones a
// peer fetched before the growth keep addressing the same allocation —
// and an allocation that exhausted the segment succeeds after growth.
// Growth on a closed allocator (and non-positive growth) faults.
func TestKindsDeviceAllocatorGrow(t *testing.T) {
	const n = 1024
	Run(2, func(rk *Rank) {
		da := NewDeviceAllocator(rk, n*4) // exactly one n-element int32 array
		a := MustNewDeviceArray[int32](da, n)
		fillKind(rk, da, a, n, 100)
		obj := NewDistObject(rk, a)
		rk.Barrier()
		peer := (rk.Me() + 1) % 2
		remote := FetchDist[GPtr[int32]](rk, obj.ID(), peer).Wait()
		rk.Barrier()

		if _, err := NewDeviceArray[int32](da, 16); err == nil {
			t.Error("allocation from the exhausted segment should fail")
		}
		da.Grow(n * 8)
		if da.Size() != n*12 {
			t.Errorf("grown allocator size = %d, want %d", da.Size(), n*12)
		}
		b := MustNewDeviceArray[int32](da, n) // fails before Grow, fits after
		fillKind(rk, da, b, n, 5000)
		rk.Barrier()

		// The pre-growth pointer still reads its values locally...
		for i, v := range readKind(rk, da, a, n) {
			if v != 100+int32(i) {
				t.Errorf("local pre-growth read [%d] = %d, want %d", i, v, 100+int32(i))
				break
			}
		}
		// ...and through the peer's pre-growth fetched GPtr.
		buf := make([]int32, n)
		RGet(rk, remote, buf).Wait()
		for i, v := range buf {
			if v != 100+int32(i) {
				t.Errorf("remote pre-growth read [%d] = %d, want %d", i, v, 100+int32(i))
				break
			}
		}
		rk.Barrier()

		mustPanicWith(t, "must be positive", func() { da.Grow(0) })
		da2 := NewDeviceAllocator(rk, 256)
		da2.Close()
		mustPanicWith(t, "allocator is closed", func() { da2.Grow(64) })
		rk.Barrier()
	})
}

func mustPanicWith(t *testing.T, substr string, f func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Errorf("expected panic containing %q, got none", substr)
			return
		}
		if !strings.Contains(fmt.Sprint(r), substr) {
			t.Errorf("panic %v does not mention %q", r, substr)
		}
	}()
	f()
}

// TestKindsPanics: nil pointers, kind-mismatched (forged) pointers, wild
// device ids, out-of-bounds device offsets, host-only operations.
func TestKindsPanics(t *testing.T) {
	Run(1, func(rk *Rank) {
		if rk.Me() != 0 {
			return
		}
		da := NewDeviceAllocator(rk, 1<<12)
		dev := MustNewDeviceArray[int32](da, 8)
		buf := make([]int32, 8)

		mustPanicWith(t, "nil GPtr", func() { RPut(rk, buf, NilGPtr[int32]()) })
		mustPanicWith(t, "nil GPtr", func() { RGet(rk, NilGPtr[int32](), buf) })
		mustPanicWith(t, "nil GPtr", func() { CopyGG(rk, NilGPtr[int32](), dev, 8) })

		// Forged pointers: host kind carrying a device segment and vice versa.
		forgedHost := GPtr[int32]{Owner: 0, Kind: KindHost, Dev: 1}
		mustPanicWith(t, "kind mismatch", func() { RPut(rk, buf, forgedHost) })
		forgedDev := GPtr[int32]{Owner: 0, Kind: KindDevice, Dev: 0}
		mustPanicWith(t, "kind mismatch", func() { RGet(rk, forgedDev, buf) })
		unknownKind := GPtr[int32]{Owner: 0, Kind: MemKind(7), Dev: 0}
		mustPanicWith(t, "unknown memory kind", func() { RPut(rk, buf, unknownKind) })

		// Wild device id: no such segment registered.
		wild := GPtr[int32]{Owner: 0, Kind: KindDevice, Dev: 9}
		mustPanicWith(t, "wild device pointer", func() { RPut(rk, buf, wild) })

		// Out-of-bounds device access.
		mustPanicWith(t, "out of bounds", func() { RPut(rk, buf, dev.Add(1<<12)) })

		// Device memory is not host-addressable and has no AMO path.
		mustPanicWith(t, "not host-addressable", func() { Local(rk, dev, 8) })
		devWord := MustNewDeviceArray[uint64](da, 1)
		mustPanicWith(t, "host-kind memory", func() { NewAtomicU64(rk).FetchAdd(devWord, 1) })

		// Arithmetic across kinds is meaningless.
		host := MustNewArray[int32](rk, 8)
		mustPanicWith(t, "across memory kinds", func() { dev.Diff(host) })
	})
}

// TestKindsDeviceAlloc: allocator bookkeeping, Delete routing by kind,
// and pointer identity through Add.
func TestKindsDeviceAlloc(t *testing.T) {
	Run(1, func(rk *Rank) {
		da := NewDeviceAllocator(rk, 1<<12)
		before := da.FreeBytes()
		p := MustNewDeviceArray[int64](da, 16)
		if p.Kind != KindDevice || p.Dev != da.DeviceID() {
			t.Errorf("device pointer mis-tagged: %v", p)
		}
		if da.FreeBytes() >= before {
			t.Errorf("device alloc did not consume segment space")
		}
		q := p.Add(4)
		if q.Diff(p) != 4 || q.Kind != KindDevice || q.Dev != p.Dev {
			t.Errorf("device pointer arithmetic lost the kind: %v", q)
		}
		if err := Delete(rk, p); err != nil {
			t.Errorf("Delete of device allocation: %v", err)
		}
		if da.FreeBytes() != before {
			t.Errorf("device Delete did not return space: %d != %d", da.FreeBytes(), before)
		}
		// A second allocator on the same rank gets a distinct segment.
		db := NewDeviceAllocator(rk, 1<<12)
		if db.DeviceID() == da.DeviceID() {
			t.Errorf("second device allocator reused id %d", da.DeviceID())
		}
	})
}

// TestKindsGPtrWire checks the kind-tagged wire form round-trips through
// the general serializer (the form RPC arguments use) and rejects forged
// encodings.
func TestKindsGPtrWire(t *testing.T) {
	Run(1, func(rk *Rank) {
		da := NewDeviceAllocator(rk, 1<<12)
		for _, p := range []GPtr[float64]{
			NilGPtr[float64](),
			MustNewArray[float64](rk, 4),
			MustNewDeviceArray[float64](da, 4).Add(2),
		} {
			b, err := serial.Marshal(p)
			if err != nil {
				t.Fatalf("marshal %v: %v", p, err)
			}
			var q GPtr[float64]
			if err := serial.Unmarshal(b, &q); err != nil {
				t.Fatalf("unmarshal %v: %v", p, err)
			}
			if q != p {
				t.Errorf("wire round trip %v -> %v", p, q)
			}
		}
		// Forged pointers must not reach the wire, and forged bytes must
		// not decode.
		if _, err := serial.Marshal(GPtr[float64]{Owner: 0, Kind: KindHost, Dev: 3}); err == nil {
			t.Errorf("marshal of kind-mismatched pointer succeeded")
		}
		bad, _ := serial.Marshal(MustNewArray[float64](rk, 1))
		bad[8] = 9 // corrupt the kind byte
		var q GPtr[float64]
		if err := serial.Unmarshal(bad, &q); err == nil {
			t.Errorf("decode of unknown-kind wire form succeeded")
		}
	})
}

// TestKindsConcurrent shakes the DMA paths from many goroutines per rank
// with a dedicated progress thread — the configuration the persona layer
// exists for — and is the core of the -race matrix job.
func TestKindsConcurrent(t *testing.T) {
	const users, iters = 4, 16
	RunConfig(Config{Ranks: 2, ProgressThread: true}, func(rk *Rank) {
		da := NewDeviceAllocator(rk, 1<<20)
		// One device strip per (user, rank) so transfers never alias: devs
		// are published to the peer (its users put and get them), priv
		// stay rank-local for the same-rank d2d.
		devs := make([]GPtr[int32], users)
		priv := make([]GPtr[int32], users)
		for u := range devs {
			devs[u] = MustNewDeviceArray[int32](da, kindsN)
			priv[u] = MustNewDeviceArray[int32](da, kindsN)
		}
		obj := NewDistObject(rk, devs)
		rk.Barrier()
		peer := (rk.Me() + 1) % rk.N()
		remote := FetchDist[[]GPtr[int32]](rk, obj.ID(), peer).Wait()
		var wg sync.WaitGroup
		for u := 0; u < users; u++ {
			u := u
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer DetachDefaultPersonas()
				src := make([]int32, kindsN)
				got := make([]int32, kindsN)
				for it := 0; it < iters; it++ {
					seed := int32(u*1000 + it)
					for i := range src {
						src[i] = seed + int32(i)
					}
					// h2d to the peer's device strip, d2h back, then a
					// same-rank d2d between my strip and itself.
					RPut(rk, src, remote[u]).Wait()
					RGet(rk, remote[u], got).Wait()
					for i := range got {
						if got[i] != seed+int32(i) {
							t.Errorf("user %d iter %d: [%d] = %d, want %d", u, it, i, got[i], seed+int32(i))
							return
						}
					}
					CopyGG(rk, priv[u], priv[u].Add(0), kindsN).Wait()
				}
			}()
		}
		wg.Wait()
		rk.Barrier()
	})
}
