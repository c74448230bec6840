package gasnet

import (
	"testing"
	"time"

	"upcxx/internal/obs"
)

func TestDeviceSegmentRegistry(t *testing.T) {
	n := NewNetwork(Config{Ranks: 2})
	defer n.Close()
	ep := n.Endpoint(0)
	if ep.Segment().Kind() != KindHost {
		t.Fatal("host segment mis-kinded")
	}
	id := ep.AddDeviceSegment(1 << 12)
	if id != 1 || ep.DeviceSegments() != 1 {
		t.Fatalf("first device segment got id %d (%d registered)", id, ep.DeviceSegments())
	}
	if ep.SegByID(id).Kind() != KindDevice {
		t.Fatal("device segment mis-kinded")
	}
	if ep.SegByID(HostSeg) != ep.Segment() {
		t.Fatal("SegByID(0) is not the host segment")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("wild device id should panic")
		}
	}()
	ep.SegByID(7)
}

// TestDeviceSegmentGrow: in-place growth keeps offsets (and therefore
// every outstanding global pointer) stable, appends the new capacity to
// the free list with coalescing, and satisfies an allocation that failed
// before growth. Growing the host segment id or a closed device segment
// faults.
func TestDeviceSegmentGrow(t *testing.T) {
	n := NewNetwork(Config{Ranks: 1})
	defer n.Close()
	ep := n.Endpoint(0)
	id := ep.AddDeviceSegment(64)
	seg := ep.SegByID(id)

	pat := make([]byte, 48)
	for i := range pat {
		pat[i] = byte(i*11 + 5)
	}
	off, err := seg.Alloc(48)
	if err != nil {
		t.Fatal(err)
	}
	copy(seg.Bytes(off, 48), pat)
	if _, err := seg.Alloc(48); err == nil {
		t.Fatal("second alloc should exhaust the 64-byte segment")
	}

	ep.GrowDeviceSegment(id, 128)
	if seg.Size() != 192 {
		t.Fatalf("grown segment size = %d, want 192", seg.Size())
	}
	// Offsets are stable: the pre-growth bytes sit where they were.
	got := seg.Bytes(off, 48)
	for i := range pat {
		if got[i] != pat[i] {
			t.Fatalf("pre-growth byte %d = %d after growth, want %d", i, got[i], pat[i])
		}
	}
	// The 16-byte tail fragment coalesced with the appended 128 bytes:
	// a 144-byte allocation fits only in the merged block.
	big, err := seg.Alloc(144)
	if err != nil {
		t.Fatalf("allocation spanning the coalesced growth failed: %v", err)
	}
	if big != 48 {
		t.Fatalf("coalesced block starts at %d, want 48", big)
	}

	mustPanic := func(what string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s should panic", what)
			}
		}()
		fn()
	}
	mustPanic("non-positive growth", func() { seg.Grow(0) })
	mustPanic("growing the host segment id", func() { ep.GrowDeviceSegment(HostSeg, 64) })
	mustPanic("growing a wild segment id", func() { ep.GrowDeviceSegment(9, 64) })
	ep.CloseDeviceSegment(id)
	mustPanic("growing a closed segment", func() { ep.GrowDeviceSegment(id, 64) })
}

// pollDone spins ep.Poll until done flips, with a deadline.
func pollDone(t *testing.T, ep *Endpoint, done *bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !*done {
		ep.Poll()
		if time.Now().After(deadline) {
			t.Fatal("transfer never completed")
		}
	}
}

// TestKindsDMATimingFloor: a same-rank h2d put must pay at least the DMA
// engine's gap+latency; back-to-back descriptors serialize on the engine.
// Lower bounds only — upper bounds depend on OS scheduling.
func TestKindsDMATimingFloor(t *testing.T) {
	net := &LogGP{L: time.Microsecond, Gp: time.Microsecond}
	dma := &PCIeDMA{L: 30 * time.Microsecond, Gp: 20 * time.Microsecond}
	n := NewNetwork(Config{Ranks: 1, Model: net, DMA: dma})
	defer n.Close()
	ep := n.Endpoint(0)
	id := ep.AddDeviceSegment(1 << 12)
	off, _ := ep.SegByID(id).Alloc(64)

	done := false
	t0 := time.Now()
	ep.PutSegTag(0, id, off, make([]byte, 64), func() { done = true }, nil, obs.OpTag{})
	pollDone(t, ep, &done)
	if elapsed := time.Since(t0); elapsed < 50*time.Microsecond {
		t.Fatalf("h2d put took %v, less than DMA gap+latency (50µs)", elapsed)
	}

	// Flood: k descriptors must occupy the copy engine for k*gap.
	const k = 8
	remaining := k
	t0 = time.Now()
	for i := 0; i < k; i++ {
		ep.PutSegTag(0, id, off, make([]byte, 64), func() { remaining-- }, nil, obs.OpTag{})
	}
	for remaining > 0 {
		ep.Poll()
	}
	if elapsed := time.Since(t0); elapsed < k*20*time.Microsecond {
		t.Fatalf("flood of %d DMAs took %v, less than engine serialization %v",
			k, elapsed, k*20*time.Microsecond)
	}
}

// TestKindsCrossRankChargesBothEngines: a cross-rank h2d put pays the wire
// and the target DMA engine; a d2d same-rank copy pays only one on-node
// DMA (no NIC hops), so it must be cheaper than the cross-rank path under
// a model where the wire dominates.
func TestKindsCrossRankChargesBothEngines(t *testing.T) {
	net := &LogGP{L: 40 * time.Microsecond, Gp: 5 * time.Microsecond}
	dma := &PCIeDMA{L: 25 * time.Microsecond, Gp: 5 * time.Microsecond}
	n := NewNetwork(Config{Ranks: 2, RanksPerNode: 1, Model: net, DMA: dma})
	defer n.Close()
	src := n.Endpoint(0)
	tgt := n.Endpoint(1)
	id := tgt.AddDeviceSegment(1 << 12)
	off, _ := tgt.SegByID(id).Alloc(64)

	// Cross-rank h2d: wire (gap+L) + DMA (gap+L) + ack (L) at minimum.
	done := false
	t0 := time.Now()
	src.PutSegTag(1, id, off, make([]byte, 64), func() { done = true }, nil, obs.OpTag{})
	pollDone(t, src, &done)
	minC := (5 + 40 + 5 + 25 + 40) * time.Microsecond
	if elapsed := time.Since(t0); elapsed < minC {
		t.Fatalf("cross-rank h2d took %v, less than wire+DMA floor %v", elapsed, minC)
	}

	// Same-rank d2d: one DMA descriptor, no wire.
	id0 := src.AddDeviceSegment(1 << 12)
	id0b := src.AddDeviceSegment(1 << 12)
	a, _ := src.SegByID(id0).Alloc(64)
	b, _ := src.SegByID(id0b).Alloc(64)
	done = false
	t0 = time.Now()
	src.CopySegTag(0, id0, a, 0, id0b, b, 64, func() { done = true }, nil, obs.OpTag{})
	pollDone(t, src, &done)
	if elapsed := time.Since(t0); elapsed < 30*time.Microsecond {
		t.Fatalf("same-rank d2d took %v, less than its DMA floor 30µs", elapsed)
	}
	// The h2d put charged the target rank's engine; the same-rank d2d
	// copy collapsed to exactly one descriptor on the initiator's.
	if got := tgt.Stats().DMAs; got != 1 {
		t.Fatalf("expected exactly 1 DMA descriptor on rank 1, got %d", got)
	}
	if got := src.Stats().DMAs; got != 1 {
		t.Fatalf("expected exactly 1 DMA descriptor on rank 0 (collapsed d2d), got %d", got)
	}
}

// TestKindsCopySegMatrixNoDelay: byte-level correctness of every CopySeg
// shape on the zero-delay conduit, including a third-party initiator.
func TestKindsCopySegMatrixNoDelay(t *testing.T) {
	n := NewNetwork(Config{Ranks: 3})
	defer n.Close()
	pat := make([]byte, 128)
	for i := range pat {
		pat[i] = byte(i*7 + 3)
	}
	type side struct {
		rank Rank
		dev  bool
	}
	cases := []struct{ src, dst side }{
		{side{0, false}, side{0, true}},  // h2d same
		{side{0, true}, side{0, false}},  // d2h same
		{side{0, true}, side{0, true}},   // d2d same
		{side{0, false}, side{0, false}}, // h2h same
		{side{0, true}, side{1, true}},   // d2d cross
		{side{0, false}, side{1, true}},  // h2d cross
		{side{1, true}, side{2, true}},   // d2d third-party
	}
	for _, tc := range cases {
		seg := func(s side) SegID {
			if !s.dev {
				return HostSeg
			}
			return n.Endpoint(s.rank).AddDeviceSegment(1 << 12)
		}
		ss, ds := seg(tc.src), seg(tc.dst)
		so, _ := n.Endpoint(tc.src.rank).SegByID(ss).Alloc(len(pat))
		do, _ := n.Endpoint(tc.dst.rank).SegByID(ds).Alloc(len(pat))
		copy(n.Endpoint(tc.src.rank).SegByID(ss).Bytes(so, len(pat)), pat)
		ep := n.Endpoint(0)
		done := false
		ep.CopySegTag(tc.src.rank, ss, so, tc.dst.rank, ds, do, len(pat), func() { done = true }, nil, obs.OpTag{})
		pollDone(t, ep, &done)
		got := n.Endpoint(tc.dst.rank).SegByID(ds).Bytes(do, len(pat))
		for i := range pat {
			if got[i] != pat[i] {
				t.Fatalf("copy %+v byte %d = %d, want %d", tc, i, got[i], pat[i])
			}
		}
	}
}
