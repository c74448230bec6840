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

// TestKindsDMATimingFloor: a same-rank h2d put pays exactly the DMA
// engine's gap+latency on the model clock, and back-to-back descriptors
// serialize on the engine: the k-th lands k gaps after the first starts.
func TestKindsDMATimingFloor(t *testing.T) {
	net := &LogGP{L: time.Microsecond, Gp: time.Microsecond}
	dma := &PCIeDMA{L: 30 * time.Microsecond, Gp: 20 * time.Microsecond}
	n := NewNetwork(Config{Ranks: 1, Model: net, DMA: dma})
	defer n.Close()
	ep := n.Endpoint(0)
	id := ep.AddDeviceSegment(1 << 12)
	off, _ := ep.SegByID(id).Alloc(64)

	done := false
	t0 := ep.Clock()
	ep.PutSegTag(0, id, off, make([]byte, 64), func() { done = true }, nil, obs.OpTag{})
	pollDone(t, ep, &done)
	if el, want := ep.Clock()-t0, 50*time.Microsecond; el != want {
		t.Fatalf("h2d put took %v, want DMA gap+latency %v", el, want)
	}

	// Flood: k descriptors occupy the copy engine for k*gap.
	const k = 8
	remaining := k
	t0 = ep.Clock()
	for i := 0; i < k; i++ {
		ep.PutSegTag(0, id, off, make([]byte, 64), func() { remaining-- }, nil, obs.OpTag{})
	}
	for remaining > 0 {
		ep.Poll()
	}
	if el, want := ep.Clock()-t0, k*20*time.Microsecond+30*time.Microsecond; el != want {
		t.Fatalf("flood of %d DMAs took %v, want engine serialization plus latency %v", k, el, want)
	}
}

// TestKindsCrossRankChargesBothEngines: a cross-rank h2d put pays the wire
// and the target DMA engine; a d2d same-rank copy pays only one on-node
// DMA (no NIC hops), so it is cheaper than the cross-rank path under a
// model where the wire dominates. Both are exact on the model clock.
func TestKindsCrossRankChargesBothEngines(t *testing.T) {
	net := &LogGP{L: 40 * time.Microsecond, Gp: 5 * time.Microsecond}
	dma := &PCIeDMA{L: 25 * time.Microsecond, Gp: 5 * time.Microsecond}
	n := NewNetwork(Config{Ranks: 2, RanksPerNode: 1, Model: net, DMA: dma})
	defer n.Close()
	src := n.Endpoint(0)
	tgt := n.Endpoint(1)
	id := tgt.AddDeviceSegment(1 << 12)
	off, _ := tgt.SegByID(id).Alloc(64)

	// Cross-rank h2d: wire (gap+L) + DMA (gap+L) + ack (L).
	done := false
	t0 := src.Clock()
	src.PutSegTag(1, id, off, make([]byte, 64), func() { done = true }, nil, obs.OpTag{})
	pollDone(t, src, &done)
	if el, want := src.Clock()-t0, (5+40+5+25+40)*time.Microsecond; el != want {
		t.Fatalf("cross-rank h2d took %v, want wire+DMA+ack %v", el, want)
	}

	// Same-rank d2d: one DMA descriptor, no wire.
	id0 := src.AddDeviceSegment(1 << 12)
	id0b := src.AddDeviceSegment(1 << 12)
	a, _ := src.SegByID(id0).Alloc(64)
	b, _ := src.SegByID(id0b).Alloc(64)
	done = false
	t0 = src.Clock()
	src.CopySegTag(0, id0, a, 0, id0b, b, 64, func() { done = true }, nil, obs.OpTag{})
	pollDone(t, src, &done)
	if el, want := src.Clock()-t0, 30*time.Microsecond; el != want {
		t.Fatalf("same-rank d2d took %v, want its one DMA %v", el, want)
	}
	// The h2d put charged the target rank's engine; the same-rank d2d
	// copy collapsed to exactly one descriptor on the initiator's.
	for ep, k := range map[*Endpoint]obs.DMAKind{tgt: obs.DMAH2D, src: obs.DMAD2DDirect} {
		var n uint64
		for kk := range obs.NumDMAKinds {
			n += ep.Counters().Load(kk.Descriptors())
		}
		if n != 1 || ep.Counters().Load(k.Descriptors()) != 1 {
			t.Fatalf("rank %d: %d DMA descriptors, want exactly one, %s", ep.Rank(), n, k)
		}
	}
}

// TestKindsIncastPerInitiatorQueues pins what the model leaves out: a rank's
// NIC and copy engine keep one queue per initiating rank, so initiators
// putting to one device, or getting from one rank, do not contend there.
// Each finishes at the model time it takes alone. Were they one queue, the
// bookings of different initiators would depend on how the host interleaves
// the ranks.
func TestKindsIncastPerInitiatorQueues(t *testing.T) {
	net := &LogGP{L: 40 * time.Microsecond, Gp: 5 * time.Microsecond}
	dma := &PCIeDMA{L: 25 * time.Microsecond, Gp: 5 * time.Microsecond}
	const k = 4
	run := func(initiators int) []time.Duration {
		n := NewNetwork(Config{Ranks: 1 + initiators, RanksPerNode: 1, Model: net, DMA: dma})
		defer n.Close()
		tgt := n.Endpoint(0)
		id := tgt.AddDeviceSegment(1 << 12)
		off, _ := tgt.SegByID(id).Alloc(64)
		left := make([]int, 1+initiators)
		for r := 1; r <= initiators; r++ {
			ep := n.Endpoint(Rank(r))
			left[r] = 2 * k
			for i := 0; i < k; i++ {
				ep.PutSegTag(0, id, off, make([]byte, 64), func() { left[r]-- }, nil, obs.OpTag{})
				ep.Get(0, 0, make([]byte, 64), func() { left[r]-- })
			}
		}
		var took []time.Duration
		for r := 1; r <= initiators; r++ {
			ep := n.Endpoint(Rank(r))
			for left[r] > 0 {
				ep.Poll()
			}
			took = append(took, ep.Clock())
		}
		return took
	}
	alone := run(1)[0]
	for r, el := range run(3) {
		if el != alone {
			t.Fatalf("initiator %d of 3 took %v to put %d to one device and get %d from its rank; alone it takes %v",
				r+1, el, k, k, alone)
		}
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
		called := false
		// The zero-delay conduit finishes every copy in its call: it reports
		// so, and never calls or queues the callback.
		if !ep.CopySegTag(tc.src.rank, ss, so, tc.dst.rank, ds, do, len(pat), func() { called = true }, nil, obs.OpTag{}) {
			t.Fatalf("copy %+v: the zero-delay conduit did not report it done in its call", tc)
		}
		if ep.Poll(); called || ep.Pending() {
			t.Fatalf("copy %+v done in its call also delivered its callback (%v) or left work queued", tc, called)
		}
		got := n.Endpoint(tc.dst.rank).SegByID(ds).Bytes(do, len(pat))
		for i := range pat {
			if got[i] != pat[i] {
				t.Fatalf("copy %+v byte %d = %d, want %d", tc, i, got[i], pat[i])
			}
		}
	}
}
