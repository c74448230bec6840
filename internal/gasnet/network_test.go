package gasnet

import (
	"encoding/binary"
	"sync"
	"testing"
	"time"

	"upcxx/internal/obs"
)

func pollUntil(t *testing.T, ep *Endpoint, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		ep.Poll()
		if time.Now().After(deadline) {
			t.Fatal("pollUntil timed out")
		}
	}
}

func TestPutDelivers(t *testing.T) {
	n := NewNetwork(Config{Ranks: 2, SegmentSize: 1 << 12})
	defer n.Close()
	src := n.Endpoint(0)
	dst := n.Endpoint(1)
	off, err := dst.Segment().Alloc(8)
	if err != nil {
		t.Fatal(err)
	}
	data := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	acked := false
	src.Put(1, off, data, func() { acked = true })
	pollUntil(t, src, func() bool { return acked })
	got := dst.Segment().Bytes(off, 8)
	for i := range data {
		if got[i] != data[i] {
			t.Fatalf("byte %d = %d, want %d", i, got[i], data[i])
		}
	}
	st := src.Stats()
	if st.Puts != 1 || st.PutBytes != 8 {
		t.Errorf("stats = %+v", st)
	}
}

func TestPutSourceReusableImmediately(t *testing.T) {
	n := NewNetwork(Config{Ranks: 2})
	defer n.Close()
	src := n.Endpoint(0)
	dst := n.Endpoint(1)
	off, _ := dst.Segment().Alloc(4)
	buf := []byte{9, 9, 9, 9}
	done := false
	src.Put(1, off, buf, func() { done = true })
	buf[0] = 0 // must not affect the transfer
	pollUntil(t, src, func() bool { return done })
	if dst.Segment().Bytes(off, 4)[0] != 9 {
		t.Fatal("put observed source mutation after injection")
	}
}

func TestGetDelivers(t *testing.T) {
	n := NewNetwork(Config{Ranks: 2})
	defer n.Close()
	a := n.Endpoint(0)
	b := n.Endpoint(1)
	off, _ := b.Segment().Alloc(8)
	binary.LittleEndian.PutUint64(b.Segment().Bytes(off, 8), 0xfeed)
	dst := make([]byte, 8)
	done := false
	a.Get(1, off, dst, func() { done = true })
	pollUntil(t, a, func() bool { return done })
	if got := binary.LittleEndian.Uint64(dst); got != 0xfeed {
		t.Fatalf("get = %#x", got)
	}
}

func TestAMRequiresAttentiveness(t *testing.T) {
	n := NewNetwork(Config{Ranks: 2})
	defer n.Close()
	executed := false
	h := n.RegisterAM(func(ep *Endpoint, src Rank, payload []byte, aux any) {
		executed = true
		if src != 0 {
			t.Errorf("src = %d", src)
		}
		if string(payload) != "ping" {
			t.Errorf("payload = %q", payload)
		}
		if aux.(int) != 42 {
			t.Errorf("aux = %v", aux)
		}
	})
	n.Endpoint(0).AM(1, h, []byte("ping"), 42)
	// The AM must not run until the target polls.
	time.Sleep(time.Millisecond)
	if executed {
		t.Fatal("AM executed without target attentiveness")
	}
	pollUntil(t, n.Endpoint(1), func() bool { return executed })
}

func TestAMPayloadCaptured(t *testing.T) {
	n := NewNetwork(Config{Ranks: 2})
	defer n.Close()
	var got []byte
	h := n.RegisterAM(func(ep *Endpoint, src Rank, payload []byte, _ any) {
		got = append([]byte(nil), payload...)
	})
	buf := []byte{7}
	n.Endpoint(0).AM(1, h, buf, nil)
	buf[0] = 0 // mutation after send must not be visible
	pollUntil(t, n.Endpoint(1), func() bool { return got != nil })
	if got[0] != 7 {
		t.Fatal("AM payload not captured at injection")
	}
}

func TestAMOFetchAdd(t *testing.T) {
	n := NewNetwork(Config{Ranks: 2})
	defer n.Close()
	a := n.Endpoint(0)
	b := n.Endpoint(1)
	off, _ := b.Segment().Alloc(8)
	b.Segment().WriteU64(off, 100)
	var old uint64
	done := false
	a.AMO(1, off, AMOAdd, 5, 0, func(o uint64) { old = o; done = true })
	pollUntil(t, a, func() bool { return done })
	if old != 100 {
		t.Errorf("old = %d", old)
	}
	if got := b.Segment().ReadU64(off); got != 105 {
		t.Errorf("value = %d", got)
	}
}

func TestAMOConcurrentFetchAdd(t *testing.T) {
	// Many ranks hammer one counter; the final value must be exact
	// (NIC-offloaded atomics are serialized at the target).
	const ranks = 8
	const each = 200
	n := NewNetwork(Config{Ranks: ranks})
	defer n.Close()
	tgt := n.Endpoint(0)
	off, _ := tgt.Segment().Alloc(8)
	var wg sync.WaitGroup
	for r := 1; r < ranks; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			ep := n.Endpoint(Rank(r))
			remaining := each
			ep2 := ep
			for i := 0; i < each; i++ {
				ep.AMO(0, off, AMOAdd, 1, 0, func(uint64) { remaining-- })
			}
			for remaining > 0 {
				ep2.Poll()
			}
		}(r)
	}
	wg.Wait()
	if got := tgt.Segment().ReadU64(off); got != (ranks-1)*each {
		t.Fatalf("counter = %d, want %d", got, (ranks-1)*each)
	}
}

func TestPollCompletionsDoesNotRunAMs(t *testing.T) {
	n := NewNetwork(Config{Ranks: 2})
	defer n.Close()
	ran := false
	h := n.RegisterAM(func(*Endpoint, Rank, []byte, any) { ran = true })
	n.Endpoint(0).AM(1, h, nil, nil)
	tgt := n.Endpoint(1)
	deadline := time.Now().Add(time.Second)
	for !tgt.Pending() && time.Now().Before(deadline) {
	}
	tgt.PollCompletions()
	if ran {
		t.Fatal("PollCompletions executed an AM handler")
	}
	pollUntil(t, tgt, func() bool { return ran })
}

func TestRecursivePollAMsIsNoop(t *testing.T) {
	n := NewNetwork(Config{Ranks: 1})
	defer n.Close()
	ep := n.Endpoint(0)
	depth := 0
	var h HandlerID
	h = n.RegisterAM(func(ep *Endpoint, src Rank, payload []byte, _ any) {
		depth++
		if depth > 1 {
			t.Error("handler re-entered")
		}
		// A recursive poll from handler context must be a no-op.
		if got := ep.PollAMs(); got != 0 {
			t.Errorf("recursive PollAMs = %d", got)
		}
		depth--
	})
	ep.AM(0, h, nil, nil)
	ep.AM(0, h, nil, nil)
	pollUntil(t, ep, func() bool { return !ep.Pending() })
}

// TestWaitPendingMidDrain: AMs queued behind a drain in progress are not
// the caller's to take, so WaitPending must not report them at once — a
// second waiter of the rank would otherwise spin on it without ever
// blocking while the draining goroutine runs a long handler.
func TestWaitPendingMidDrain(t *testing.T) {
	n := NewNetwork(Config{Ranks: 1})
	defer n.Close()
	ep := n.Endpoint(0)
	var h HandlerID
	first := true
	h = n.RegisterAM(func(ep *Endpoint, src Rank, payload []byte, _ any) {
		if !first {
			return
		}
		first = false
		ep.AM(0, h, nil, nil) // queued behind this drain
		<-ep.notify           // its ring; the doorbell is empty again
		const park = 2 * time.Millisecond
		t0 := time.Now()
		if !ep.WaitPending(park) {
			t.Error("WaitPending reported nothing queued after its timeout")
		}
		if el := time.Since(t0); el < park {
			t.Errorf("WaitPending returned after %v mid-drain, want it to block for %v", el, park)
		}
	})
	ep.AM(0, h, nil, nil)
	pollUntil(t, ep, func() bool { return !ep.Pending() })
}

func TestNodeMapping(t *testing.T) {
	n := NewNetwork(Config{Ranks: 8, RanksPerNode: 4})
	defer n.Close()
	if n.Node(0) != 0 || n.Node(3) != 0 || n.Node(4) != 1 || n.Node(7) != 1 {
		t.Fatal("node mapping wrong")
	}
	if !n.Intra(0, 3) || n.Intra(3, 4) {
		t.Fatal("intra detection wrong")
	}
}

func TestRealtimeModelLatency(t *testing.T) {
	// With a LogGP model installed, a put round trip must take at least
	// o + gap + L + L(ack).
	model := &LogGP{O: 10 * time.Microsecond, L: 30 * time.Microsecond, Gp: 5 * time.Microsecond}
	n := NewNetwork(Config{Ranks: 2, RanksPerNode: 1, Model: model})
	defer n.Close()
	src := n.Endpoint(0)
	dst := n.Endpoint(1)
	off, _ := dst.Segment().Alloc(8)
	min := 10*time.Microsecond + 5*time.Microsecond + 2*30*time.Microsecond
	// The lower bound is a hard model property; the upper bound depends
	// on OS scheduling, so take the best of several round trips before
	// declaring the engine wildly slow.
	best := time.Duration(1 << 62)
	for attempt := 0; attempt < 5; attempt++ {
		done := false
		t0 := time.Now()
		src.Put(1, off, make([]byte, 8), func() { done = true })
		for !done {
			src.Poll()
		}
		elapsed := time.Since(t0)
		if elapsed < min {
			t.Fatalf("round trip %v faster than model minimum %v", elapsed, min)
		}
		if elapsed < best {
			best = elapsed
		}
	}
	if best > 100*min {
		t.Fatalf("best round trip %v wildly slower than model minimum %v", best, min)
	}
}

func TestRealtimeBandwidthGap(t *testing.T) {
	// Flooding k messages must take at least k * gap at the source NIC.
	model := &LogGP{Gp: 20 * time.Microsecond, L: time.Microsecond}
	n := NewNetwork(Config{Ranks: 2, RanksPerNode: 1, Model: model})
	defer n.Close()
	src := n.Endpoint(0)
	dst := n.Endpoint(1)
	off, _ := dst.Segment().Alloc(8)
	const k = 10
	remaining := k
	t0 := time.Now()
	for i := 0; i < k; i++ {
		src.Put(1, off, make([]byte, 8), func() { remaining-- })
	}
	for remaining > 0 {
		src.Poll()
	}
	if elapsed := time.Since(t0); elapsed < k*20*time.Microsecond {
		t.Fatalf("flood of %d took %v, less than NIC serialization %v", k, elapsed, k*20*time.Microsecond)
	}
}

func TestRegisterAMAfterTrafficPanicsOnUnknown(t *testing.T) {
	n := NewNetwork(Config{Ranks: 1})
	defer n.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("unregistered handler should panic at dispatch")
		}
	}()
	n.Endpoint(0).AM(0, HandlerID(99), nil, nil)
	for i := 0; i < 100; i++ {
		n.Endpoint(0).Poll()
	}
}

// TestWaitPendingAllocs pins the park's timer reuse: a warmed WaitPending
// allocates nothing, whether it times out or is rung — every blocking
// operation on a process conduit parks once, so a timer per park would be
// a heap object per operation.
func TestWaitPendingAllocs(t *testing.T) {
	n := NewNetwork(Config{Ranks: 1, SegmentSize: 1 << 12})
	defer n.Close()
	ep := n.Endpoint(0)
	if ep.WaitPending(time.Microsecond) { // warm the timer pool
		t.Fatal("WaitPending on a fresh endpoint reported work")
	}
	if a := testing.AllocsPerRun(100, func() {
		if ep.WaitPending(time.Microsecond) {
			t.Error("timed-out WaitPending reported work")
		}
	}); a != 0 {
		t.Errorf("WaitPending that times out: %v allocs, want 0", a)
	}
	// Rung from another goroutine while (or just before) the waiter parks.
	kick, stop := make(chan struct{}), make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-kick:
				ep.Ring()
			case <-stop:
				return
			}
		}
	}()
	if a := testing.AllocsPerRun(100, func() {
		kick <- struct{}{}
		if !ep.WaitPending(10 * time.Second) {
			t.Error("rung WaitPending reported no work")
		}
	}); a != 0 {
		t.Errorf("WaitPending that is rung: %v allocs, want 0", a)
	}
	close(stop)
	wg.Wait()
}

// TestAMAllocs pins the two ends of "encoded once": the in-process conduit
// delivers a payload the caller handed over (AMTag) as it is, through queue
// buffers the drains swap back, and the wire conduit gathers head, owned
// buffer and borrowed fragments at the tail of the peer's send queue, bytes the
// writer hands back for reuse — nothing is allocated at either.
func TestAMAllocs(t *testing.T) {
	n := NewNetwork(Config{Ranks: 2, SegmentSize: 1 << 12})
	defer n.Close()
	got := 0
	h := n.RegisterAM(func(_ *Endpoint, _ Rank, p []byte, _ any) { got += len(p) })
	payload := make([]byte, 8)
	send := func() {
		n.Endpoint(0).AMTag(1, h, payload, nil, nil, obs.OpTag{})
		n.Endpoint(1).PollAMs()
	}
	send() // the queue and its spare each grow once
	send()
	if a := testing.AllocsPerRun(100, send); a != 0 || got != 8*103 {
		t.Errorf("loopback AM of an owned buffer: %v allocs (want 0), %d bytes delivered (want %d)", a, got, 8*103)
	}
	// A wire with one tcp peer and nobody writing: the queue grows once.
	peer := testPeer(1, nil)
	w := &wire{peers: []*peerConn{nil, peer}}
	if a := testing.AllocsPerRun(100, func() {
		peer.wbuf = peer.wbuf[:0]
		w.am(nil, 1, h, payload[:3], [][]byte{payload[3:]}, nil, obs.OpTag{})
	}); a != 0 || len(peer.wbuf) != 4+8+8 {
		t.Errorf("wire AM of an 8-byte payload: %v allocs (want 0), a frame of %d bytes queued (want 20)", a, len(peer.wbuf))
	}
	// More fragments than am lists on its stack (a flushed batch's): same frame.
	frags, whole := make([][]byte, 12), pattern(12*100, 1)
	for i := range frags {
		frags[i] = whole[i*100 : (i+1)*100]
	}
	peer.wbuf = peer.wbuf[:0]
	w.am(nil, 1, h, []byte("head"), frags, nil, obs.OpTag{})
	if f, err := decodeFrameBody(peer.wbuf[4:]); err != nil || string(f.payload) != "head"+string(whole) {
		t.Errorf("wire AM of 12 fragments: %v, %d-byte payload", err, len(f.payload))
	}
}
