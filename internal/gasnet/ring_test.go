package gasnet

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"upcxx/internal/obs"
)

// drainRing empties r the way the wire does — span by span, records decoded
// from the private copy — and reports how many spans said the producer waits.
func drainRing(t *testing.T, r *shmRing, fn func(body []byte)) (wakes int) {
	t.Helper()
	for {
		span, pos, wake, err := r.take()
		if wake {
			wakes++
		}
		if err == nil {
			err = ringRecords(span, pos, fn)
		}
		if err != nil {
			t.Fatalf("drain: %v", err)
		}
		if span == nil {
			return wakes
		}
	}
}

func TestRingRoundTrip(t *testing.T) {
	r := mapRing(make([]byte, ringBytes))
	var got [][]byte
	// Fill/drain repeatedly so the cursor wraps several times.
	rec := make([]byte, 1000)
	for i := 0; i < 500; i++ {
		rec[0] = byte(i)
		if pushed, _ := r.push([][]byte{rec[:400], nil, rec[400:]}); !pushed {
			t.Fatalf("push %d failed with empty consumer backlog", i)
		}
		if i%3 == 2 {
			drainRing(t, r, func(b []byte) { got = append(got, b) })
		}
	}
	drainRing(t, r, func(b []byte) { got = append(got, b) })
	if len(got) != 500 {
		t.Fatalf("drained %d records, want 500", len(got))
	}
	for i, b := range got {
		if len(b) != 1000 || b[0] != byte(i) {
			t.Fatalf("record %d corrupt (len %d, head %d)", i, len(b), b[0])
		}
	}
}

// TestRingFullSetsWaiting: a full ring refuses the push and leaves the
// waiting flag set; the drain that frees the space reports it exactly once.
func TestRingFullSetsWaiting(t *testing.T) {
	r := mapRing(make([]byte, ringBytes))
	rec := [][]byte{make([]byte, ringMaxRec)}
	n := 0
	for {
		if pushed, _ := r.push(rec); !pushed {
			break
		}
		if atomic.LoadUint32(r.waiting) != 0 {
			t.Fatal("waiting set by a push that found room")
		}
		if n++; n > ringCap {
			t.Fatal("ring never filled")
		}
	}
	if n == 0 || atomic.LoadUint32(r.waiting) != 1 {
		t.Fatalf("ring took %d records, waiting = %d after the refused push", n, *r.waiting)
	}
	drained := 0
	if wakes := drainRing(t, r, func([]byte) { drained++ }); drained != n || wakes != 1 {
		t.Fatalf("drained %d of %d records, %d spans reported a waiting producer (want 1)", drained, n, wakes)
	}
	if pushed, _ := r.push(rec); !pushed {
		t.Fatal("push after drain failed")
	}
	if wakes := drainRing(t, r, func([]byte) {}); wakes != 0 {
		t.Fatal("a producer that found room was reported waiting")
	}
}

func TestRingDoorbellOnIdle(t *testing.T) {
	r := mapRing(make([]byte, ringBytes))
	one := func(s string) [][]byte { return [][]byte{[]byte(s)} }
	// First push into an empty (caught-up) ring must request a bell.
	if _, bell := r.push(one("x")); !bell {
		t.Fatal("no doorbell for push into idle ring")
	}
	// Back-to-back push with backlog must not re-ring.
	if _, bell := r.push(one("y")); bell {
		t.Fatal("doorbell rung with consumer backlog present")
	}
	drainRing(t, r, func([]byte) {})
	if _, bell := r.push(one("z")); !bell {
		t.Fatal("no doorbell after consumer caught up")
	}
}

// TestRingModel drives seeded random record sizes and push/drain
// interleavings against a slice FIFO: what push accepts, refuses and rings
// for is predicted from the cursors, and every span must hand back exactly
// the records pushed since the last one, in order. Each seed must meet every
// shape of the layout: a wrap marker, a pad too small for one, a full ring,
// a span that crosses the wrap.
func TestRingModel(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		r := mapRing(make([]byte, ringBytes))
		var model [][]byte
		var marks, smallPads, fulls, wakes, wrapped int
		for step := 0; step < 12000; step++ {
			// Stretches where the consumer keeps up alternate with floods.
			if drainOneIn := 4 + step/400%2*60; rng.Intn(drainOneIn) > 0 {
				n := 1 + rng.Intn(ringMaxRec)
				if rng.Intn(3) == 0 {
					n = 1 + rng.Intn(48)
				}
				avail := ringCap - int(*r.head%ringCap)
				if k := avail - 4 - (1 + rng.Intn(3)); rng.Intn(6) == 0 && k >= 1 && k <= ringMaxRec {
					n = k // ends 1..3 bytes short of the wrap
				}
				rec := bytes.Repeat([]byte{byte(step)}, n)
				rec[0], rec[n-1] = byte(step>>8), byte(n)
				a, b := rng.Intn(n+1), rng.Intn(n+1)
				parts := [][]byte{rec[:min(a, b)], nil, rec[min(a, b):max(a, b)], rec[max(a, b):]}
				pad := 0
				if avail < 4+n {
					pad = avail
				}
				fits := ringCap-int(*r.head-*r.tail) >= pad+4+n
				pushed, bell := r.push(parts)
				if pushed != fits || bell != (pushed && len(model) == 0) {
					t.Fatalf("seed %d step %d: push(%d bytes) = (%v, %v) with %d records unread; room predicted %v", seed, step, n, pushed, bell, len(model), fits)
				}
				if !pushed {
					if fulls++; atomic.LoadUint32(r.waiting) != 1 {
						t.Fatalf("seed %d step %d: refused push left waiting clear", seed, step)
					}
					continue
				}
				model = append(model, rec)
				if pad >= 4 {
					marks++
				} else if pad > 0 {
					smallPads++
				}
				continue
			}
			flagged := atomic.LoadUint32(r.waiting) == 1
			span, pos, wake, err := r.take()
			if err != nil || wake != flagged || atomic.LoadUint32(r.waiting) != 0 || (span == nil) != (len(model) == 0) {
				t.Fatalf("seed %d step %d: take = (%d bytes, wake %v, %v) with %d records unread, waiting was %v", seed, step, len(span), wake, err, len(model), flagged)
			}
			if wake {
				wakes++
			}
			if pos+len(span) > ringCap {
				wrapped++
			}
			i := 0
			err = ringRecords(span, pos, func(body []byte) {
				if i >= len(model) || !bytes.Equal(body, model[i]) {
					t.Fatalf("seed %d step %d: record %d of the span differs from the model's", seed, step, i)
				}
				i++
			})
			if err != nil || i != len(model) {
				t.Fatalf("seed %d step %d: span held %d of %d records: %v", seed, step, i, len(model), err)
			}
			model = model[:0]
		}
		if marks == 0 || smallPads == 0 || fulls == 0 || wakes == 0 || wrapped == 0 {
			t.Errorf("seed %d never met a case: %d wrap markers, %d small pads, %d full, %d wakes, %d wrapped spans", seed, marks, smallPads, fulls, wakes, wrapped)
		}
	}
}

// TestRingModelConcurrent runs the two doorbell protocols for real: a
// producer that sleeps on a refused push until the consumer's wake, a
// consumer that sleeps on an empty ring until the producer's bell. A lost
// wakeup in either direction is a hang, met here as a timeout.
func TestRingModelConcurrent(t *testing.T) {
	const N = 60000
	r := mapRing(make([]byte, ringBytes))
	space, data := make(chan struct{}, 1), make(chan struct{}, 1)
	ring := func(c chan struct{}) {
		select {
		case c <- struct{}{}:
		default:
		}
	}
	var sleeps atomic.Int32
	sleep := func(c chan struct{}, who string) bool {
		sleeps.Add(1)
		select {
		case <-c:
			return true
		case <-time.After(30 * time.Second):
			t.Errorf("%s never woken: lost doorbell", who)
			return false
		}
	}
	size := func(i int) int { return 1 + (i*2654435761)%997 }
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		rec := make([]byte, 1000)
		for i := 0; i < N; i++ {
			rec[0], rec[1], rec[2] = byte(i), byte(i>>8), byte(i>>16)
			for {
				pushed, bell := r.push([][]byte{rec[:size(i)]})
				if bell {
					ring(data)
				}
				if pushed {
					break
				}
				if !sleep(space, "producer on a full ring") {
					return
				}
			}
		}
	}()
	for got := 0; got < N; {
		span, pos, wake, err := r.take()
		if wake {
			ring(space)
		}
		if err == nil {
			err = ringRecords(span, pos, func(b []byte) {
				if want := size(got); len(b) != want || b[0] != byte(got) || want > 2 && (b[1] != byte(got>>8) || b[2] != byte(got>>16)) {
					t.Fatalf("record %d: %d bytes starting %x, want %d", got, len(b), b[:min(3, len(b))], want)
				}
				got++
			})
		}
		if err != nil {
			t.Fatal(err)
		}
		if span == nil && !sleep(data, "consumer on an empty ring") {
			break
		}
	}
	wg.Wait()
	t.Logf("%d records, %d sleeps on a full or an empty ring", N, sleeps.Load())
}

// wirePair boots a two-rank job over a real backend inside the test process.
func wirePair(t *testing.T, backend string) ([]*Network, []*wire) {
	return wirePairSeg(t, backend, 1<<12)
}

func wirePairSeg(t *testing.T, backend string, segSize int) (nets []*Network, wires []*wire) {
	dir := t.TempDir()
	nets, wires = make([]*Network, 2), make([]*wire, 2)
	var wg sync.WaitGroup
	for r := range nets {
		wg.Add(1)
		go func() {
			defer wg.Done()
			nets[r] = NewNetwork(Config{Ranks: 2, SegmentSize: segSize, Aux: intAux{},
				Real: &RealConduit{Backend: backend, Rank: r, BootDir: dir, Timeout: 20 * time.Second}})
			wires[r] = nets[r].be.(*wire)
		}()
	}
	wg.Wait()
	return nets, wires
}

func shmPair(t *testing.T) ([]*Network, []*wire) { return wirePair(t, "shm") }

func closeAll(nets []*Network) {
	var wg sync.WaitGroup
	for _, n := range nets {
		wg.Add(1)
		go func() { defer wg.Done(); n.Close() }() // peers wait for each other's bye
	}
	wg.Wait()
}

// TestRingCorruptRecordFailsPeer writes what no producer writes into rank
// 0's inbound ring and rings its doorbell. The ring is the peer's memory:
// each case must fail the peer — Failed() wraps ErrPeerLost, the endpoint
// doorbell rings — where the old drain jumped tail to head and said nothing.
// The last rows are well-formed records of a type no producer puts in a ring:
// a control frame there is refused, not obeyed (bye stays unset).
func TestRingCorruptRecordFailsPeer(t *testing.T) {
	nets, wires := shmPair(t)
	defer closeAll(nets)
	in := wires[0].shm.inRings[1]
	const at = 5*ringCap - 16 // 16 bytes short of a wrap
	u32 := func(v uint32) []byte { b := make([]byte, 4); binary.LittleEndian.PutUint32(b, v); return b }
	cases := []struct {
		name  string
		bytes []byte // written at ring position ringCap-16, wrapping
		head  uint64 // bytes published
	}{
		{"zero length", u32(0), 8},
		{"length over ringMaxRec", u32(ringMaxRec + 1), 8},
		{"length past the span", append(u32(9), "12345678"...), 12},
		{"length past the wrap", append(u32(13), "1234567890123"...), 17},
		{"truncated length word", u32(1), 3},
		{"wrap marker ending the span", u32(wrapMark), 16},
		{"bad bytes after a wrap marker", append(append(u32(wrapMark), make([]byte, 12)...), u32(0)...), 24},
		{"head out of range", nil, ringCap + 1},
		{"fBye record", append(u32(1), fBye), 5},
		{"fRing record", append(u32(1), fRing), 5},
		{"fHello record", append(u32(10), appendHello(nil, 1, 2)...), 14},
	}
	for _, tc := range cases {
		wires[0].failErr.Store(nil)
		select { // empty the doorbell
		case <-wires[0].ep.notify:
		default:
		}
		atomic.StoreUint64(in.tail, at)
		for i, b := range tc.bytes {
			in.data[(at+i)%ringCap] = b
		}
		atomic.StoreUint64(in.head, at+tc.head)
		wires[1].sockSend(wires[1].peers[0], false, []byte{fRing})
		for deadline := time.Now().Add(10 * time.Second); nets[0].Failed() == nil && time.Now().Before(deadline); {
			wires[0].ep.WaitPending(time.Second)
		}
		if err := nets[0].Failed(); !errors.Is(err, ErrPeerLost) {
			t.Errorf("%s: Failed() = %v, want an ErrPeerLost-wrapped error", tc.name, err)
		} else {
			t.Logf("%s: %v", tc.name, err)
		}
		if h, tl := atomic.LoadUint64(in.head), atomic.LoadUint64(in.tail); tc.head <= ringCap && h != tl {
			t.Errorf("%s: span not handed back (head %d, tail %d)", tc.name, h, tl)
		}
		if wires[0].peers[1].bye.Load() {
			t.Errorf("%s: the record was taken for the peer's shutdown notice", tc.name)
		}
	}
	atomic.StoreUint64(in.head, at) // leave an empty ring to the teardown
	atomic.StoreUint64(in.tail, at)
	wires[0].failErr.Store(nil)
}

// TestRingByeRecordKeepsPeerLoss: a one-byte fBye record, pushed and belled
// the way a producer pushes data, and then the producer's end of the socket
// goes away. Obeyed, the record sets bye and the reader swallows the socket
// error that follows — a dead peer reads as a clean shutdown. It must not be:
// Failed() wraps ErrPeerLost, and teardown leaves no goroutine behind.
func TestRingByeRecordKeepsPeerLoss(t *testing.T) {
	before := runtime.NumGoroutine()
	nets, wires := shmPair(t)
	in, to0 := wires[0].shm.inRings[1], wires[1].peers[0]
	if pushed, _ := to0.ring.push([][]byte{{fBye}}); !pushed {
		t.Fatal("push into an empty ring failed")
	}
	wires[1].sockSend(to0, false, []byte{fRing})
	// The reader that takes the span dispatches its record before it reads
	// the socket again, so the close below cannot overtake the record.
	for deadline := time.Now().Add(10 * time.Second); atomic.LoadUint64(in.tail) != atomic.LoadUint64(in.head); {
		if time.Now().After(deadline) {
			t.Fatal("the record was never drained")
		}
		runtime.Gosched()
	}
	to0.conn.Close() // the producer dies
	for deadline := time.Now().Add(10 * time.Second); nets[0].Failed() == nil && time.Now().Before(deadline); {
		wires[0].ep.WaitPending(time.Second)
	}
	if err := nets[0].Failed(); !errors.Is(err, ErrPeerLost) {
		t.Errorf("Failed() = %v, want an ErrPeerLost-wrapped error: the peer's loss was swallowed", err)
	}
	if wires[0].peers[1].bye.Load() {
		t.Error("the record was taken for the peer's shutdown notice")
	}
	closeAll(nets)
	waitGoroutines(t, before)
}

// TestRingKillUnderFlood: the consumer stops draining (its reader is held at
// the endpoint queue lock), the producer floods until it parks on the full
// ring, and then the consumer's end of the socket goes away without a bye.
// The parked injector must come back and the rest of its flood must not park
// again: Failed() wraps ErrPeerLost in bounded time, and teardown leaves no
// goroutine behind.
func TestRingKillUnderFlood(t *testing.T) {
	before := runtime.NumGoroutine()
	nets, wires := shmPair(t)
	for _, n := range nets {
		n.RegisterAM(func(*Endpoint, Rank, []byte, any) {})
	}
	held, release := make(chan struct{}), make(chan struct{})
	go nets[1].Endpoint(1).syncDirect(func() { close(held); <-release })
	<-held
	flooded := make(chan struct{})
	go func() {
		defer close(flooded)
		payload := make([]byte, 64)
		for i := 0; i < 20000; i++ { // ~1.5 MB through a 64 KiB ring
			nets[0].Endpoint(0).AM(1, 0, payload, nil)
		}
	}()
	out := wires[0].peers[1].ring
	for deadline := time.Now().Add(20 * time.Second); atomic.LoadUint32(out.waiting) == 0; {
		if time.Now().After(deadline) {
			t.Fatal("the flood never filled the ring")
		}
		runtime.Gosched()
	}
	select {
	case <-flooded:
		t.Fatal("the flood finished against a consumer that does not drain: nothing bounded it")
	default:
	}
	wires[1].peers[0].conn.Close() // the consumer dies
	select {
	case <-flooded:
	case <-time.After(20 * time.Second):
		t.Fatal("injector still parked on the dead peer's ring")
	}
	if err := nets[0].Failed(); !errors.Is(err, ErrPeerLost) {
		t.Errorf("producer's Failed() = %v, want an ErrPeerLost-wrapped error", err)
	}
	if ci := nets[0].ConduitInfo(); ci.SocketFallbacks != 0 {
		t.Errorf("%d ring-eligible frames took the socket", ci.SocketFallbacks)
	}
	close(release)
	closeAll(nets)
	for deadline := time.Now().Add(10 * time.Second); runtime.NumGoroutine() > before; {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines before, %d after teardown:\n%s", before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		runtime.Gosched()
	}
}

// TestShmAMAllocs pins the ring datapath's heap objects: an 8-byte AM is
// gathered from its parts straight into the record — none at the sender —
// and a drain's one object is the private copy of the span, which every
// payload of the span aliases. (Named so that the race gate's Ring pattern
// leaves it to `make alloc-pins`.)
func TestShmAMAllocs(t *testing.T) {
	n := NewNetwork(Config{Ranks: 2, SegmentSize: 1 << 12})
	defer n.Close()
	got := 0
	h := n.RegisterAM(func(_ *Endpoint, _ Rank, p []byte, _ any) { got += len(p) })
	region := make([]byte, ringBytes)
	newPeer := func(rank Rank, ring *shmRing) *peerConn {
		p := &peerConn{rank: rank, ring: ring, wclosed: true} // doorbells go nowhere
		p.rcnd = sync.NewCond(&p.rmu)
		return p
	}
	src := &wire{self: 0, n: 2, peers: []*peerConn{nil, newPeer(1, mapRing(region))}}
	from := newPeer(0, nil)
	dst := &wire{self: 1, n: 2, ep: n.Endpoint(1), peers: []*peerConn{from, nil},
		shm: &shmWorld{inRings: []*shmRing{mapRing(region), nil}}}
	const N = 50
	payload := make([]byte, 8)
	sent := uint64(0)
	send := func() {
		sent += N
		for i := 0; i < N; i++ {
			src.am(nil, 1, h, payload[:3], [][]byte{payload[3:]}, nil, obs.OpTag{})
		}
	}
	recv := func() {
		dst.drainRing(from)
		n.Endpoint(1).PollAMs()
	}
	send()
	recv() // the batch and the endpoint's queues grow once
	send()
	recv()
	if a := testing.AllocsPerRun(20, send); a != 0 { // 21 × 50 records of 20 bytes: well inside the ring
		t.Errorf("%d ring AMs of 8 bytes: %v allocs at the sender, want 0", N, a)
	}
	recv()
	if a := testing.AllocsPerRun(100, func() { send(); recv() }); a != 1 || uint64(got) != 8*sent {
		t.Errorf("a drain of %d records: %v allocs (want 1, the span), %d bytes delivered (want %d)", N, a, got, 8*sent)
	}
	if ci := src.info(); ci.RingRecords != sent || ci.SocketFallbacks != 0 {
		t.Errorf("%d ring records, %d socket fallbacks; want %d and 0", ci.RingRecords, ci.SocketFallbacks, sent)
	}
}

// TestRingOversizeAndLocalFIFO crosses every kind of frame on one ring pair
// at once, each rank driven by its own goroutine: both ranks flood each other
// with sequence-numbered AMs, every eighth too large for a record (a marker
// in the ring, the frame on the socket), while rank 0 also pulls 8 KiB gets
// out of rank 1's device segment — replies rank 1's *reader* sends, too large
// for a record, into a ring rank 1's own flood keeps full, so they wait on
// the local FIFO for a doorbell. Every stream must arrive whole and in order.
func TestRingOversizeAndLocalFIFO(t *testing.T) {
	const N, gets, getN = 12000, 48, 8 << 10
	nets, wires := shmPair(t)
	defer closeAll(nets)
	var next [2]int // per receiving rank: the sequence number due
	for r, n := range nets {
		n.RegisterAM(func(_ *Endpoint, _ Rank, p []byte, _ any) {
			if seq := int(binary.LittleEndian.Uint32(p)); seq != next[r] {
				t.Errorf("rank %d: AM %d arrived when %d was due", r, seq, next[r])
			}
			next[r]++
		})
	}
	dev := nets[1].Endpoint(1).AddDeviceSegment(gets * getN)
	src := nets[1].Endpoint(1).SegByID(dev).Bytes(0, gets*getN)
	for i := range src {
		src[i] = byte(i/getN + i)
	}
	nets[1].Endpoint(1).Pending() // publish the pattern to rank 1's reader (syncDirect's lock)
	got, landed := make([][]byte, gets), 0
	var wg sync.WaitGroup
	for r := range nets {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ep, peer := nets[r].Endpoint(Rank(r)), Rank(1-r)
			small, big := make([]byte, 16), make([]byte, 5000)
			for i := 0; i < N; i++ {
				msg := small
				if i%8 == 7 {
					msg = big
				}
				binary.LittleEndian.PutUint32(msg, uint32(i))
				ep.AM(peer, 0, msg, nil)
				if r == 0 && i%(N/gets) == 0 {
					g := i / (N / gets)
					got[g] = make([]byte, getN)
					ep.GetSegTag(1, dev, uint64(g*getN), got[g], func() { landed++ }, obs.OpTag{})
				}
				if i%64 == 0 {
					ep.Poll()
				}
			}
			for deadline := time.Now().Add(30 * time.Second); next[r] < N || r == 0 && landed < gets; ep.Poll() {
				if time.Now().After(deadline) {
					t.Errorf("rank %d: %d of %d AMs, %d of %d gets", r, next[r], N, landed, gets)
					return
				}
			}
		}()
	}
	wg.Wait()
	for g, b := range got {
		if !bytes.Equal(b, src[g*getN:(g+1)*getN]) {
			t.Errorf("get %d returned the wrong bytes", g)
		}
	}
	for r, w := range wires {
		want := uint64(N / 8)
		if r == 1 {
			want += gets
		}
		if ci := w.info(); ci.SocketFallbacks != want || ci.RingRecords == 0 {
			t.Errorf("rank %d: %d frames took the socket (want %d: the oversize ones), %d ring records", r, ci.SocketFallbacks, want, ci.RingRecords)
		}
	}
}
