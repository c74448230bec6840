package gasnet

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"upcxx/internal/obs"
)

// testPeer is a peer of a hand-built wire: a send queue nobody writes out and,
// if in is given, the stream its frames are read from.
func testPeer(rank Rank, in io.Reader) *peerConn {
	p := &peerConn{rank: rank}
	p.wcnd, p.wroom = sync.NewCond(&p.wmu), sync.NewCond(&p.wmu)
	p.rcnd = sync.NewCond(&p.rmu)
	if in != nil {
		p.br = bufio.NewReaderSize(in, 1<<16)
	}
	return p
}

// readerRig is rank 1 of a two-rank tcp job as the reader of its connection to
// rank 0 sees it: feed runs the real readerLoop over a byte stream, and what
// the reader replies piles up in the peer's send queue.
type readerRig struct {
	net  *Network
	ep   *Endpoint
	w    *wire
	from *peerConn
	in   *bytes.Reader
}

func newReaderRig(segSize int) *readerRig {
	r := &readerRig{net: NewNetwork(Config{Ranks: 2, SegmentSize: segSize}), in: bytes.NewReader(nil)}
	r.ep = r.net.Endpoint(1)
	r.from = testPeer(0, r.in)
	r.w = &wire{backend: "tcp", self: 1, n: 2, aux: intAux{}, ep: r.ep, peers: []*peerConn{r.from, nil}, pending: map[uint64]pendingOp{}}
	return r
}

// feed reads stream to its end. One that closes with an fBye ends the reader
// quietly; any other end fails the peer, as a lost connection does.
func (r *readerRig) feed(stream []byte) {
	r.in.Reset(stream)
	r.from.br.Reset(r.in)
	r.from.bye.Store(false)
	r.from.wbuf = r.from.wbuf[:0]
	r.w.wg.Add(1)
	r.w.readerLoop(r.from)
}

// replies decodes what the reader queued for rank 0.
func (r *readerRig) replies(t *testing.T) (out []frame) {
	t.Helper()
	for b := r.from.wbuf; len(b) > 0; {
		n := int(binary.LittleEndian.Uint32(b))
		var f frame
		if err := decodeFrameBody(b[4:4+n], &f); err != nil {
			t.Fatalf("undecodable frame in the send queue: %v", err)
		}
		out, b = append(out, f), b[4+n:]
	}
	return out
}

func pattern(n int, seed byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = seed + byte(i) + byte(i>>8)*7
	}
	return b
}

// TestSocketRecvAllocs pins what the reader goroutine allocates: a frame that
// keeps nothing — a counted put, a put acked by id (a copy's relay) and its
// ack, a get and its reply, an AMO and its reply, an ack by id — is decoded
// where it lies in the read buffer and answered at the tail of a reused send
// queue, no object at all. The counted puts are acked by one frame where the
// burst ends, or where an ack by id must follow them; the payloads of a burst
// of AMs are copied out into one slab, not one body per frame.
func TestSocketRecvAllocs(t *testing.T) {
	r := newReaderRig(1 << 12)
	got := 0
	h := r.net.RegisterAM(func(_ *Endpoint, _ Rank, p []byte, _ any) { got += len(p) })
	const N = 50
	var ctl, ams []byte
	const byID = 24 // the one put acked by id; the counted puts before it are acked first
	answered, acks := 0, [][2]uint64{{byID / 4, 0}, {0, byID + 1}, {(N - byID) / 4, 0}}
	for i := 0; i < N; i++ {
		switch i % 4 {
		case 0:
			ack := uint64(ackCounted)
			if i == byID {
				ack = byID + 1
			}
			ctl = append(ctl, encodePut(0, 0, 64, 0, ack, nil, pattern(8, byte(i)))...)
		case 1:
			ctl = append(ctl, encodeGet(uint64(i), 0, 64, 8)...)
			answered++
		case 2:
			ctl = append(ctl, encodeAMO(uint64(i), 128, byte(AMOAdd), 1, 0)...)
			answered++
		case 3:
			ctl = append(ctl, encodePutAck(0, uint64(1000+i))...)
		}
		ams = append(ams, encodeAM(0, uint16(h), nil, pattern(8, byte(i)), nil)...)
	}
	ctl, ams = append(ctl, encodeEmpty(fBye)...), append(ams, encodeEmpty(fBye)...)
	r.feed(ctl) // the send queue grows once
	if a := testing.AllocsPerRun(100, func() { r.feed(ctl) }); a != 0 {
		t.Errorf("a burst of %d frames that keep nothing: %v allocs at the reader, want 0", N, a)
	}
	var acked [][2]uint64 // count, id
	rep := r.replies(t)
	for _, f := range rep {
		if f.typ == fPutAck {
			acked = append(acked, [2]uint64{uint64(f.n), f.ackID})
		}
	}
	if len(rep) != answered+len(acks) || rep[0].typ != fGetRep || rep[1].typ != fAMORep || !slices.Equal(acked, acks) {
		t.Errorf("the burst was answered with %d frames, acks (count, id) %v; want %d, acks %v", len(rep), acked, answered+len(acks), acks)
	}
	recv := func() {
		r.feed(ams)
		r.ep.PollAMs()
	}
	recv() // the batch and the endpoint's queues grow once
	recv()
	got = 0
	if a := testing.AllocsPerRun(100, recv); a > 1 || got != 101*N*8 {
		t.Errorf("a burst of %d AMs: %v allocs at the reader (want at most 1, the slab), %d bytes delivered (want %d)", N, a, got, 101*N*8)
	}
	if err := r.net.Failed(); err != nil || r.w.failure() != nil {
		t.Errorf("the rig's reader failed its peer: %v / %v", err, r.w.failure())
	}
}

// TestPutAckedByCount pins how a direct put is acknowledged: two goroutines
// put 10 000 8-byte values each to one peer, with callbacks and remote AMs;
// each callback runs exactly once, in its goroutine's issue order and, across
// the goroutines, in the order the target ran the puts' remote AMs — the
// per-peer FIFO of callbacks is the wire's order — and none stays in that FIFO
// once it has run; the initiator takes in at most one socket frame per 16 puts
// of one goroutine. Over tcp (the host
// segment) that is one ack per receive burst. Over shm (a device segment, the
// ring path) the target is polled every half millisecond, so the ring fills
// and the injectors park and retry; the acks are ring records, one per span
// the target drains: how long a span is depends on how far the poller lags
// the injectors, so the check is that acks are fewer than puts — one ack per
// put would be as many.
func TestPutAckedByCount(t *testing.T) {
	const G, N = 2, 10000
	backends := []string{"tcp"}
	if runtime.GOOS == "linux" {
		backends = append(backends, "shm")
	}
	for _, backend := range backends {
		t.Run(backend, func(t *testing.T) {
			nets, wires := wirePair(t, backend)
			defer closeAll(nets)
			from, to := nets[0].Endpoint(0), nets[1].Endpoint(1)
			seg := HostSeg
			if backend == "shm" {
				seg = to.AddDeviceSegment(1 << 12)
			}
			sent := func() uint64 { // what the target sent the initiator: frames, and records on shm
				c := wires[1].ep.ctr
				return c.Load(obs.FramesOut) + c.Load(obs.RingRecords)
			}
			var landed, done []uint64 // g<<32|i, as the target ran the remote AMs and the initiator the callbacks
			var h HandlerID
			for _, n := range nets {
				h = n.RegisterAM(func(_ *Endpoint, _ Rank, p []byte, _ any) { landed = append(landed, binary.LittleEndian.Uint64(p)) })
			}
			in0, out1 := wires[0].ep.ctr.Load(obs.FramesIn), sent()
			var next [G]int // run by the polling goroutine alone
			misordered := 0
			var wg sync.WaitGroup
			defer wg.Wait() // before the deferred close unmaps the ring the injectors push to
			for g := range G {
				wg.Add(1)
				go func() {
					defer wg.Done()
					v := make([]byte, 8)
					for i := range N {
						tok := uint64(g)<<32 | uint64(i)
						binary.LittleEndian.PutUint64(v, uint64(i))
						from.PutSegTag(1, seg, uint64(8*g), v, func() {
							if next[g] != i {
								misordered++
							}
							next[g], done = i+1, append(done, tok)
						}, &RemoteAM{Handler: h, Payload: binary.LittleEndian.AppendUint64(nil, tok)}, obs.OpTag{})
					}
				}()
			}
			for deadline, polled := time.Now().Add(60*time.Second), time.Now(); len(done) < G*N || len(landed) < G*N; {
				from.Poll()
				if time.Since(polled) > 500*time.Microsecond {
					to.Poll()
					polled = time.Now()
				}
				if err := nets[0].Failed(); err != nil || time.Now().After(deadline) {
					wires[0].fail(1, errors.New("the test gave up")) // an injector parked on a full ring returns
					t.Fatalf("%d of %d callbacks ran, %d remote AMs: %v", len(done), G*N, len(landed), err)
				}
			}
			wg.Wait()
			for range 8 {
				from.Poll()
			}
			if len(done) != G*N || misordered != 0 {
				t.Errorf("%d callbacks ran (want %d), %d out of their goroutine's issue order", len(done), G*N, misordered)
			}
			if !slices.Equal(landed, done) {
				at := 0
				for landed[at] == done[at] {
					at++
				}
				t.Errorf("callback %d ran for put %#x, but the target landed put %#x there", at, done[at], landed[at])
			}
			if err := nets[0].Failed(); err != nil {
				t.Fatal(err)
			}
			p, mu := wires[0].peers[1], &wires[0].peers[1].wmu
			if p.ring != nil {
				mu = &p.rmu
			}
			held := func() bool { // a callback left in the FIFO, whose puts have all landed
				mu.Lock()
				defer mu.Unlock()
				return slices.ContainsFunc(p.acked[:cap(p.acked)], func(c completion) bool { return c.fn != nil })
			}
			for deadline := time.Now().Add(10 * time.Second); held(); time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatal("every callback ran, but the per-peer FIFO still holds some")
				}
			}
			in, out := wires[0].ep.ctr.Load(obs.FramesIn)-in0, sent()-out1
			t.Logf("%d puts: the initiator took in %d socket frames, the target sent %d frames and ring records", G*N, in, out)
			if in > N/16 || out >= G*N {
				t.Errorf("%d puts: %d socket frames in (want at most %d), %d frames and records back (want fewer than the puts)", G*N, in, N/16, out)
			}
		})
	}
}

// TestWireBulkLandsInPlace: a put, a signaling put and a get reply longer than
// the read buffer are read off the socket straight into the segment or the
// get's buffer — the reader's heap objects per transfer do not depend on the
// size — after everything the head says has been checked: a hostile one leaves
// the segment untouched and the stream in step, and one cut short is a lost
// peer, never acked. Then the same three over a real tcp pair.
func TestWireBulkLandsInPlace(t *testing.T) {
	const seg = 2 << 20
	r := newReaderRig(seg)
	var remGot []byte
	h := r.net.RegisterAM(func(_ *Endpoint, src Rank, p []byte, aux any) {
		if src != 0 || aux != confAux {
			t.Errorf("remote AM from rank %d with aux %v", src, aux)
		}
		remGot = append([]byte(nil), p...)
	})
	bye := encodeEmpty(fBye)
	rem := &remWire{handler: uint16(h), aux: []byte{confAux}, payload: []byte("landed")}
	mem := r.ep.Segment().Bytes(0, seg)
	allocs := map[int]float64{}
	for _, n := range []int{128 << 10, 1 << 20} {
		data := pattern(n, byte(n>>16))
		stream := slices.Concat(encodePut(0, 0, 4096, 0, 7, nil, data), encodePut(0, 0, 4096+uint64(n), 0, 8, rem, data[:n/2]), bye)
		run := func() {
			r.feed(stream)
			r.ep.PollAMs()
		}
		run()
		if !bytes.Equal(mem[4096:4096+n], data) || !bytes.Equal(mem[4096+n:4096+n+n/2], data[:n/2]) || string(remGot) != "landed" {
			t.Fatalf("%d-byte puts: data or remote AM (%q) wrong", n, remGot)
		}
		if rep := r.replies(t); len(rep) != 2 || rep[0].typ != fPutAck || rep[0].ackID != 7 || rep[1].ackID != 8 {
			t.Fatalf("%d-byte puts: acks %+v", n, rep)
		}
		allocs[n] = testing.AllocsPerRun(20, run)
	}
	if allocs[128<<10] != allocs[1<<20] || allocs[1<<20] > 1 {
		t.Errorf("reader allocs per pair of bulk puts: %v — want the same at both sizes, at most the slab", allocs)
	}

	// A bulk get reply lands in the get's buffer; one of another length, small
	// or bulk, fails the peer before a byte of it is written.
	for _, tc := range []struct {
		name       string
		want, sent int
	}{{"bulk", 1 << 20, 1 << 20}, {"bulk short", 1 << 20, 1<<20 - 1}, {"bulk long", 128 << 10, 1 << 20}, {"small short", 64, 63}, {"small long", 64, 65}} {
		r.w.failErr.Store(nil)
		into, done := make([]byte, tc.want), false
		id := r.w.newPending(pendingOp{dst: into, onDone: func() { done = true }})
		data := pattern(tc.sent, 3)
		// The put behind it shows that the stream stayed in step.
		r.feed(slices.Concat(encodeGetRep(id, data), encodePut(0, 0, 0, 0, 0, nil, []byte(tc.name)), bye))
		r.ep.PollCompletions()
		if string(mem[:len(tc.name)]) != tc.name {
			t.Errorf("get reply %s: the frame behind it did not land", tc.name)
		}
		if tc.want == tc.sent {
			if err := r.w.failure(); err != nil || !done || !bytes.Equal(into, data) {
				t.Errorf("get reply %s: failure %v, done %v, data equal %v", tc.name, err, done, bytes.Equal(into, data))
			}
		} else if err := r.w.failure(); !errors.Is(err, ErrPeerLost) || done || !bytes.Equal(into, make([]byte, tc.want)) {
			t.Errorf("get reply %s: failure %v (want ErrPeerLost), done %v, buffer written %v", tc.name, err, done, !bytes.Equal(into, make([]byte, tc.want)))
		}
	}

	// Hostile heads: nothing is written, the payload is skipped, no ack.
	clear(mem)
	data := pattern(1<<20, 9)
	for name, fb := range map[string][]byte{
		"past the end":    encodePut(0, 0, seg-4096, 0, 1, nil, data),
		"offset overflow": encodePut(0, 0, ^uint64(0)-3, 0, 1, nil, data),
		"wild segment":    encodePut(0, 9, 0, 0, 1, nil, data),
		"ackRank":         encodePut(0, 0, 4096, 7, 1, nil, data),
		"undecodable rem": encodePut(0, 0, 4096, 0, 1, &remWire{aux: []byte{0xFF}}, data),
	} {
		r.w.failErr.Store(nil)
		r.feed(slices.Concat(fb, encodePut(0, 0, 0, 0, 0, nil, []byte("next")), bye))
		if err := r.w.failure(); !errors.Is(err, ErrPeerLost) {
			t.Errorf("bulk put %s: failure %v, want ErrPeerLost", name, err)
		}
		if string(mem[:4]) != "next" || !bytes.Equal(mem[4:], make([]byte, seg-4)) || len(r.replies(t)) != 0 {
			t.Errorf("bulk put %s: segment written, stream out of step or frame acked (%d replies)", name, len(r.replies(t)))
		}
		clear(mem[:4])
	}
	// Cut mid-payload: the peer is lost; the destination may be torn (as a
	// put interrupted on an RDMA fabric would leave it) but is never acked.
	for _, fb := range [][]byte{encodePut(0, 0, 4096, 0, 1, nil, data), encodeGetRep(r.w.newPending(pendingOp{dst: make([]byte, 1<<20)}), data)} {
		r.w.failErr.Store(nil)
		r.feed(fb[:len(fb)/2])
		if err := r.w.failure(); !errors.Is(err, ErrPeerLost) || len(r.replies(t)) != 0 || r.ep.Pending() {
			t.Errorf("frame %#x cut mid-payload: failure %v (want ErrPeerLost), %d replies, completion queued %v", fb[4], err, len(r.replies(t)), r.ep.Pending())
		}
	}

	// The same through sockets, both readers and writers running.
	nets, _ := wirePairSeg(t, "tcp", seg)
	defer closeAll(nets)
	sig := 0
	for _, n := range nets {
		n.RegisterAM(func(ep *Endpoint, _ Rank, p []byte, _ any) {
			if sig++; string(p) != "sig" || !bytes.Equal(ep.Segment().Bytes(1<<20, 8), data[:8]) {
				t.Errorf("remote AM ran with %q before its put's data", p)
			}
		})
	}
	ep0, ep1 := nets[0].Endpoint(0), nets[1].Endpoint(1)
	acks, into := 0, make([]byte, 1<<20)
	ep0.Put(1, 0, data, func() { acks++ })
	ep0.PutSegTag(1, HostSeg, 1<<20, data[:1<<19], func() { acks++ }, &RemoteAM{Handler: 0, Payload: []byte("sig")}, obs.OpTag{})
	for deadline := time.Now().Add(20 * time.Second); acks < 2 || sig < 1; ep0.Poll() {
		if ep1.Poll(); time.Now().After(deadline) {
			t.Fatalf("bulk puts over tcp: %d of 2 acks, %d remote AMs", acks, sig)
		}
	}
	ep0.Get(1, 0, into, func() { acks++ })
	pollUntil(t, ep0, func() bool { return acks == 3 })
	if !bytes.Equal(into, data) || !bytes.Equal(ep1.Segment().Bytes(1<<20, 1<<19), data[:1<<19]) {
		t.Error("bulk put, signaling put or get over tcp moved the wrong bytes")
	}
}

// parkedFlood is a two-rank tcp job in the state the send queue's bound is
// for: rank 1's reader is held (at its endpoint's queue lock, where the first
// burst's delivery stops it), the socket between them is full, rank 0's writer
// is stuck in Write and its injector — the goroutine flooding sequence-numbered
// AMs — is parked on sendBound.
type parkedFlood struct {
	nets    []*Network
	wires   []*wire
	next    int      // the sequence number due at rank 1
	parkedQ int      // bytes queued at the last look that found the injector parked
	flooded chan int // the flood's length, once it has ended
	stop    func()   // ends the flood floodTail AMs after the one in flight
	release func()   // lets rank 1's reader go
}

const floodAM, floodTail = 16 << 10, 64

func newParkedFlood(t *testing.T) *parkedFlood {
	f := &parkedFlood{flooded: make(chan int, 1)}
	f.nets, f.wires = wirePair(t, "tcp")
	for r, n := range f.nets {
		n.RegisterAM(func(_ *Endpoint, _ Rank, p []byte, _ any) {
			if seq := int(binary.LittleEndian.Uint32(p)); r != 1 || seq != f.next || len(p) != floodAM {
				t.Errorf("rank %d: AM %d (%d bytes) arrived when %d was due", r, seq, len(p), f.next)
			}
			f.next++
		})
	}
	// Small kernel buffers: the flood meets the bound after a megabyte, not
	// after whatever the host lets a loopback socket grow to.
	f.wires[0].peers[1].conn.(*net.TCPConn).SetWriteBuffer(64 << 10)
	f.wires[1].peers[0].conn.(*net.TCPConn).SetReadBuffer(64 << 10)
	held, release, stop := make(chan struct{}), make(chan struct{}), make(chan struct{})
	go f.nets[1].Endpoint(1).syncDirect(func() { close(held); <-release })
	<-held
	f.release, f.stop = sync.OnceFunc(func() { close(release) }), sync.OnceFunc(func() { close(stop) })
	t.Cleanup(func() { closeAll(f.nets) }) // last, whatever state a failed test leaves: the flood over, the reader let go
	t.Cleanup(f.release)
	t.Cleanup(f.stop)
	go func() {
		payload, i := make([]byte, floodAM), 0
		for end := -1; i != end; i++ {
			select {
			case <-stop:
				if end < 0 {
					end = i + floodTail
				}
			default:
			}
			binary.LittleEndian.PutUint32(payload, uint32(i))
			f.nets[0].Endpoint(0).AM(1, 0, payload, nil)
		}
		f.flooded <- i
	}()
	// Parked for good: the queue at its bound and no frame joining it, for a
	// while, the last look included — a writer that takes its first queue
	// after a long first Write lets the injector go again. (A pause of the
	// writer that long would only blunt what the callers then check against a
	// parked injector, not fail them.)
	out, w := f.wires[0].peers[1], f.wires[0]
	deadline := time.Now().Add(30 * time.Second)
	for still, last := 0, uint64(0); still < 50; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("the flood never parked: %d stalls, %d frames out", w.ep.ctr.Load(obs.SendStalls), w.ep.ctr.Load(obs.FramesOut))
		}
		out.wmu.Lock()
		f.parkedQ = len(out.wbuf)
		out.wmu.Unlock()
		if n := w.ep.ctr.Load(obs.FramesOut); f.parkedQ >= sendBound && n == last && w.ep.ctr.Load(obs.SendStalls) > 0 {
			still++
		} else {
			still, last = 0, n
		}
	}
	select {
	case <-f.flooded:
		t.Fatal("the flood ended against a peer that does not read: nothing bounded it")
	default:
	}
	return f
}

func (f *parkedFlood) queued() int {
	p := f.wires[0].peers[1]
	p.wmu.Lock()
	defer p.wmu.Unlock()
	return len(p.wbuf)
}

func waitGoroutines(t *testing.T, before int) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); runtime.NumGoroutine() > before; runtime.Gosched() {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines before, %d after teardown:\n%s", before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
	}
}

// TestWireSendQueueBound: the injector parks with at most the bound and one
// frame queued; the parked rank's reader still serves gets — its replies join
// the queue past the bound without waiting, which is what keeps two ranks that
// flood each other free of deadlock — and once the peer reads again everything
// arrives, in order.
func TestWireSendQueueBound(t *testing.T) {
	f := newParkedFlood(t)
	ep0, ep1, w0 := f.nets[0].Endpoint(0), f.nets[1].Endpoint(1), f.wires[0]
	const frame, getN = 4 + 8 + floodAM, 1024
	q0 := f.parkedQ
	if q0 >= sendBound+frame {
		t.Errorf("%d bytes queued with the injector parked: more than the bound (%d) and a frame", q0, sendBound)
	}
	src := ep0.Segment().Bytes(0, 2*getN)
	copy(src, pattern(2*getN, 5))
	ep0.Pending() // publish the pattern to rank 0's reader (syncDirect's lock)
	// Two gets from the held rank, the second behind the first: rank 0's
	// reader takes the second off the socket only when it is done with the
	// first, reply included — which a reply waiting on the bound never is.
	in0, done, into := w0.ep.ctr.Load(obs.FramesIn), 0, make([]byte, 2*getN)
	ep1.Get(0, 0, into[:getN], func() { done++ })
	ep1.Get(0, getN, into[getN:], func() { done++ })
	for deadline := time.Now().Add(10 * time.Second); w0.ep.ctr.Load(obs.FramesIn) < in0+2; runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatalf("rank 0's reader took %d of 2 gets with its injector parked: a reply waited on the bound", w0.ep.ctr.Load(obs.FramesIn)-in0)
		}
	}
	select {
	case <-f.flooded:
		t.Fatal("the injector was let go while the peer still did not read")
	default:
	}
	if q := f.queued(); q > q0+frame+2*(4+9+getN) {
		t.Errorf("%d bytes queued, %d when the injector parked: more than a frame and the two replies joined", q, q0)
	}
	f.stop()
	f.release()
	sent := <-f.flooded
	for deadline := time.Now().Add(30 * time.Second); f.next < sent || done < 2; ep1.Poll() {
		if time.Now().After(deadline) {
			t.Fatalf("after release: %d of %d AMs, %d of 2 gets", f.next, sent, done)
		}
	}
	if !bytes.Equal(into, src) {
		t.Error("the gets served by the parked rank returned the wrong bytes")
	}
	t.Logf("%d AMs of %d bytes, %d waits on the bound, %d bytes queued when parked", sent, floodAM, w0.ep.ctr.Load(obs.SendStalls), q0)
}

// TestWireKillUnderSendPark: an injector parked on the bound comes back when
// the peer's end of the socket goes away without a bye — Failed() wraps
// ErrPeerLost, the rest of its flood is dropped, not parked again — and when
// its own rank closes; neither leaves a goroutine behind.
func TestWireKillUnderSendPark(t *testing.T) {
	for _, how := range []string{"peer lost", "close"} {
		before := runtime.NumGoroutine()
		f := newParkedFlood(t)
		closed := make(chan struct{})
		if how == "close" {
			go func() { defer close(closed); f.nets[0].Close() }()
		} else {
			close(closed)
			f.wires[1].peers[0].conn.Close()
		}
		f.stop() // the injector, once back, sends floodTail more: none may park again
		select {
		case <-f.flooded:
		case <-time.After(20 * time.Second):
			t.Fatalf("%s: injector still parked on the send queue", how)
		}
		if err := f.nets[0].Failed(); (how == "peer lost") != errors.Is(err, ErrPeerLost) {
			t.Errorf("%s: producer's Failed() = %v", how, err)
		}
		f.release()
		closeAll(f.nets)
		<-closed
		waitGoroutines(t, before)
	}
}
