package gasnet

// Real transport conduit: ranks as separate OS processes, AMs and RMA
// framed over TCP (backend "tcp") or Unix-domain sockets plus an
// mmap'd shared-memory datapath (backend "shm").
//
// Sockets carry length-prefixed frames (frame.go). The shm backend
// keeps the socket mesh as control path but moves the data path into
// shared memory: puts/gets against a peer's host segment are direct
// memcpys into the peer's mapped segment, every frame rides — or is
// ordered by — a lock-free ring (ring.go, ringSend) the target's own progress
// passes poll; only a peer that blocks is woken, by an fRing doorbell frame over
// the socket: a rank idle past its budget (the runtime's idle.go) sleeps in the reader's Read.
//
// Per peer there is one reader goroutine (blocks in Read, decodes frames
// where they lie in its read buffer and dispatches them onto the endpoint's
// completion/AM queues, never writes) and one writer goroutine, which swaps
// the peer's send queue — one byte slice every frame is gathered into as it
// is sent, bounded by sendBound for injectors — for its spare and issues one
// Write per swap. A reader's replies join that queue without ever waiting,
// which is what makes reader-side acks deadlock-free. Both are ordinary
// goroutines: a reader blocked in Read is parked in the netpoller and
// holds no thread, and the scheduler readies it on whichever P goes idle
// first — the one the blocked waiter just gave up (core's idle rule).

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"upcxx/internal/obs"
)

// ErrPeerLost reports that a peer process died or its connection broke
// while the job was still running. Surviving ranks observe it (wrapped
// with the peer rank) from Future.Wait / Quiesce rather than hanging.
var ErrPeerLost = errors.New("gasnet: peer process lost")

// RealConduit configures a real (multi-process) transport backend.
type RealConduit struct {
	Backend string        // "tcp" or "shm"
	Rank    int           // this process's rank
	BootDir string        // shared bootstrap directory (addr files, sockets, shm files)
	Timeout time.Duration // bootstrap deadline; 0 = 30s
}

// AuxCodec serializes AM aux tokens (RPC invoker descriptors) for the
// wire. In-process backends pass aux by reference; a real transport
// needs the runtime above to map them to registered-function names.
// Encoding nil must be representable as zero bytes; DecodeAux must not keep b,
// which lies in a read buffer.
type AuxCodec interface {
	EncodeAux(aux any) ([]byte, error)
	DecodeAux(b []byte) (any, error)
}

// ConduitInfo is the transport's identity for tooling (upcxx-info), with a
// view of the hosted rank's transport counters (obs.FramesOut ..
// obs.SocketFallbacks), which the committed benchmark reads.
type ConduitInfo struct {
	Backend     string   `json:"backend"`
	Ranks       int      `json:"ranks"`
	Self        int      `json:"self"`
	PeerAddrs   []string `json:"peer_addrs,omitempty"`
	ShmSegBytes int      `json:"shm_seg_bytes,omitempty"`

	FramesOut, FramesIn, BytesOut, BytesIn      uint64
	RingRecords, RingDoorbells, SocketFallbacks uint64
}

type pendingOp struct {
	onAck  func()       // fPutAck by id: a copy's relayed put
	dst    []byte       // fGetRep destination
	onDone func()       // fGetRep completion
	onOld  func(uint64) // fAMORep result
}

type peerConn struct {
	rank Rank
	addr string
	conn net.Conn
	br   *bufio.Reader
	// The reader goroutine's own (on shm ams is dmu's): AMs decoded and not yet
	// delivered, the slab their payloads are copied out of the read buffer
	// into, and how much of the frame in dispatch is still unread in br.
	ams  []inboundAM
	slab []byte
	rest int
	// acked[ahead:]: the callbacks of counted puts to the peer, oldest first, appended
	// where the frame is queued (under wmu on tcp, rmu on shm). owed, like ams the
	// reader's (shm: dmu's), counts those landed from the peer since the last ack.
	acked []completion
	ahead int
	owed  uint32

	wmu     sync.Mutex
	wcnd    *sync.Cond // the writer's: wbuf is not empty, or wclosed
	wroom   *sync.Cond // injectors': wbuf was taken, or nobody will take it
	wbuf    []byte     // frames queued for the writer, back to back
	wclosed bool

	bye atomic.Bool // peer announced clean shutdown

	// shm datapath (nil on tcp backend)
	rmu  sync.Mutex    // serializes in-process producers of ring; guards lq
	rcnd *sync.Cond    // on rmu: injectors parked on a full ring
	ring *shmRing      // ring I produce into, inside the peer's file
	in   *shmRing      // ring the peer produces into, inside my file
	dmu  sync.Mutex    // in's drain lock (drainRing)
	mark atomic.Uint64 // in's tail + 1 where a pass met a marker: the reader's to take
	lq   [][]byte      // reader goroutines' frames a full ring refused, oldest first
	seg  []byte        // peer's mapped host segment
}

// sendBound is how many queued bytes make an injector wait for the writer: at
// most this much, one frame and the readers' replies stand in a send queue.
// Measured against 256 KiB and no bound (DESIGN §14): a constant, not a knob.
const sendBound = 1 << 20

type shmWorld struct {
	my    *shmFile
	peers []*shmFile
}

type wire struct {
	backend string
	self    Rank
	n       int
	aux     AuxCodec
	ep      *Endpoint
	peers   []*peerConn
	ln      net.Listener
	shm     *shmWorld

	seq     atomic.Uint64
	pmu     sync.Mutex
	pending map[uint64]pendingOp

	failErr atomic.Pointer[error] // first failure; nil while healthy
	closing atomic.Bool
	wg      sync.WaitGroup

	parkers atomic.Int32 // goroutines blocked behind the inbound rings' parked words
}

// ---------------------------------------------------------------------------
// Bootstrap

func addrFile(dir string, rank int) string {
	return filepath.Join(dir, fmt.Sprintf("addr.%d", rank))
}

func writeAddrFile(dir string, rank int, addr string) error {
	tmp := addrFile(dir, rank) + ".tmp"
	if err := os.WriteFile(tmp, []byte(addr), 0o600); err != nil {
		return err
	}
	return os.Rename(tmp, addrFile(dir, rank))
}

func pollAddrFile(dir string, rank int, deadline time.Time) (string, error) {
	for {
		b, err := os.ReadFile(addrFile(dir, rank))
		if err == nil && len(b) > 0 {
			return string(b), nil
		}
		if time.Now().After(deadline) {
			return "", fmt.Errorf("gasnet: timeout waiting for rank %d address file", rank)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// newWire bootstraps the socket mesh (and, for shm, the mapped
// world files) and starts the per-peer progress goroutines. It blocks
// until every peer connection is established.
func newWire(nw *Network, rc *RealConduit) (*wire, error) {
	nranks := nw.cfg.Ranks
	self := Rank(rc.Rank)
	timeout := rc.Timeout
	if timeout == 0 {
		timeout = 30 * time.Second
	}
	deadline := time.Now().Add(timeout)

	t := &wire{
		backend: rc.Backend,
		self:    self,
		n:       nranks,
		aux:     nw.cfg.Aux,
		peers:   make([]*peerConn, nranks),
		pending: make(map[uint64]pendingOp),
	}

	if rc.Backend == "shm" {
		my, err := createShm(rc.BootDir, rc.Rank, nranks, nw.cfg.SegmentSize)
		if err != nil {
			return nil, err
		}
		t.shm = &shmWorld{my: my, peers: make([]*shmFile, nranks)}
		// The self segment must BE the mapped region so peers' direct
		// memcpys into it are locally visible.
		nw.eps[rc.Rank].seg = NewSegmentBacked(my.seg(nranks), true)
	}
	t.ep = nw.eps[rc.Rank]

	var ln net.Listener
	var err error
	if rc.Backend == "shm" {
		ln, err = net.Listen("unix", filepath.Join(rc.BootDir, fmt.Sprintf("sock.%d", rc.Rank)))
	} else {
		ln, err = net.Listen("tcp", "127.0.0.1:0")
	}
	if err != nil {
		return nil, err
	}
	t.ln = ln
	if err := writeAddrFile(rc.BootDir, rc.Rank, ln.Addr().String()); err != nil {
		ln.Close()
		return nil, err
	}

	// Ranks above us dial in; ranks below us we dial. Each connection
	// opens with an fHello exchange identifying both sides.
	acceptErr := make(chan error, 1)
	go func() { acceptErr <- t.acceptPeers(nranks-1-rc.Rank, deadline) }()
	dialErr := t.dialPeers(rc.BootDir, deadline)
	aerr := <-acceptErr
	if dialErr != nil {
		return nil, dialErr
	}
	if aerr != nil {
		return nil, aerr
	}

	if t.shm != nil {
		for j := 0; j < nranks; j++ {
			if j == rc.Rank {
				continue
			}
			pf, err := openShm(rc.BootDir, j, nranks, nw.cfg.SegmentSize, time.Until(deadline))
			if err != nil {
				return nil, err
			}
			t.shm.peers[j] = pf
			t.peers[j].in = mapRing(t.shm.my.ring(j))
			t.peers[j].ring = mapRing(pf.ring(rc.Rank))
			t.peers[j].seg = pf.seg(nranks)
		}
	}

	for _, p := range t.peers {
		if p == nil {
			continue
		}
		t.wg.Add(2)
		go t.readerLoop(p)
		go t.writerLoop(p)
	}
	return t, nil
}

func (t *wire) newPeer(rank Rank, conn net.Conn, br *bufio.Reader) *peerConn {
	p := &peerConn{rank: rank, addr: conn.RemoteAddr().String(), conn: conn, br: br}
	p.wcnd, p.wroom = sync.NewCond(&p.wmu), sync.NewCond(&p.wmu)
	p.rcnd = sync.NewCond(&p.rmu)
	return p
}

func (t *wire) helloExchange(conn net.Conn, br *bufio.Reader, deadline time.Time) (Rank, error) {
	conn.SetDeadline(deadline)
	if _, err := conn.Write(appendFrame(nil, appendHello(nil, uint32(t.self), uint32(t.n)))); err != nil {
		return 0, err
	}
	n, body, err := peekFrame(br, 64)
	if err != nil {
		return 0, err
	}
	var f frame
	err = decodeFrameBody(body, &f) // the fields of an fHello are all values
	br.Discard(4 + n)
	if err != nil {
		return 0, err
	}
	if f.typ != fHello {
		return 0, fmt.Errorf("gasnet: expected hello frame, got %#x", f.typ)
	}
	if int(f.nranks) != t.n {
		return 0, fmt.Errorf("gasnet: peer job size %d, want %d", f.nranks, t.n)
	}
	if int(f.rank) >= t.n {
		return 0, fmt.Errorf("gasnet: peer rank %d out of range", f.rank)
	}
	conn.SetDeadline(time.Time{})
	return Rank(f.rank), nil
}

func (t *wire) dialPeers(dir string, deadline time.Time) error {
	for j := 0; j < int(t.self); j++ {
		addr, err := pollAddrFile(dir, j, deadline)
		if err != nil {
			return err
		}
		network := "tcp"
		if t.backend == "shm" {
			network = "unix"
		}
		var conn net.Conn
		for {
			conn, err = net.DialTimeout(network, addr, time.Until(deadline))
			if err == nil {
				break
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("gasnet: dial rank %d at %s: %w", j, addr, err)
			}
			time.Sleep(time.Millisecond)
		}
		br := bufio.NewReaderSize(conn, 1<<16)
		peer, err := t.helloExchange(conn, br, deadline)
		if err != nil {
			conn.Close()
			return fmt.Errorf("gasnet: handshake with rank %d: %w", j, err)
		}
		if peer != Rank(j) {
			conn.Close()
			return fmt.Errorf("gasnet: dialed rank %d but peer says it is rank %d", j, peer)
		}
		t.peers[j] = t.newPeer(peer, conn, br)
	}
	return nil
}

func (t *wire) acceptPeers(count int, deadline time.Time) error {
	for k := 0; k < count; k++ {
		type deadliner interface{ SetDeadline(time.Time) error }
		if d, ok := t.ln.(deadliner); ok {
			d.SetDeadline(deadline)
		}
		conn, err := t.ln.Accept()
		if err != nil {
			return fmt.Errorf("gasnet: accept: %w", err)
		}
		br := bufio.NewReaderSize(conn, 1<<16)
		peer, err := t.helloExchange(conn, br, deadline)
		if err != nil {
			conn.Close()
			return fmt.Errorf("gasnet: handshake on accepted connection: %w", err)
		}
		if peer <= t.self || t.peers[peer] != nil {
			conn.Close()
			return fmt.Errorf("gasnet: unexpected connection from rank %d", peer)
		}
		t.peers[peer] = t.newPeer(peer, conn, br)
	}
	return nil
}

// ---------------------------------------------------------------------------
// Progress goroutines

func (t *wire) readerLoop(p *peerConn) {
	defer t.wg.Done()
	for {
		if _, err := t.recv(p, true); err != nil {
			if !p.bye.Load() {
				t.fail(p.rank, err) // a no-op once closing
			}
			return
		}
		// A burst ends where the next read may block; its AMs go up together (shm: drainRing's).
		if h, _ := p.br.Peek(min(4, p.br.Buffered())); p.ring == nil && (len(h) < 4 || p.br.Buffered()-4 < int(le.Uint32(h))) {
			t.deliver(p)
		}
	}
}

// recv takes one frame off p's socket and dispatches it — a control frame
// (fRing, fBye, fSock) only if ctl — returning its type. A frame that is whole
// in the read buffer is decoded where it lies and allocates nothing unless it
// carries what outlives dispatch (keep). Of a longer one the head is: a put's
// or a get reply's data stays on the socket for land to read into place;
// anything else gets a body of its own (an AM's goes back to its pool if its handler releases it). A
// frame this rank cannot make sense of fails its sender (a shm peer's data frame
// no ring marker stands for too); only a stream that can no longer be read is an error.
func (t *wire) recv(p *peerConn, ctl bool) (byte, error) {
	n, b, err := peekFrame(p.br, frameMaxBody)
	if err != nil {
		return 0, err
	}
	t.ep.ctr.Add(obs.FramesIn, 1)
	t.ep.ctr.Add(obs.BytesIn, uint64(4+n))
	p.rest = 4 + n
	var f frame // its own in the fSock marker's nested recv
	err = decodeFrameBody(b, &f)
	switch bulk := len(b) < n; {
	case bulk && (err != nil || f.typ != fPut && f.typ != fGetRep):
		body, rb := newRecvBody(n)
		p.br.Discard(4)
		if _, err := io.ReadFull(p.br, body); err != nil {
			return 0, err
		}
		p.rest = 0
		if err = decodeFrameBody(body, &f); err == nil && f.typ == fAM {
			f.body, f.own = rb, true
		}
	case err != nil:
	case f.typ >= fRing: // empty, and its dispatch reads this socket: out of the way first
		p.br.Discard(p.rest)
		p.rest = 0
	default:
		f.n += uint32(n - len(b))
		if f.typ == fAM {
			f.payload = p.keep(f.payload)
		}
		f.remPayload = p.keep(f.remPayload)
	}
	if err == nil && ctl && p.ring != nil && f.typ != fRing && f.typ != fBye {
		err = fmt.Errorf("gasnet: frame %#x on a shm peer's socket with no ring marker before it", f.typ)
	} else if err == nil && (ctl || f.typ <= fCopy) {
		err = t.dispatch(p, &f)
	}
	if err != nil {
		t.fail(p.rank, err)
	}
	_, err = p.br.Discard(p.rest) // f's slices die here
	p.rest = 0
	return f.typ, err
}

// keep copies what outlives its frame's dispatch out of the read buffer, into
// a slab sized by what the burst has buffered: a burst costs at most one heap
// object, as a ring drain does, and what it leaves of the slab serves the next.
// A slab is appended to, never rewritten: its bytes are the handler's to keep
// (AMHandler); only a bulk AM's own body is read into again once handed back.
func (p *peerConn) keep(b []byte) []byte {
	if len(b) == 0 {
		return nil
	}
	if len(b) > cap(p.slab)-len(p.slab) {
		p.slab = make([]byte, 0, max(len(b), p.br.Buffered()))
	}
	at := len(p.slab)
	p.slab = append(p.slab, b...)
	return p.slab[at:len(p.slab):len(p.slab)]
}

// deliver hands the endpoint a socket burst's or a ring span's AMs at once, then acks its counted puts.
func (t *wire) deliver(p *peerConn) {
	t.ep.enqueueAM(p.ams...)
	clear(p.ams)
	p.ams = p.ams[:0]
	if p.owed > 0 { // after the AMs: landing, remote AM, ack
		var hdr [frameHeadMax]byte
		t.reply(p.rank, appendPutAck(hdr[:0], p.owed, 0))
		p.owed = 0
	}
}

func (t *wire) writerLoop(p *peerConn) {
	defer t.wg.Done()
	// The queue taken last is handed back as the next spare, with the room its
	// largest burst took: shrinking it was measured and made a rank that
	// alternates bulk and small traffic regrow it every round (EXPERIMENTS §13).
	var out []byte
	for {
		p.wmu.Lock()
		for len(p.wbuf) == 0 && !p.wclosed {
			p.wcnd.Wait()
		}
		out, p.wbuf = p.wbuf, out[:0]
		closed := p.wclosed
		p.wroom.Broadcast()
		p.wmu.Unlock()
		if len(out) > 0 {
			if _, err := p.conn.Write(out); err != nil {
				if !t.closing.Load() && !p.bye.Load() {
					t.fail(p.rank, err)
				}
				// Stop writing; sockSend drops what is sent from here on.
				p.wmu.Lock()
				p.wclosed, p.wbuf = true, nil
				p.wroom.Broadcast()
				p.wmu.Unlock()
				return
			}
		}
		if closed {
			if cw, ok := p.conn.(interface{ CloseWrite() error }); ok {
				cw.CloseWrite()
			}
			return
		}
	}
}

// send routes one frame, its body gathered from parts (frame.go's encoders
// build the head), to dst from an injecting goroutine, which a full queue
// parks — the shm ring (ringSend) or sendBound bytes on a socket (sockSend);
// reply is send from a reader goroutine, which nothing may block. A counted put's callback (onAck) joins dst's FIFO with its frame.
func (t *wire) send(dst Rank, parts ...[]byte)  { t.route(dst, parts, true, nil) }
func (t *wire) reply(dst Rank, parts ...[]byte) { t.route(dst, parts, false, nil) }

func (t *wire) route(dst Rank, parts [][]byte, block bool, onAck func()) {
	switch p := t.peers[dst]; {
	case p == nil: // self or torn down; self-sends never reach the transport
	case p.ring != nil:
		t.ringSend(p, parts, block, onAck)
	default:
		t.sockSend(p, block, onAck, parts...)
	}
}

// sockSend builds one frame at the tail of p's send queue, straight from the
// caller's memory: the one capture copy, into bytes the writer hands back for
// reuse. An injector (wait) that finds sendBound bytes queued parks until the
// writer takes them or wake says nobody will, and then drops its frame.
func (t *wire) sockSend(p *peerConn, wait bool, onAck func(), parts ...[]byte) {
	p.wmu.Lock()
	defer p.wmu.Unlock()
	for wait && len(p.wbuf) >= sendBound && !p.wclosed {
		if t.failErr.Load() != nil || t.closing.Load() || p.bye.Load() {
			return
		}
		t.ep.ctr.Add(obs.SendStalls, 1)
		p.wroom.Wait()
	}
	if p.wclosed {
		return
	}
	at := len(p.wbuf)
	p.wbuf = appendFrame(p.wbuf, parts...)
	if onAck != nil {
		p.acked = append(p.acked, completion{fn: onAck})
	}
	t.ep.ctr.Add(obs.FramesOut, 1)
	t.ep.ctr.Add(obs.BytesOut, uint64(len(p.wbuf)-at))
	p.wcnd.Signal()
}

// ringSend is the one ordered path to a shm peer (DESIGN §14): the local FIFO
// first, then this frame, its record gathered from parts. A reader goroutine or
// a drain leaves the frame, flattened, on the local FIFO of a full ring; an
// injector (block) parks until wake or, as a backstop, the park bound: a park like
// WaitPending's (poll: both rings may be full), rmu let go for it, the push retried first.
func (t *wire) ringSend(p *peerConn, parts [][]byte, block bool, onAck func()) {
	gone := func() bool { return t.failErr.Load() != nil || t.closing.Load() || p.bye.Load() }
	p.rmu.Lock()
	defer p.rmu.Unlock()
	for sent := false; !sent && (!t.flushLocal(p) || !t.ringPut(p, parts, onAck)); {
		if !block {
			p.lq = append(p.lq, bytes.Join(parts, nil))
			return
		}
		if gone() {
			return // nobody is left to read it
		}
		p.rmu.Unlock()
		t.poll(+1)
		p.rmu.Lock()
		if sent = t.flushLocal(p) && t.ringPut(p, parts, onAck); !sent && !gone() {
			// push set waiting under rmu, which wake takes to broadcast.
			tm := time.AfterFunc(100*time.Millisecond, func() { t.ep.ctr.Add(obs.RingTimeouts, 1); p.rcnd.Broadcast() })
			p.rcnd.Wait()
			tm.Stop()
		}
		p.rmu.Unlock()
		t.poll(-1)
		p.rmu.Lock()
	}
}

// ringPut places one frame on p's ring, and a counted put's callback on p's FIFO in the
// same hold of rmu, or reports the ring full. A frame too large for a record leaves an fSock
// marker and is built in the socket's send queue — never waiting there: the ring is the
// bound — behind a doorbell, so that the consumer meets the marker first, in order under rmu.
func (t *wire) ringPut(p *peerConn, parts [][]byte, onAck func()) bool {
	n, rec := amLen(nil, parts), parts
	if n > ringMaxRec {
		rec = [][]byte{{fSock}}
	}
	pushed, bell := p.ring.push(rec)
	if pushed && onAck != nil {
		p.acked = append(p.acked, completion{fn: onAck})
	}
	if pushed && (bell || n > ringMaxRec) {
		t.ep.ctr.Add(obs.RingDoorbells, 1)
		t.sockSend(p, false, nil, []byte{fRing})
	}
	if pushed && n > ringMaxRec {
		t.ep.ctr.Add(obs.SocketFallbacks, 1)
		t.sockSend(p, false, nil, parts...)
	} else if pushed {
		t.ep.ctr.Add(obs.RingRecords, 1)
	}
	return pushed
}

func (t *wire) flushLocal(p *peerConn) bool {
	for len(p.lq) > 0 && t.ringPut(p, p.lq[:1], nil) {
		p.lq = p.lq[1:]
	}
	return len(p.lq) == 0
}

// wake is the producer's half of fRing and of whatever else a parked injector
// must see (failure, bye, close): flush the local FIFO, wake them all.
func (t *wire) wake(p *peerConn) {
	if p == nil {
		return
	}
	p.wmu.Lock()
	p.wroom.Broadcast()
	p.wmu.Unlock()
	if p.ring != nil {
		p.rmu.Lock()
		t.flushLocal(p)
		p.rcnd.Broadcast()
		p.rmu.Unlock()
	}
}

// ---------------------------------------------------------------------------
// Pending-operation table

func (t *wire) newPending(op pendingOp) uint64 {
	id := t.seq.Add(1)
	t.pmu.Lock()
	t.pending[id] = op
	t.pmu.Unlock()
	return id
}

func (t *wire) takePending(id uint64) (pendingOp, bool) {
	t.pmu.Lock()
	op, ok := t.pending[id]
	if ok {
		delete(t.pending, id)
	}
	t.pmu.Unlock()
	return op, ok
}

// landed queues the callbacks of the k oldest counted puts to p, which p's ack says have
// landed, outside the FIFO's lock (syncDirect takes the queue lock before wmu and rmu), then
// moves the spent half out: a FIFO whose puts have all landed keeps none. p's reader runs it.
func (t *wire) landed(p *peerConn, k int) error {
	if k == 0 { // an ack by id alone
		return nil
	}
	mu := &p.wmu
	if p.ring != nil {
		mu = &p.rmu
	}
	mu.Lock()
	if k > len(p.acked)-p.ahead {
		defer mu.Unlock()
		return fmt.Errorf("gasnet: an ack of %d puts, %d outstanding", k, len(p.acked)-p.ahead)
	}
	done := p.acked[p.ahead : p.ahead+k]
	p.ahead += k
	mu.Unlock()
	t.ep.enqueueComp(done...)
	mu.Lock()
	defer mu.Unlock()
	if p.ahead > len(p.acked)/2 {
		n := copy(p.acked, p.acked[p.ahead:])
		clear(p.acked[n:])
		p.acked, p.ahead = p.acked[:n], 0
	}
	return nil
}

// ---------------------------------------------------------------------------
// Aux and remote-AM helpers

func (t *wire) encodeAux(aux any) []byte {
	if aux == nil {
		return nil
	}
	if t.aux == nil {
		panic("gasnet: transport carries an aux token but no AuxCodec is configured")
	}
	b, err := t.aux.EncodeAux(aux)
	if err != nil {
		panic(err)
	}
	return b
}

// decodeAux decodes an aux token off the wire; one this rank cannot
// decode is the sender's fault — an error, not a reader-goroutine panic.
func (t *wire) decodeAux(b []byte) (any, error) {
	if len(b) == 0 {
		return nil, nil
	}
	if t.aux == nil {
		return nil, errors.New("gasnet: transport received an aux token but no AuxCodec is configured")
	}
	return t.aux.DecodeAux(b)
}

// carried prepares what a put or copy frame carries besides its data:
// the armed remote-completion AM, and how the destination's ack finds
// x.onDone — by count (a direct put) or by id.
func (t *wire) carried(x xfer, counted bool) (rw *remWire, ackID uint64) {
	if x.rem.arm() {
		rw = &remWire{handler: uint16(x.rem.Handler), aux: t.encodeAux(x.rem.Aux), payload: x.rem.Payload}
	}
	if x.onDone != nil && counted {
		ackID = ackCounted
	} else if x.onDone != nil {
		ackID = t.newPending(pendingOp{onAck: x.onDone})
	}
	return rw, ackID
}

// shmLanded finishes a transfer that moved by direct memcpy into dst's
// mapped segment: the data is globally visible, so the transfer completed
// in its call (now) — no ack round trip — and an armed remote AM ships as
// a standalone fAM (the ring push's release-store publishes the memcpy).
func (t *wire) shmLanded(x xfer) bool {
	x.tag.Landing(x.dst.rank, x.n)
	if rem := x.rem; rem.arm() {
		t.am(nil, x.dst.rank, rem.Handler, rem.Payload, nil, rem.Aux, obs.OpTag{})
	}
	return true
}

// ---------------------------------------------------------------------------
// Operations. The endpoint routes rank-local traffic to loopback, so at
// least one side of every operation here is a peer process.

func (t *wire) transfer(ep *Endpoint, x *xfer, _ *hopPlan) bool {
	x.tag.Hop(obs.StageCapture, t.self, x.captureBytes())
	src, dst, n := x.src, x.dst, x.n
	var hdr [frameHeadMax]byte
	switch {
	case src.rank == t.self:
		// Put-shaped: local bytes to a peer's segment — a memcpy into its
		// mapped host segment on shm (a wild pointer faults on the slice
		// bounds), a frame otherwise; the target counts a device
		// segment's h2d descriptor when the data lands.
		data := ep.bytes(src, n)
		if p := t.peers[dst.rank]; dst.seg == HostSeg && p.seg != nil {
			copy(p.seg[dst.off:][:n], data)
			return t.shmLanded(*x)
		}
		rw, ackID := t.carried(*x, true)
		x.tag.Landing(dst.rank, n)
		t.route(dst.rank, [][]byte{appendPut(hdr[:0], uint32(t.self), uint16(dst.seg), dst.off, uint32(t.self), ackID, rw), data}, true, x.onDone)
	case dst.rank == t.self:
		// Get-shaped: a peer's bytes into local memory, where the
		// payload lands (and a copy's remote AM is due).
		into := ep.bytes(dst, n)
		tag, rem, onDone := x.tag, x.rem, x.onDone // captured piecemeal: x stays on the stack
		if p := t.peers[src.rank]; src.seg == HostSeg && p.seg != nil {
			copy(into, p.seg[src.off:][:n])
			tag.Landing(t.self, n)
			ep.deliverRemote(t.self, rem)
			return true
		}
		id := t.newPending(pendingOp{dst: into, onDone: func() {
			tag.Landing(t.self, n)
			ep.deliverRemote(t.self, rem)
			if onDone != nil {
				onDone()
			}
		}})
		t.send(src.rank, appendGet(hdr[:0], id, uint16(src.seg), src.off, uint32(n)))
	default:
		// Third party: both sides are peers.
		if sp, dp := t.peers[src.rank], t.peers[dst.rank]; src.seg == HostSeg && dst.seg == HostSeg && sp.seg != nil && dp.seg != nil {
			copy(dp.seg[dst.off:][:n], sp.seg[src.off:][:n])
			return t.shmLanded(*x)
		}
		// 2.5-hop relay: ask the source rank to put its bytes to the
		// destination, which acks us directly (ackRank = initiator).
		rw, ackID := t.carried(*x, false)
		t.send(src.rank, appendCopy(hdr[:0], uint32(t.self), uint16(src.seg), src.off, uint32(dst.rank), uint16(dst.seg), dst.off, uint32(n), uint32(t.self), ackID, rw))
	}
	return false
}

// am ships an Active Message. The single capture copy gathers its head, the
// aux bytes, the owned head and the borrowed fragments straight into a shm
// ring record or the tail of the socket's send queue; the fragments are
// reusable when am returns. parts lists them on the stack; a batch's many
// fragments move the list to the heap, and a copy of the head with it.
func (t *wire) am(_ *Endpoint, dst Rank, h HandlerID, head []byte, tail [][]byte, aux any, tag obs.OpTag) {
	n, auxb := amLen(head, tail), t.encodeAux(aux)
	tag.Hop(obs.StageCapture, t.self, n)
	var hdr [frameHeadMax]byte
	var parts [8][]byte
	parts[0], parts[1], parts[2] = appendAM(hdr[:0], uint32(t.self), uint16(h), len(auxb)), auxb, head
	list := parts[:3+copy(parts[3:], tail)]
	if len(tail) > len(parts)-3 {
		list = append([][]byte{bytes.Clone(parts[0]), auxb, head}, tail...)
	}
	t.send(dst, list...)
	tag.Landing(dst, n)
}

func (t *wire) amo(_ *Endpoint, dst Rank, off uint64, op AMOOp, op1, op2 uint64, onResult func(old uint64), tag obs.OpTag) (uint64, bool) {
	tag.Hop(obs.StageCapture, t.self, 8)
	if p := t.peers[dst]; p.seg != nil {
		// Same-host: execute the atomic directly on the peer's mapped
		// word — both sides use hardware atomics (shared segment), so
		// this serializes with the target's own AMOs — done in the call.
		old := sharedAMO((*uint64)(unsafe.Pointer(&p.seg[off:][:8][0])), op, op1, op2)
		tag.Landing(dst, 8)
		return old, true
	}
	var id uint64
	if onResult != nil {
		id = t.newPending(pendingOp{onOld: onResult})
	}
	var hdr [frameHeadMax]byte
	t.send(dst, appendAMO(hdr[:0], id, off, byte(op), op1, op2))
	tag.Landing(dst, 8)
	return 0, false
}

// ---------------------------------------------------------------------------
// Inbound dispatch

// Frames are outside input: a corrupt or hostile one must fail its sender
// (handleFrame routes the error to fail), not panic the reader goroutine
// the way a local wild pointer panics its initiator. checkRanks and
// inbound are where inbound addressing is validated.

func (t *wire) checkRanks(ranks ...uint32) error {
	for _, r := range ranks {
		if int(r) >= t.n {
			return fmt.Errorf("gasnet: frame names rank %d of a %d-rank job", r, t.n)
		}
	}
	return nil
}

// inbound returns [off, off+n) of local segment seg, as addressed by a
// frame that also names ranks.
func (t *wire) inbound(seg uint16, off uint64, n uint32, ranks ...uint32) ([]byte, error) {
	if err := t.checkRanks(ranks...); err != nil {
		return nil, err
	}
	s, err := t.ep.lookupSeg(SegID(seg))
	if err != nil {
		return nil, err
	}
	if end := off + uint64(n); end < off || end > uint64(s.Size()) {
		return nil, fmt.Errorf("gasnet: frame addresses [%d,%d) of segment %d (size %d)", off, end, seg, s.Size())
	}
	return s.Bytes(off, int(n)), nil
}

// land moves a put's or a get reply's data to dst, which the caller has
// validated and sized to the frame's n. Data that arrived with its head is one
// copy, under the endpoint queue lock (syncDirect). A bulk frame's is still on
// the socket: it is read straight into place, and not under that lock — the
// peer sets the pace of a read — so an empty syncDirect on either side gives
// the race detector the same edge.
func (t *wire) land(p *peerConn, dst, data []byte) error {
	if len(data) == len(dst) {
		t.ep.syncDirect(func() { copy(dst, data) })
		return nil
	}
	t.ep.syncDirect(func() {})
	p.br.Discard(p.rest - len(dst)) // the head; every slice into it is dead from here on
	_, err := io.ReadFull(p.br, dst)
	p.rest = 0
	t.ep.syncDirect(func() {})
	return err
}

// landRemote finishes an inbound put or copy whose f.n bytes are in place in
// local segment seg: count the h2d descriptor, enqueue the piggybacked
// remote-completion AM (aux is its decoded token), and ack the initiator.
func (t *wire) landRemote(p *peerConn, f *frame, seg uint16, aux any) {
	if SegID(seg) != HostSeg {
		t.ep.countDMA(obs.DMAH2D, int(f.n))
	}
	if f.hasRem {
		p.ams = append(p.ams, inboundAM{src: Rank(f.rank), handler: HandlerID(f.remHandler), payload: f.remPayload, aux: aux})
	}
	if f.ackID == ackCounted {
		p.owed++ // acked with the burst (deliver)
	} else if f.ackID != 0 {
		t.deliver(p) // the remote AM is enqueued before the ack starts back
		var hdr [frameHeadMax]byte
		t.reply(Rank(f.ackRank), appendPutAck(hdr[:0], 0, f.ackID))
	}
}

// handleFrame dispatches a frame body that nothing overwrites: a ring record.
// Only data frames and the fSock marker ride a ring (ringPut). The ring is the
// peer's memory: a control frame in a record is not obeyed — an fBye would make
// the peer's loss read as a clean shutdown, an fRing re-enter the drain that
// is decoding it — it fails its sender (dispatch refuses fHello anywhere).
func (t *wire) handleFrame(p *peerConn, body []byte) {
	var f frame
	err := decodeFrameBody(body, &f)
	if err == nil && f.typ > fCopy && f.typ != fSock {
		err = fmt.Errorf("gasnet: control frame %#x in a shm ring record", f.typ)
	}
	if err == nil {
		err = t.dispatch(p, &f)
	}
	if err != nil {
		t.fail(p.rank, err)
	}
}

func (t *wire) dispatch(p *peerConn, f *frame) error {
	switch f.typ {
	case fAM:
		if err := t.checkRanks(f.rank); err != nil {
			return err
		}
		aux, err := t.decodeAux(f.aux)
		if err != nil {
			return err
		}
		p.ams = append(p.ams, inboundAM{src: Rank(f.rank), handler: HandlerID(f.handler), payload: f.payload, aux: aux, body: f.body, own: f.own})
	case fPut:
		// Everything is checked, and the remote AM decoded, before a byte lands.
		dst, err := t.inbound(f.seg, f.off, f.n, f.rank, f.ackRank)
		if err != nil {
			return err
		}
		if f.ackID == ackCounted && Rank(f.ackRank) != p.rank {
			return fmt.Errorf("gasnet: a put from rank %d acked by count to rank %d", p.rank, f.ackRank)
		}
		aux, err := t.decodeAux(f.remAux)
		if err != nil {
			return err
		}
		if err := t.land(p, dst, f.payload); err != nil {
			return err
		}
		t.landRemote(p, f, f.seg, aux)
	case fPutAck:
		if err := t.landed(p, int(f.n)); err != nil {
			return err
		}
		if op, ok := t.takePending(f.ackID); ok && op.onAck != nil {
			t.ep.enqueueComp(completion{fn: op.onAck})
		}
	case fGet:
		src, err := t.inbound(f.seg, f.off, f.n)
		if err != nil {
			return err
		}
		if SegID(f.seg) != HostSeg {
			t.ep.countDMA(obs.DMAD2H, int(f.n))
		}
		var hdr [frameHeadMax]byte
		t.ep.syncDirect(func() { t.reply(p.rank, appendGetRep(hdr[:0], f.reqID), src) })
	case fGetRep:
		op, ok := t.takePending(f.reqID)
		if !ok {
			return nil
		}
		if int(f.n) != len(op.dst) {
			return fmt.Errorf("gasnet: get reply of %d bytes to a get of %d", f.n, len(op.dst))
		}
		if err := t.land(p, op.dst, f.payload); err != nil {
			return err
		}
		if op.onDone != nil {
			t.ep.enqueueComp(completion{fn: op.onDone})
		}
	case fAMO:
		if f.amoOp > byte(AMOCompSwap) {
			return fmt.Errorf("gasnet: invalid AMO op %d on the wire", f.amoOp)
		}
		if _, err := t.inbound(uint16(HostSeg), f.off, 8); err != nil {
			return err
		}
		var old uint64
		t.ep.syncDirect(func() { old = t.ep.seg.applyAMO(f.off, AMOOp(f.amoOp), f.amoA, f.amoB) })
		if f.reqID != 0 {
			var hdr [frameHeadMax]byte
			t.reply(p.rank, appendAMORep(hdr[:0], f.reqID, old))
		}
	case fAMORep:
		if op, ok := t.takePending(f.reqID); ok && op.onOld != nil {
			t.ep.enqueueComp(completion{res: op.onOld, old: f.amoOld})
		}
	case fCopy:
		return t.handleCopy(p, f)
	case fBye:
		p.bye.Store(true)
		fallthrough
	case fRing:
		t.drainRing(p, true)
		t.wake(p)
	case fSock:
		// The frame this record stands for is the next data frame on the
		// socket. An fRing met on the way is a doorbell whose drain half is
		// under way here; no other control frame has a place in the order.
		typ, err := t.recv(p, false)
		for ; err == nil && typ == fRing; typ, err = t.recv(p, false) {
			t.wake(p)
		}
		if err == nil && typ > fCopy {
			err = fmt.Errorf("gasnet: control frame %#x behind a ring marker", typ)
		}
		return err
	default:
		return fmt.Errorf("gasnet: unexpected frame type %#x mid-stream", f.typ)
	}
	return nil
}

// handleCopy runs at the copy's source rank: read the local bytes and
// relay them to the destination as a put whose ack goes straight back
// to the initiator.
func (t *wire) handleCopy(p *peerConn, f *frame) error {
	src, err := t.inbound(f.seg, f.off, f.n, f.rank, f.dstRank, f.ackRank)
	if err != nil {
		return err
	}
	if SegID(f.seg) != HostSeg {
		t.ep.countDMA(obs.DMAD2H, int(f.n))
	}
	if Rank(f.dstRank) == t.self {
		dst, err := t.inbound(f.dstSeg, f.dstOff, f.n)
		if err != nil {
			return err
		}
		aux, err := t.decodeAux(f.remAux)
		if err != nil {
			return err
		}
		t.ep.syncDirect(func() { copy(dst, src) })
		t.landRemote(p, f, f.dstSeg, aux)
		return nil
	}
	var rw *remWire
	if f.hasRem {
		rw = &remWire{handler: f.remHandler, aux: f.remAux, payload: f.remPayload}
	}
	var hdr [frameHeadMax]byte
	t.ep.syncDirect(func() {
		t.reply(Rank(f.dstRank), appendPut(hdr[:0], f.rank, f.dstSeg, f.dstOff, f.ackRank, f.ackID, rw), src)
	})
	return nil
}

// poll is the shm conduit's share of a progress pass (backend.poll): whoever is
// awake takes what the inbound rings hold, and no doorbell is sent for it. The
// parked words stand while goroutines of the rank block (parkers; drainRing arms
// before it looks); the last to leave clears them, then reads the count once more.
// On tcp every message is a socket reader's to take.
func (t *wire) poll(park int32) (sock bool) {
	if t.shm == nil {
		return true
	}
	if t.closing.Load() {
		return false
	}
	last := park != 0 && t.parkers.Add(park) == 0
	for _, p := range t.peers {
		if p != nil && last {
			atomic.StoreUint32(p.in.parked, 0)
		}
		sock = p != nil && t.drainRing(p, false) || sock
	}
	return sock
}

// drainRing is the one way off p's inbound ring, under p's drain lock: span by
// span, fRing sent back to a producer that waits for the space, each span's AMs
// going up together. The reader, whom every fRing and fBye brings, waits for the
// lock and follows an fSock marker onto the socket; a progress pass only tries it
// and leaves a marker (sock; mark spares the next pass the copy) and all behind
// it to the reader. Whoever was refused the lock saw records its holder may not
// have, so the holder looks again; every look is armed while anybody blocks — a
// belled drain may enqueue nothing, and must leave the word standing.
func (t *wire) drainRing(p *peerConn, reader bool) (sock bool) {
	r := p.in // nil on tcp; mapped before p's reader starts
	for r != nil && !sock {
		if t.parkers.Load() > 0 {
			r.arm()
		}
		marked := !reader && p.mark.Load() == atomic.LoadUint64(r.tail)+1
		if marked || !r.unread() {
			return marked
		}
		if reader {
			p.dmu.Lock()
		} else if !p.dmu.TryLock() {
			return false
		}
		for more := true; more; {
			span, pos, err := r.take()
			used := 0
			if err == nil {
				used, err = ringRecords(span, pos, func(rec []byte) bool {
					if rec[0] == fSock && !reader {
						return false
					}
					t.handleFrame(p, rec)
					return true
				})
			}
			if used > 0 && r.release(used) {
				t.ep.ctr.Add(obs.RingDoorbells, 1)
				t.sockSend(p, false, nil, []byte{fRing})
			}
			t.deliver(p)
			if err != nil {
				t.fail(p.rank, err)
			}
			if sock = used < len(span); sock {
				p.mark.Store(atomic.LoadUint64(r.tail) + 1)
			}
			more = span != nil && !sock
		}
		p.dmu.Unlock()
	}
	return sock
}

// ---------------------------------------------------------------------------
// Failure and teardown

func (t *wire) fail(peer Rank, err error) {
	if t.closing.Load() {
		return
	}
	err = fmt.Errorf("%w: rank %d: %v", ErrPeerLost, peer, err)
	t.failErr.CompareAndSwap(nil, &err)
	t.ep.Ring()
	for _, p := range t.peers {
		t.wake(p) // parked injectors see the failure
	}
}

func (t *wire) failure() error {
	if e := t.failErr.Load(); e != nil {
		return *e
	}
	return nil
}

// close announces fBye to every peer, drains the writers, and reaps the
// progress goroutines. Callers quiesce first (World.Run's final
// barrier), so per-peer FIFO guarantees all useful traffic precedes the
// bye on the wire (wake: local FIFOs flushed, parked injectors let go).
func (t *wire) close() {
	if t.closing.Swap(true) {
		return
	}
	for _, p := range t.peers {
		if p == nil {
			continue
		}
		t.wake(p)
		t.sockSend(p, false, nil, []byte{fBye})
		p.wmu.Lock()
		p.wclosed = true
		p.wcnd.Signal()
		p.wmu.Unlock()
		// Guard against a hung peer: readers stop within the deadline
		// even if the peer never sends its bye.
		p.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	}
	t.wg.Wait()
	for _, p := range t.peers {
		if p != nil {
			p.conn.Close()
		}
	}
	if t.ln != nil {
		t.ln.Close()
	}
	if t.shm != nil {
		for _, pf := range t.shm.peers {
			if pf != nil {
				pf.close()
			}
		}
		t.shm.my.close()
	}
}

func (t *wire) info() ConduitInfo {
	c := t.ep.ctr
	ci := ConduitInfo{
		Backend: t.backend, Self: int(t.self),
		FramesOut: c.Load(obs.FramesOut), FramesIn: c.Load(obs.FramesIn), BytesOut: c.Load(obs.BytesOut), BytesIn: c.Load(obs.BytesIn),
		RingRecords: c.Load(obs.RingRecords), RingDoorbells: c.Load(obs.RingDoorbells), SocketFallbacks: c.Load(obs.SocketFallbacks),
	}
	ci.PeerAddrs = make([]string, t.n)
	for r, p := range t.peers {
		if p != nil {
			ci.PeerAddrs[r] = p.addr
		} else if Rank(r) == t.self {
			ci.PeerAddrs[r] = "self"
		}
	}
	if t.shm != nil {
		ci.ShmSegBytes = t.shm.my.segN
	}
	return ci
}
