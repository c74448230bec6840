package gasnet

// Lock-free SPSC polled ring over shared memory.
//
// Each rank's mmap'd file holds one ring region per producer rank:
// ring i in rank r's file is written only by rank i (the producer) and
// drained only by rank r (the consumer). Within a process one mutex serializes
// the pushers (peerConn.rmu), another the drainers (dmu): across processes
// access stays single-producer/single-consumer.
//
// Layout of a ring region (ringBytes total):
//
//	+0    head     u64   (producer cursor; monotonically increasing)
//	+64   tail     u64   (consumer cursor; separate cache line)
//	+72   waiting  u32   (producer found the ring full; consumer swaps it out)
//	+76   parked   u32   (a goroutine of the consumer blocks; producer swaps it out)
//	+128  data     [ringCap]byte
//
// Records are `u32 len | body` where body is a transport frame body
// (no socket length prefix). A wrapMark length means "skip to the next
// wrap"; a pad too small to hold the 4-byte marker is skipped
// implicitly by position arithmetic.
//
// The consumer polls (wire.poll); a doorbell — fRing on the socket, which brings
// its reader to drain — goes only to one that said it blocks. Both doorbells
// resolve their lost-wakeup race by seq-cst store-then-load on each side. Data:
// a consumer goroutine STORES parked before it blocks, then LOADS the cursors
// again; the producer STORES the new head, then swaps parked out and sends fRing
// if it was set. Space: a producer that finds no room STORES waiting, then LOADS
// tail again; the consumer STORES tail, then swaps waiting out likewise.

import (
	"encoding/binary"
	"fmt"
	"sync/atomic"
	"unsafe"
)

const (
	ringBytes  = 1 << 16
	ringHdr    = 128
	ringCap    = ringBytes - ringHdr
	ringMaxRec = 4096 // max body bytes per record; a larger frame takes the socket behind a ring marker
)

const wrapMark = ^uint32(0)

type shmRing struct {
	head    *uint64
	tail    *uint64
	waiting *uint32
	parked  *uint32
	data    []byte
}

func mapRing(region []byte) *shmRing {
	if len(region) < ringBytes {
		panic("gasnet: shm ring region too small")
	}
	return &shmRing{
		head:    (*uint64)(unsafe.Pointer(&region[0])),
		tail:    (*uint64)(unsafe.Pointer(&region[64])),
		waiting: (*uint32)(unsafe.Pointer(&region[72])),
		parked:  (*uint32)(unsafe.Pointer(&region[76])),
		data:    region[ringHdr:ringBytes],
	}
}

// push appends one record, gathered from parts (1..ringMaxRec bytes in
// all). pushed=false means the ring is full and waiting is set: the
// consumer rings fRing back after its next drain. needBell=true means a
// goroutine of the consumer blocks and the caller must send it fRing.
func (r *shmRing) push(parts [][]byte) (pushed, needBell bool) {
	n := 0
	for _, p := range parts {
		n += len(p)
	}
	if n == 0 || n > ringMaxRec {
		panic(fmt.Sprintf("gasnet: shm ring record of %d bytes", n))
	}
	h0 := atomic.LoadUint64(r.head)
	pos, pad := int(h0%ringCap), 0
	if avail := ringCap - pos; avail < 4+n {
		pos, pad = 0, avail // not enough contiguous room: pad to the wrap point
	}
	full := func() bool { return ringCap-int(h0-atomic.LoadUint64(r.tail)) < pad+4+n }
	if full() {
		atomic.StoreUint32(r.waiting, 1)
		if full() { // the second look of the space doorbell
			return false, false
		}
	}
	if pad >= 4 {
		binary.LittleEndian.PutUint32(r.data[ringCap-pad:], wrapMark)
	}
	binary.LittleEndian.PutUint32(r.data[pos:], uint32(n))
	at := pos + 4
	for _, p := range parts {
		at += copy(r.data[at:], p)
	}
	atomic.StoreUint64(r.head, h0+uint64(pad+4+n))
	return true, r.bell()
}

// bell is the producer's half of the data doorbell, after its head store: it takes the word, so
// one fRing is sent for it. arm is the consumer's, before it looks at the cursors (unread).
func (r *shmRing) bell() bool {
	return atomic.LoadUint32(r.parked) != 0 && atomic.SwapUint32(r.parked, 0) != 0
}

func (r *shmRing) arm() {
	_ = atomic.LoadUint32(r.parked) != 0 || atomic.CompareAndSwapUint32(r.parked, 0, 1)
}

func (r *shmRing) unread() bool { return atomic.LoadUint64(r.head) != atomic.LoadUint64(r.tail) }

// take copies the unread span out; records are decoded from the private copy, which starts at
// ring position pos. The cursors are the peer's to write: a head out of range is an error, and skipped.
func (r *shmRing) take() (span []byte, pos int, err error) {
	tail, head := atomic.LoadUint64(r.tail), atomic.LoadUint64(r.head)
	if head == tail {
		return nil, 0, nil
	}
	if head-tail > ringCap {
		atomic.StoreUint64(r.tail, head)
		return nil, 0, fmt.Errorf("gasnet: shm ring head %d is %d bytes past tail", head, head-tail)
	}
	pos = int(tail % ringCap)
	span = make([]byte, head-tail)
	copy(span[copy(span, r.data[pos:]):], r.data)
	return span, pos, nil
}

// release hands the first n bytes of the span taken last back to the producer
// with one tail store; wake means the producer waits for that space.
func (r *shmRing) release(n int) (wake bool) {
	atomic.StoreUint64(r.tail, atomic.LoadUint64(r.tail)+uint64(n))
	return atomic.SwapUint32(r.waiting, 0) != 0
}

// ringRecords calls fn on each record of a span taken at ring position pos
// until fn refuses one, and returns the bytes ahead of that (else all); the
// bodies alias the span. The bytes are the peer's: a length the producer could
// not have written is an error — the span consumed whole — never a resynchronisation.
func ringRecords(span []byte, pos int, fn func(body []byte) bool) (used int, err error) {
	for i := 0; i < len(span); {
		avail, left := ringCap-(pos+i)%ringCap, len(span)-i
		n := wrapMark // a pad too small for a marker is one all the same
		if avail >= 4 && left >= 4 {
			n = binary.LittleEndian.Uint32(span[i:])
		}
		switch {
		case n == wrapMark && avail < left:
			i += avail
		case n == 0 || n > ringMaxRec || 4+int(n) > min(avail, left):
			return len(span), fmt.Errorf("gasnet: corrupt shm ring record: length %#x at position %d, %d bytes to the wrap, %d in the span", n, (pos+i)%ringCap, avail, left)
		case !fn(span[i+4 : i+4+int(n)]):
			return i, nil
		default:
			i += 4 + int(n)
		}
	}
	return len(span), nil
}
