package gasnet

// Transport frame codec for the real (socket/shm) conduit backends.
//
// Every message on a socket is `| u32 LE length | body |`; shm ring
// records carry the same body bytes without the length prefix (the ring
// record header supplies it). The body starts with a one-byte frame
// type. Higher-level payloads (the 0xC9 RPC message, coll, remote-cx)
// ride inside fAM/fPut frames verbatim — this layer never inspects
// them, so the already-fuzzed core wire formats port unchanged.

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"

	"upcxx/internal/serial"
)

const (
	fHello  = 0x01 // proto u8 | rank u32 | nranks u32
	fAM     = 0x02 // src u32 | handler u16 | auxlen uvarint | aux | payload
	fPut    = 0x03 // src u32 | seg u16 | off u64 | ackRank u32 | ackID u64 (0: no ack) | hasRem u8 | [rem] | data
	fPutAck = 0x04 // count u32 (of the oldest counted puts to the sender) | ackID u64 (0: none)
	fGet    = 0x05 // reqID u64 | seg u16 | off u64 | n u32
	fGetRep = 0x06 // reqID u64 | data
	fAMO    = 0x07 // reqID u64 | off u64 | op u8 | a u64 | b u64
	fAMORep = 0x08 // reqID u64 | old u64
	fCopy   = 0x09 // src u32 | srcSeg u16 | srcOff u64 | dstRank u32 | dstSeg u16 | dstOff u64 | n u32 | ackRank u32 | ackID u64 | hasRem u8 | [rem]
	fRing   = 0x0A // doorbell: drain my shm ring (empty body)
	fBye    = 0x0B // clean shutdown notice (empty body)
	fSock   = 0x0C // shm ring record only: the next data frame on the socket belongs here (empty body)
)

// ackCounted is a direct put's ackID: acked by count, once per receive burst
// (wire.deliver), to its sender, whom ackRank must name. Another id is a copy's
// relayed put's, acked by a third rank; an fCopy's ackID is never ackCounted.
const ackCounted = ^uint64(0)

// frameProto is the transport bootstrap protocol version carried in
// fHello; bump on any incompatible frame change.
const frameProto = 2

// frameMaxBody bounds a single frame body; larger transfers must
// fragment above this layer (current ops never exceed segment sizes,
// which sit well under this).
const frameMaxBody = 64 << 20

var errFrameTooBig = errors.New("gasnet: transport frame exceeds max body size")

// frame is the decoded form of a transport frame body. Fields are a
// union across frame types; typ says which are meaningful.
type frame struct {
	typ byte

	// fHello
	proto  byte
	nranks uint32

	// common source rank (fAM, fPut, fCopy)
	rank uint32

	// fAM (body: the pooled body a bulk frame was read into, set by the reader;
	// own: the payload lies in a bulk frame's body, pooled or not)
	handler uint16
	aux     []byte
	payload []byte
	body    *recvBody
	own     bool

	// fPut / fGet / fCopy addressing; n is the data's length, which the decoder
	// takes from an fPut's or fGetRep's payload and the reader corrects for a
	// frame whose payload is still on the socket — or an fPutAck's count
	seg uint16
	off uint64
	n   uint32

	// acknowledgement routing (fPut, fCopy) and reply matching
	ackRank uint32
	ackID   uint64
	reqID   uint64

	// fAMO
	amoOp      byte
	amoA, amoB uint64
	amoOld     uint64

	// fCopy destination
	dstRank uint32
	dstSeg  uint16
	dstOff  uint64

	// optional piggybacked remote-completion AM (fPut, fCopy)
	hasRem     bool
	remHandler uint16
	remAux     []byte
	remPayload []byte
}

// remWire is the encode-side description of a piggybacked remote AM.
type remWire struct {
	handler uint16
	aux     []byte
	payload []byte
}

// The encoders append a frame body's head to b — on the send paths a stack
// array, which is why they are spelled in appends the compiler can see through
// — and never the data that follows it in an AM, a put or a get reply: a frame
// is gathered from its parts where it is queued (appendFrame for a socket,
// shmRing.push for a ring record), which is the one copy its sender makes.

var le = binary.LittleEndian

func appendHello(b []byte, rank, nranks uint32) []byte {
	return le.AppendUint32(le.AppendUint32(append(b, fHello, frameProto), rank), nranks)
}

// appendAM is an fAM's fixed part; the aux bytes and the payload follow.
func appendAM(b []byte, src uint32, handler uint16, auxLen int) []byte {
	return binary.AppendUvarint(le.AppendUint16(le.AppendUint32(append(b, fAM), src), handler), uint64(auxLen))
}

// frameHeadMax is the stack room senders give a frame's head; a remote AM
// that does not fit moves the head to the heap.
const frameHeadMax = 128

func appendRem(b []byte, rem *remWire) []byte {
	if rem == nil {
		return append(b, 0)
	}
	b = binary.AppendUvarint(le.AppendUint16(append(b, 1), rem.handler), uint64(len(rem.aux)))
	b = binary.AppendUvarint(append(b, rem.aux...), uint64(len(rem.payload)))
	return append(b, rem.payload...)
}

// appendPut is an fPut up to its data, which follows.
func appendPut(b []byte, src uint32, seg uint16, off uint64, ackRank uint32, ackID uint64, rem *remWire) []byte {
	b = le.AppendUint64(le.AppendUint16(le.AppendUint32(append(b, fPut), src), seg), off)
	return appendRem(le.AppendUint64(le.AppendUint32(b, ackRank), ackID), rem)
}

func appendPutAck(b []byte, count uint32, ackID uint64) []byte {
	return le.AppendUint64(le.AppendUint32(append(b, fPutAck), count), ackID)
}

func appendGet(b []byte, reqID uint64, seg uint16, off uint64, n uint32) []byte {
	b = le.AppendUint16(le.AppendUint64(append(b, fGet), reqID), seg)
	return le.AppendUint32(le.AppendUint64(b, off), n)
}

// appendGetRep is an fGetRep up to its data, which follows.
func appendGetRep(b []byte, reqID uint64) []byte {
	return le.AppendUint64(append(b, fGetRep), reqID)
}

func appendAMO(b []byte, reqID, off uint64, op byte, x, y uint64) []byte {
	b = append(le.AppendUint64(le.AppendUint64(append(b, fAMO), reqID), off), op)
	return le.AppendUint64(le.AppendUint64(b, x), y)
}

func appendAMORep(b []byte, reqID, old uint64) []byte {
	return le.AppendUint64(le.AppendUint64(append(b, fAMORep), reqID), old)
}

func appendCopy(b []byte, src uint32, srcSeg uint16, srcOff uint64, dstRank uint32, dstSeg uint16, dstOff uint64, n uint32, ackRank uint32, ackID uint64, rem *remWire) []byte {
	b = le.AppendUint64(le.AppendUint16(le.AppendUint32(append(b, fCopy), src), srcSeg), srcOff)
	b = le.AppendUint64(le.AppendUint16(le.AppendUint32(b, dstRank), dstSeg), dstOff)
	return appendRem(le.AppendUint64(le.AppendUint32(le.AppendUint32(b, n), ackRank), ackID), rem)
}

// appendFrame appends one socket frame to b: the length prefix, then the body
// gathered from parts.
func appendFrame(b []byte, parts ...[]byte) []byte {
	n := amLen(nil, parts)
	if n > frameMaxBody {
		panic(errFrameTooBig)
	}
	b = le.AppendUint32(b, uint32(n))
	for _, s := range parts {
		b = append(b, s...)
	}
	return b
}

// decodeRem parses the optional piggybacked remote-AM section.
func decodeRem(d *serial.Decoder, f *frame) error {
	has := d.U8()
	if d.Err() != nil {
		return d.Err()
	}
	switch has {
	case 0:
		return nil
	case 1:
	default:
		return fmt.Errorf("gasnet: frame rem flag %#x invalid", has)
	}
	f.hasRem = true
	f.remHandler = d.U16()
	an := d.Uvarint()
	if d.Err() != nil {
		return d.Err()
	}
	if an > uint64(d.Remaining()) {
		return fmt.Errorf("gasnet: frame rem aux length %d exceeds remaining %d", an, d.Remaining())
	}
	f.remAux = d.Raw(int(an))
	pn := d.Uvarint()
	if d.Err() != nil {
		return d.Err()
	}
	if pn > uint64(d.Remaining()) {
		return fmt.Errorf("gasnet: frame rem payload length %d exceeds remaining %d", pn, d.Remaining())
	}
	f.remPayload = d.Raw(int(pn))
	return d.Err()
}

// decodeFrameBody strictly decodes one frame body into f, which it zeroes
// first. It never panics on hostile input (fuzzed by FuzzTransportFrame); the
// slices it sets alias the input buffer.
func decodeFrameBody(b []byte, f *frame) error {
	*f = frame{}
	if len(b) == 0 {
		return errors.New("gasnet: empty transport frame")
	}
	d := serial.NewDecoder(b)
	f.typ = d.U8()
	switch f.typ {
	case fHello:
		f.proto = d.U8()
		f.rank = d.U32()
		f.nranks = d.U32()
		if d.Err() == nil && f.proto != frameProto {
			return fmt.Errorf("gasnet: transport proto %d, want %d", f.proto, frameProto)
		}
	case fAM:
		f.rank = d.U32()
		f.handler = d.U16()
		an := d.Uvarint()
		if an > uint64(d.Remaining()) {
			return fmt.Errorf("gasnet: frame aux length %d exceeds remaining %d", an, d.Remaining())
		}
		f.aux = d.Raw(int(an))
		f.payload = d.Raw(d.Remaining())
	case fPut:
		f.rank = d.U32()
		f.seg = d.U16()
		f.off = d.U64()
		f.ackRank = d.U32()
		f.ackID = d.U64()
		if err := decodeRem(d, f); err != nil {
			return err
		}
		f.payload = d.Raw(d.Remaining())
		f.n = uint32(len(f.payload))
	case fPutAck:
		f.n = d.U32()
		f.ackID = d.U64()
	case fGet:
		f.reqID = d.U64()
		f.seg = d.U16()
		f.off = d.U64()
		f.n = d.U32()
	case fGetRep:
		f.reqID = d.U64()
		f.payload = d.Raw(d.Remaining())
		f.n = uint32(len(f.payload))
	case fAMO:
		f.reqID = d.U64()
		f.off = d.U64()
		f.amoOp = d.U8()
		f.amoA = d.U64()
		f.amoB = d.U64()
	case fAMORep:
		f.reqID = d.U64()
		f.amoOld = d.U64()
	case fCopy:
		f.rank = d.U32()
		f.seg = d.U16()
		f.off = d.U64()
		f.dstRank = d.U32()
		f.dstSeg = d.U16()
		f.dstOff = d.U64()
		f.n = d.U32()
		f.ackRank = d.U32()
		f.ackID = d.U64()
		if f.ackID == ackCounted {
			return errors.New("gasnet: a copy acked by count")
		}
		if err := decodeRem(d, f); err != nil {
			return err
		}
	case fRing, fBye, fSock:
	default:
		return fmt.Errorf("gasnet: unknown transport frame type %#x", f.typ)
	}
	return d.Finish()
}

// bulkHead is how much of a frame longer than the read buffer is looked at
// for its head (the remote AM of a put included).
const bulkHead = 4 << 10

// peekFrame waits for the next frame of a buffered stream and returns its body
// length n (1..max) and the body where it lies in the read buffer, unconsumed
// — all of it, or the first bulkHead-4 bytes of a frame the buffer cannot hold.
func peekFrame(r *bufio.Reader, max int) (n int, body []byte, err error) {
	hdr, err := r.Peek(4)
	if err != nil {
		return 0, nil, err
	}
	n = int(le.Uint32(hdr))
	if n == 0 || n > max {
		return 0, nil, fmt.Errorf("gasnet: transport frame length %d outside [1, %d]", n, max)
	}
	size := 4 + n
	if size > r.Size() {
		size = bulkHead
	}
	b, err := r.Peek(size)
	if err != nil {
		return 0, nil, err
	}
	return n, b[4:], nil
}
