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
	"io"

	"upcxx/internal/serial"
)

const (
	fHello  = 0x01 // proto u8 | rank u32 | nranks u32
	fAM     = 0x02 // src u32 | handler u16 | auxlen uvarint | aux | payload
	fPut    = 0x03 // src u32 | seg u16 | off u64 | ackRank u32 | ackID u64 | hasRem u8 | [rem] | data
	fPutAck = 0x04 // ackID u64
	fGet    = 0x05 // reqID u64 | seg u16 | off u64 | n u32
	fGetRep = 0x06 // reqID u64 | data
	fAMO    = 0x07 // reqID u64 | off u64 | op u8 | a u64 | b u64
	fAMORep = 0x08 // reqID u64 | old u64
	fCopy   = 0x09 // src u32 | srcSeg u16 | srcOff u64 | dstRank u32 | dstSeg u16 | dstOff u64 | n u32 | ackRank u32 | ackID u64 | hasRem u8 | [rem]
	fRing   = 0x0A // doorbell: drain my shm ring (empty body)
	fBye    = 0x0B // clean shutdown notice (empty body)
	fSock   = 0x0C // shm ring record only: the next data frame on the socket belongs here (empty body)
)

// frameProto is the transport bootstrap protocol version carried in
// fHello; bump on any incompatible frame change.
const frameProto = 1

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

	// fAM
	handler uint16
	aux     []byte
	payload []byte

	// fPut / fGet / fCopy addressing
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

// beginFrame starts an encoder with a 4-byte length placeholder so the
// finished buffer is a complete socket frame; shm push skips the first
// 4 bytes.
func beginFrame(typ byte, sizeHint int) *serial.Encoder {
	e := serial.NewEncoder(make([]byte, 0, 4+1+sizeHint))
	e.PutU32(0) // length placeholder
	e.PutU8(typ)
	return e
}

// finishFrame fills the length prefix and returns the full frame bytes
// (length prefix + body).
func finishFrame(e *serial.Encoder) []byte {
	b := e.Bytes()
	body := len(b) - 4
	if body > frameMaxBody {
		panic(errFrameTooBig)
	}
	b[0] = byte(body)
	b[1] = byte(body >> 8)
	b[2] = byte(body >> 16)
	b[3] = byte(body >> 24)
	return b
}

func encodeHello(rank, nranks uint32) []byte {
	e := beginFrame(fHello, 16)
	e.PutU8(frameProto)
	e.PutU32(rank)
	e.PutU32(nranks)
	return finishFrame(e)
}

// amHead appends an fAM body's fixed part: type, source, handler, aux length.
func amHead(b []byte, src uint32, handler uint16, auxLen int) []byte {
	b = binary.LittleEndian.AppendUint16(binary.LittleEndian.AppendUint32(append(b, fAM), src), handler)
	return binary.AppendUvarint(b, uint64(auxLen))
}

const amHeadMax = 1 + 4 + 2 + binary.MaxVarintLen64

// encodeAM frames an AM whose payload is head followed by tail.
func encodeAM(src uint32, handler uint16, aux []byte, head []byte, tail [][]byte) []byte {
	b := make([]byte, 4, 4+amHeadMax+len(aux)+amLen(head, tail)) // the length prefix, then the body
	e := serial.NewEncoder(amHead(b, src, handler, len(aux)))
	e.PutRaw(aux)
	e.PutRaw(head)
	for _, f := range tail {
		e.PutRaw(f)
	}
	return finishFrame(e)
}

func putRem(e *serial.Encoder, rem *remWire) {
	if rem == nil {
		e.PutU8(0)
		return
	}
	e.PutU8(1)
	e.PutU16(rem.handler)
	e.PutUvarint(uint64(len(rem.aux)))
	e.PutRaw(rem.aux)
	e.PutUvarint(uint64(len(rem.payload)))
	e.PutRaw(rem.payload)
}

func encodePut(src uint32, seg uint16, off uint64, ackRank uint32, ackID uint64, rem *remWire, data []byte) []byte {
	hint := 40 + len(data)
	if rem != nil {
		hint += 8 + len(rem.aux) + len(rem.payload)
	}
	e := beginFrame(fPut, hint)
	e.PutU32(src)
	e.PutU16(seg)
	e.PutU64(off)
	e.PutU32(ackRank)
	e.PutU64(ackID)
	putRem(e, rem)
	e.PutRaw(data)
	return finishFrame(e)
}

func encodePutAck(ackID uint64) []byte {
	e := beginFrame(fPutAck, 8)
	e.PutU64(ackID)
	return finishFrame(e)
}

func encodeGet(reqID uint64, seg uint16, off uint64, n uint32) []byte {
	e := beginFrame(fGet, 24)
	e.PutU64(reqID)
	e.PutU16(seg)
	e.PutU64(off)
	e.PutU32(n)
	return finishFrame(e)
}

func encodeGetRep(reqID uint64, data []byte) []byte {
	e := beginFrame(fGetRep, 8+len(data))
	e.PutU64(reqID)
	e.PutRaw(data)
	return finishFrame(e)
}

func encodeAMO(reqID, off uint64, op byte, a, b uint64) []byte {
	e := beginFrame(fAMO, 40)
	e.PutU64(reqID)
	e.PutU64(off)
	e.PutU8(op)
	e.PutU64(a)
	e.PutU64(b)
	return finishFrame(e)
}

func encodeAMORep(reqID, old uint64) []byte {
	e := beginFrame(fAMORep, 16)
	e.PutU64(reqID)
	e.PutU64(old)
	return finishFrame(e)
}

func encodeCopy(src uint32, srcSeg uint16, srcOff uint64, dstRank uint32, dstSeg uint16, dstOff uint64, n uint32, ackRank uint32, ackID uint64, rem *remWire) []byte {
	hint := 64
	if rem != nil {
		hint += 8 + len(rem.aux) + len(rem.payload)
	}
	e := beginFrame(fCopy, hint)
	e.PutU32(src)
	e.PutU16(srcSeg)
	e.PutU64(srcOff)
	e.PutU32(dstRank)
	e.PutU16(dstSeg)
	e.PutU64(dstOff)
	e.PutU32(n)
	e.PutU32(ackRank)
	e.PutU64(ackID)
	putRem(e, rem)
	return finishFrame(e)
}

func encodeEmpty(typ byte) []byte {
	return finishFrame(beginFrame(typ, 0))
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

// decodeFrameBody strictly decodes one frame body. It never panics on
// hostile input (fuzzed by FuzzTransportFrame); returned slices alias
// the input buffer.
func decodeFrameBody(b []byte) (frame, error) {
	var f frame
	if len(b) == 0 {
		return f, errors.New("gasnet: empty transport frame")
	}
	d := serial.NewDecoder(b)
	f.typ = d.U8()
	switch f.typ {
	case fHello:
		f.proto = d.U8()
		f.rank = d.U32()
		f.nranks = d.U32()
		if err := d.Finish(); err != nil {
			return f, err
		}
		if f.proto != frameProto {
			return f, fmt.Errorf("gasnet: transport proto %d, want %d", f.proto, frameProto)
		}
		return f, nil
	case fAM:
		f.rank = d.U32()
		f.handler = d.U16()
		an := d.Uvarint()
		if d.Err() != nil {
			return f, d.Err()
		}
		if an > uint64(d.Remaining()) {
			return f, fmt.Errorf("gasnet: frame aux length %d exceeds remaining %d", an, d.Remaining())
		}
		f.aux = d.Raw(int(an))
		f.payload = d.Raw(d.Remaining())
		return f, d.Err()
	case fPut:
		f.rank = d.U32()
		f.seg = d.U16()
		f.off = d.U64()
		f.ackRank = d.U32()
		f.ackID = d.U64()
		if d.Err() != nil {
			return f, d.Err()
		}
		if err := decodeRem(d, &f); err != nil {
			return f, err
		}
		f.payload = d.Raw(d.Remaining())
		return f, d.Err()
	case fPutAck:
		f.ackID = d.U64()
		return f, d.Finish()
	case fGet:
		f.reqID = d.U64()
		f.seg = d.U16()
		f.off = d.U64()
		f.n = d.U32()
		return f, d.Finish()
	case fGetRep:
		f.reqID = d.U64()
		f.payload = d.Raw(d.Remaining())
		return f, d.Err()
	case fAMO:
		f.reqID = d.U64()
		f.off = d.U64()
		f.amoOp = d.U8()
		f.amoA = d.U64()
		f.amoB = d.U64()
		return f, d.Finish()
	case fAMORep:
		f.reqID = d.U64()
		f.amoOld = d.U64()
		return f, d.Finish()
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
		if d.Err() != nil {
			return f, d.Err()
		}
		if err := decodeRem(d, &f); err != nil {
			return f, err
		}
		return f, d.Finish()
	case fRing, fBye, fSock:
		return f, d.Finish()
	default:
		return f, fmt.Errorf("gasnet: unknown transport frame type %#x", f.typ)
	}
}

// readFrame reads one length-prefixed frame body from a buffered
// stream, allocating a fresh body buffer (bodies outlive the read —
// AM payloads are enqueued without copying again).
func readFrame(r *bufio.Reader, max int) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := int(uint32(hdr[0]) | uint32(hdr[1])<<8 | uint32(hdr[2])<<16 | uint32(hdr[3])<<24)
	if n == 0 {
		return nil, errors.New("gasnet: zero-length transport frame")
	}
	if n > max {
		return nil, fmt.Errorf("gasnet: transport frame length %d exceeds max %d", n, max)
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		return nil, err
	}
	return body, nil
}
