package gasnet

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"reflect"
	"testing"
)

// The standalone frames the tests feed readers, decoders and dispatchers: the
// length prefix, the head an encoder appends, and the data — the senders
// gather the same parts into a send queue or a ring record.

func encodeHello(rank, nranks uint32) []byte {
	return appendFrame(nil, appendHello(nil, rank, nranks))
}

func encodeAM(src uint32, handler uint16, aux, head []byte, tail [][]byte) []byte {
	return appendFrame(nil, append([][]byte{appendAM(nil, src, handler, len(aux)), aux, head}, tail...)...)
}

func encodePut(src uint32, seg uint16, off uint64, ackRank uint32, ackID uint64, rem *remWire, data []byte) []byte {
	return appendFrame(nil, appendPut(nil, src, seg, off, ackRank, ackID, rem), data)
}

func encodePutAck(ackID uint64) []byte { return appendFrame(nil, appendPutAck(nil, ackID)) }

func encodeGet(reqID uint64, seg uint16, off uint64, n uint32) []byte {
	return appendFrame(nil, appendGet(nil, reqID, seg, off, n))
}

func encodeGetRep(reqID uint64, data []byte) []byte {
	return appendFrame(nil, appendGetRep(nil, reqID), data)
}

func encodeAMO(reqID, off uint64, op byte, a, b uint64) []byte {
	return appendFrame(nil, appendAMO(nil, reqID, off, op, a, b))
}

func encodeAMORep(reqID, old uint64) []byte { return appendFrame(nil, appendAMORep(nil, reqID, old)) }

func encodeCopy(src uint32, srcSeg uint16, srcOff uint64, dstRank uint32, dstSeg uint16, dstOff uint64, n uint32, ackRank uint32, ackID uint64, rem *remWire) []byte {
	return appendFrame(nil, appendCopy(nil, src, srcSeg, srcOff, dstRank, dstSeg, dstOff, n, ackRank, ackID, rem))
}

func encodeEmpty(typ byte) []byte { return appendFrame(nil, []byte{typ}) }

func TestFrameRoundTrips(t *testing.T) {
	cases := []struct {
		name string
		fb   []byte
		want func(t *testing.T, f frame)
	}{
		{"hello", encodeHello(3, 8), func(t *testing.T, f frame) {
			if f.typ != fHello || f.rank != 3 || f.nranks != 8 || f.proto != frameProto {
				t.Fatalf("hello = %+v", f)
			}
		}},
		{"am", encodeAM(2, 7, []byte("aux"), []byte("pay"), [][]byte{[]byte("load")}), func(t *testing.T, f frame) {
			if f.typ != fAM || f.rank != 2 || f.handler != 7 ||
				string(f.aux) != "aux" || string(f.payload) != "payload" {
				t.Fatalf("am = %+v", f)
			}
		}},
		{"put-no-rem", encodePut(1, 0, 64, 1, 99, nil, []byte("data")), func(t *testing.T, f frame) {
			if f.typ != fPut || f.rank != 1 || f.seg != 0 || f.off != 64 ||
				f.ackRank != 1 || f.ackID != 99 || f.hasRem || string(f.payload) != "data" {
				t.Fatalf("put = %+v", f)
			}
		}},
		{"put-rem", encodePut(1, 2, 64, 3, 0, &remWire{handler: 5, aux: []byte("a"), payload: []byte("rp")}, []byte("d")), func(t *testing.T, f frame) {
			if !f.hasRem || f.remHandler != 5 || string(f.remAux) != "a" ||
				string(f.remPayload) != "rp" || string(f.payload) != "d" {
				t.Fatalf("put+rem = %+v", f)
			}
		}},
		{"putack", encodePutAck(42), func(t *testing.T, f frame) {
			if f.typ != fPutAck || f.ackID != 42 {
				t.Fatalf("putack = %+v", f)
			}
		}},
		{"get", encodeGet(7, 1, 128, 256), func(t *testing.T, f frame) {
			if f.typ != fGet || f.reqID != 7 || f.seg != 1 || f.off != 128 || f.n != 256 {
				t.Fatalf("get = %+v", f)
			}
		}},
		{"getrep", encodeGetRep(7, []byte("xyz")), func(t *testing.T, f frame) {
			if f.typ != fGetRep || f.reqID != 7 || string(f.payload) != "xyz" {
				t.Fatalf("getrep = %+v", f)
			}
		}},
		{"amo", encodeAMO(9, 16, byte(AMOAdd), 5, 0), func(t *testing.T, f frame) {
			if f.typ != fAMO || f.reqID != 9 || f.off != 16 || f.amoOp != byte(AMOAdd) || f.amoA != 5 {
				t.Fatalf("amo = %+v", f)
			}
		}},
		{"amorep", encodeAMORep(9, 77), func(t *testing.T, f frame) {
			if f.typ != fAMORep || f.reqID != 9 || f.amoOld != 77 {
				t.Fatalf("amorep = %+v", f)
			}
		}},
		{"copy", encodeCopy(0, 1, 8, 2, 0, 16, 32, 0, 11, nil), func(t *testing.T, f frame) {
			if f.typ != fCopy || f.rank != 0 || f.seg != 1 || f.off != 8 ||
				f.dstRank != 2 || f.dstSeg != 0 || f.dstOff != 16 || f.n != 32 ||
				f.ackRank != 0 || f.ackID != 11 {
				t.Fatalf("copy = %+v", f)
			}
		}},
		{"ring", encodeEmpty(fRing), func(t *testing.T, f frame) {
			if f.typ != fRing {
				t.Fatalf("ring = %+v", f)
			}
		}},
		{"bye", encodeEmpty(fBye), func(t *testing.T, f frame) {
			if f.typ != fBye {
				t.Fatalf("bye = %+v", f)
			}
		}},
		{"sock", encodeEmpty(fSock), func(t *testing.T, f frame) {
			if f.typ != fSock {
				t.Fatalf("sock = %+v", f)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// Through the streaming reader first: length prefix honored.
			br := bufio.NewReader(bytes.NewReader(tc.fb))
			n, body, err := peekFrame(br, frameMaxBody)
			if err != nil || n != len(tc.fb)-4 || len(body) != n {
				t.Fatalf("peekFrame: %d-byte body, %d of them peeked, %v; the frame's is %d", n, len(body), err, len(tc.fb)-4)
			}
			f, err := decodeFrameBody(body)
			if err != nil {
				t.Fatalf("decodeFrameBody: %v", err)
			}
			tc.want(t, f)
		})
	}
}

func TestReadFrameHostileLengths(t *testing.T) {
	peek := func(b []byte) error {
		_, _, err := peekFrame(bufio.NewReaderSize(bytes.NewReader(b), 1<<16), frameMaxBody)
		return err
	}
	// Oversized length prefix must error, not allocate/hang.
	if peek([]byte{0xff, 0xff, 0xff, 0x7f, 0x01}) == nil {
		t.Fatal("oversized frame accepted")
	}
	over := binary.LittleEndian.AppendUint32(nil, frameMaxBody+1)
	if peek(append(over, make([]byte, 1<<17)...)) == nil {
		t.Fatal("frame one byte over frameMaxBody accepted")
	}
	// Zero length must error.
	if peek([]byte{0, 0, 0, 0}) == nil {
		t.Fatal("zero-length frame accepted")
	}
	// Truncated bodies must error: one the buffer holds, and a bulk frame
	// that ends inside the head peekFrame waits for.
	if peek(encodeAM(0, 1, nil, make([]byte, 100), nil)[:20]) == nil {
		t.Fatal("truncated frame accepted")
	}
	if peek(encodePut(0, 0, 0, 0, 1, nil, make([]byte, 1<<17))[:bulkHead-1]) == nil {
		t.Fatal("truncated bulk frame accepted")
	}
	// A bulk frame yields its length and the head it starts with.
	bulk := encodePut(0, 0, 0, 0, 1, nil, make([]byte, 1<<17))
	if n, body, err := peekFrame(bufio.NewReaderSize(bytes.NewReader(bulk), 1<<16), frameMaxBody); err != nil || n != len(bulk)-4 || len(body) != bulkHead-4 {
		t.Fatalf("bulk frame: peekFrame = %d-byte body, %d peeked, %v", n, len(body), err)
	}
}

// FuzzTransportFrame: hostile bodies must never panic the decoder —
// truncation, wild lengths, garbage types. Seeded with every valid
// frame type plus mutations.
func FuzzTransportFrame(f *testing.F) {
	seeds := [][]byte{
		encodeHello(0, 4),
		encodeAM(1, 2, []byte("x"), []byte("payload"), nil),
		encodePut(0, 0, 8, 0, 1, &remWire{handler: 3, aux: []byte("a"), payload: []byte("p")}, []byte("data")),
		encodePutAck(1),
		encodeGet(2, 0, 0, 64),
		encodeGetRep(2, []byte("reply")),
		encodeAMO(3, 8, byte(AMOCompSwap), 1, 2),
		encodeAMORep(3, 9),
		encodeCopy(0, 1, 0, 1, 0, 0, 8, 0, 4, nil),
		encodeEmpty(fRing),
		encodeEmpty(fBye),
		{},
		{0xff},
	}
	for _, s := range seeds {
		if len(s) > 4 {
			f.Add(s[4:]) // frame bodies (strip the length prefix)
		} else {
			f.Add(s)
		}
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		fr, err := decodeFrameBody(body)
		if err != nil {
			return
		}
		// A decoded frame's slices must stay in bounds of the input.
		total := len(fr.aux) + len(fr.payload) + len(fr.remAux) + len(fr.remPayload)
		if total > len(body) {
			t.Fatalf("decoded slices (%d bytes) exceed input (%d bytes)", total, len(body))
		}
		// What the bulk path rests on: of a put or a get reply, every prefix
		// that holds the whole head decodes to the same head and to a payload
		// that is a prefix of the full one.
		if fr.typ != fPut && fr.typ != fGetRep {
			return
		}
		for cut := len(body) - len(fr.payload); cut <= len(body); cut++ {
			pre, err := decodeFrameBody(body[:cut])
			if err != nil || !bytes.HasPrefix(fr.payload, pre.payload) || len(pre.payload) != cut-(len(body)-len(fr.payload)) {
				t.Fatalf("prefix of %d of %d bytes: %v, payload %d bytes", cut, len(body), err, len(pre.payload))
			}
			pre.payload, pre.n = fr.payload, fr.n
			if !reflect.DeepEqual(pre, fr) {
				t.Fatalf("prefix of %d of %d bytes decodes to another head:\n%+v\n%+v", cut, len(body), pre, fr)
			}
		}
	})
}
