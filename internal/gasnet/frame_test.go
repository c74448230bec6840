package gasnet

import (
	"bufio"
	"bytes"
	"testing"
)

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
			body, err := readFrame(br, frameMaxBody)
			if err != nil {
				t.Fatalf("readFrame: %v", err)
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
	// Oversized length prefix must error, not allocate/hang.
	big := []byte{0xff, 0xff, 0xff, 0x7f, 0x01}
	if _, err := readFrame(bufio.NewReader(bytes.NewReader(big)), frameMaxBody); err == nil {
		t.Fatal("oversized frame accepted")
	}
	// Zero length must error.
	zero := []byte{0, 0, 0, 0}
	if _, err := readFrame(bufio.NewReader(bytes.NewReader(zero)), frameMaxBody); err == nil {
		t.Fatal("zero-length frame accepted")
	}
	// Truncated body must error.
	trunc := encodeAM(0, 1, nil, make([]byte, 100), nil)[:20]
	if _, err := readFrame(bufio.NewReader(bytes.NewReader(trunc)), frameMaxBody); err == nil {
		t.Fatal("truncated frame accepted")
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
	})
}
