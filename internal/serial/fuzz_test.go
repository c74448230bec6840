package serial

import (
	"bytes"
	"math"
	"slices"
	"testing"
)

// Fuzz targets for the codec layer: the Encoder/Decoder primitive pairs
// and the compiled Marshal/Unmarshal of the scalar-slice payloads RMA
// and views ship. Seed corpora run as plain tests in short mode; CI runs
// a -fuzz smoke window on top (Makefile fuzz-smoke).

// FuzzEncoderDecoder round-trips a mixed primitive sequence through the
// hand-rolled wire layer.
func FuzzEncoderDecoder(f *testing.F) {
	f.Add(uint64(0), int64(0), 0.0, "", []byte{})
	f.Add(uint64(1<<63), int64(-1), math.Inf(-1), "hello", []byte{1, 2, 3})
	f.Add(uint64(12345), int64(1<<40), 3.5e300, "unicode: héllo", bytes.Repeat([]byte{0xaa}, 100))
	f.Fuzz(func(t *testing.T, u uint64, i int64, fl float64, s string, b []byte) {
		e := NewEncoder(nil)
		e.PutU64(u)
		e.PutI64(i)
		e.PutF64(fl)
		e.PutString(s)
		e.PutBytes(b)
		e.PutUvarint(u)
		d := NewDecoder(e.Bytes())
		if got := d.U64(); got != u {
			t.Fatalf("U64: %d != %d", got, u)
		}
		if got := d.I64(); got != i {
			t.Fatalf("I64: %d != %d", got, i)
		}
		if got := d.F64(); got != fl && !(math.IsNaN(got) && math.IsNaN(fl)) {
			t.Fatalf("F64: %v != %v", got, fl)
		}
		if got := d.String(); got != s {
			t.Fatalf("String: %q != %q", got, s)
		}
		if got := d.Bytes(); !bytes.Equal(got, b) {
			t.Fatalf("Bytes: % x != % x", got, b)
		}
		if got := d.Uvarint(); got != u {
			t.Fatalf("Uvarint: %d != %d", got, u)
		}
		if err := d.Finish(); err != nil {
			t.Fatalf("Finish: %v", err)
		}
	})
}

// FuzzScalarSliceRoundTrip reinterprets fuzzer bytes as the scalar slices
// RMA payloads use, marshals them through the compiled codec, and
// requires an exact round trip.
func FuzzScalarSliceRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add(bytes.Repeat([]byte{0xff}, 64))
	f.Fuzz(func(t *testing.T, data []byte) {
		fs := FromBytes[float64](data[:len(data)&^7])
		b, err := Marshal(fs)
		if err != nil {
			t.Fatalf("marshal []float64: %v", err)
		}
		var back []float64
		if err := Unmarshal(b, &back); err != nil {
			t.Fatalf("unmarshal []float64: %v", err)
		}
		if len(back) != len(fs) {
			t.Fatalf("length %d != %d", len(back), len(fs))
		}
		for i := range fs {
			if math.Float64bits(back[i]) != math.Float64bits(fs[i]) {
				t.Fatalf("[%d] %x != %x", i, math.Float64bits(back[i]), math.Float64bits(fs[i]))
			}
		}
		us := FromBytes[uint32](data[:len(data)&^3])
		b2, err := Marshal(us)
		if err != nil {
			t.Fatalf("marshal []uint32: %v", err)
		}
		var back2 []uint32
		if err := Unmarshal(b2, &back2); err != nil {
			t.Fatalf("unmarshal []uint32: %v", err)
		}
		for i := range us {
			if back2[i] != us[i] {
				t.Fatalf("u32[%d] %d != %d", i, back2[i], us[i])
			}
		}
	})
}

// testView is a view-shaped Marshaler: a count, then the bytes through
// PutBorrowed, as the runtime's View writes them.
type testView []byte

func (v testView) MarshalSerial(e *Encoder)    { e.PutUvarint(uint64(len(v))); e.PutBorrowed(v) }
func (v *testView) UnmarshalSerial(d *Decoder) { *v = d.Raw(int(d.Uvarint())) }

type gatherRec struct {
	H uint32
	V testView
	B []byte
	W testView
}

// gatherMatches encodes v behind pre with EncodeSized twice, between a head
// and a trailer byte — contiguously and on a gather encoder — and requires
// the gather encoder's fragments to concatenate to the contiguous bytes, and
// to be there exactly when borrows says a run was borrowed.
func gatherMatches[T any](t *testing.T, pre []byte, v T, callScoped, borrows bool) {
	t.Helper()
	var flat, g Encoder
	g.EnableGather(callScoped)
	for _, e := range []*Encoder{&flat, &g} {
		e.PutU8(0xEE)
		if err := For[T]().EncodeSized(e, pre, &v); err != nil {
			t.Fatal(err)
		}
		e.PutU8(0x77)
	}
	got, frags := g.Bytes(), g.Fragments()
	if frags != nil {
		got = slices.Concat(frags...)
	}
	if (frags != nil) != borrows {
		t.Fatalf("%T of %d bytes (call-scoped %v): %d fragments, want borrowing %v", v, g.Len(), callScoped, len(frags), borrows)
	}
	if want := flat.Bytes(); !bytes.Equal(got, want) || g.Len() != len(got) {
		at := 0
		for at < min(len(got), len(want)) && got[at] == want[at] {
			at++
		}
		t.Fatalf("%T behind % x (call-scoped %v): %d gathered bytes (Len %d) against %d contiguous, first difference at %d",
			v, pre, callScoped, len(got), g.Len(), len(want), at)
	}
}

// FuzzEncodeSizedGather: EncodeSized on a gather encoder writes, across its
// fragments, the bytes it writes contiguously — for views, []byte and
// structs holding both, with the length prefix widened inside the owned
// fragment that holds it. The seeds put the view and []byte spans at the
// prefix-width edges: 127/128 and 16383/16384 bytes.
func FuzzEncodeSizedGather(f *testing.F) {
	for _, n := range []uint16{0, 63, 64, 126, 127, 16381, 16382} {
		f.Add([]byte{}, n, byte(n), true)
		f.Add([]byte{0xAB, 0xCD}, n, byte(n), false)
	}
	f.Fuzz(func(t *testing.T, pre []byte, n uint16, fill byte, callScoped bool) {
		data := make([]byte, n)
		for i := range data {
			data[i] = fill + byte(i)
		}
		big := n >= GatherMinBorrow
		gatherMatches(t, pre, testView(data), callScoped, big)
		gatherMatches(t, pre, data, callScoped, big && callScoped)
		gatherMatches(t, pre, gatherRec{H: uint32(n), V: data, B: data, W: data[:n/2]}, callScoped, big)
	})
}

// narrowKinds holds the kinds whose wire form is wider than their values:
// decoding accepts only the bytes encoding writes.
type narrowKinds struct {
	B   bool
	I8  int8
	U8  uint8
	I16 int16
	U32 uint32
	F   float32
	C   complex64
	P   *bool
}

// FuzzUnmarshalArbitrary throws raw bytes at decoders for the common
// payload shapes; they must fail cleanly (no crash, no huge allocation)
// or produce a value that re-encodes canonically.
func FuzzUnmarshalArbitrary(f *testing.F) {
	good, _ := Marshal([]float64{1, 2, 3})
	f.Add(good)
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 1}) // hostile length
	f.Add([]byte{})
	narrow, _ := Marshal(narrowKinds{B: true, I8: -1, U8: 255, I16: -300, U32: 1 << 31, F: 0.1, C: 1i, P: new(bool)})
	f.Add(narrow)
	f.Fuzz(func(t *testing.T, data []byte) {
		var fs []float64
		if err := Unmarshal(data, &fs); err == nil {
			re, err := Marshal(fs)
			if err != nil || !bytes.Equal(re, data) {
				t.Fatalf("accepted []float64 not canonical: % x -> % x (%v)", data, re, err)
			}
		}
		var nk narrowKinds
		if err := Unmarshal(data, &nk); err == nil {
			re, err := Marshal(nk)
			if err != nil || !bytes.Equal(re, data) {
				t.Fatalf("accepted %T not canonical: % x -> % x (%v)", nk, data, re, err)
			}
		}
		// Maps are not byte-canonical on decode (duplicate keys in the
		// input collapse), but re-encoding must reach a fixed point.
		var m map[uint32]int64
		if err := Unmarshal(data, &m); err == nil {
			re, err := Marshal(m)
			if err != nil {
				t.Fatalf("re-encode of accepted map: %v", err)
			}
			var m2 map[uint32]int64
			if err := Unmarshal(re, &m2); err != nil {
				t.Fatalf("re-decode of accepted map: %v", err)
			}
			re2, err := Marshal(m2)
			if err != nil || !bytes.Equal(re, re2) {
				t.Fatalf("map encoding not a fixed point: % x -> % x (%v)", re, re2, err)
			}
		}
	})
}
