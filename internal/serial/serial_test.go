package serial

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestEncoderDecoderRoundTrip(t *testing.T) {
	e := NewEncoder(nil)
	e.PutU8(0xab)
	e.PutBool(true)
	e.PutU16(0xbeef)
	e.PutU32(0xdeadbeef)
	e.PutU64(0x0123456789abcdef)
	e.PutI64(-42)
	e.PutF64(math.Pi)
	e.PutUvarint(300)
	e.PutBytes([]byte("hello"))
	e.PutString("world")

	d := NewDecoder(e.Bytes())
	if got := d.U8(); got != 0xab {
		t.Errorf("U8 = %#x", got)
	}
	if !d.Bool() {
		t.Error("Bool = false")
	}
	if got := d.U16(); got != 0xbeef {
		t.Errorf("U16 = %#x", got)
	}
	if got := d.U32(); got != 0xdeadbeef {
		t.Errorf("U32 = %#x", got)
	}
	if got := d.U64(); got != 0x0123456789abcdef {
		t.Errorf("U64 = %#x", got)
	}
	if got := d.I64(); got != -42 {
		t.Errorf("I64 = %d", got)
	}
	if got := d.F64(); got != math.Pi {
		t.Errorf("F64 = %v", got)
	}
	if got := d.Uvarint(); got != 300 {
		t.Errorf("Uvarint = %d", got)
	}
	if got := d.Bytes(); !bytes.Equal(got, []byte("hello")) {
		t.Errorf("Bytes = %q", got)
	}
	if got := d.String(); got != "world" {
		t.Errorf("String = %q", got)
	}
	if err := d.Finish(); err != nil {
		t.Fatalf("Finish: %v", err)
	}
}

func TestDecoderShortBuffer(t *testing.T) {
	d := NewDecoder([]byte{1, 2})
	_ = d.U64()
	if d.Err() != ErrShortBuffer {
		t.Fatalf("want ErrShortBuffer, got %v", d.Err())
	}
	// Sticky error: further reads keep failing without panicking.
	if got := d.U32(); got != 0 {
		t.Errorf("read after error = %d", got)
	}
}

func TestDecoderTrailingBytes(t *testing.T) {
	e := NewEncoder(nil)
	e.PutU32(7)
	d := NewDecoder(e.Bytes())
	_ = d.U16()
	if err := d.Finish(); err == nil {
		t.Fatal("Finish should report trailing bytes")
	}
}

type testStruct struct {
	A int32
	B string
	C []float64
	D map[string]uint16
	E *testStruct
	F [3]byte
	G bool
	h int // unexported: skipped
}

// TestDecoderHeaderTail pins the two helpers every versioned runtime wire
// format decodes with: Header accepts exactly its magic and version, Tail
// exactly a span that ends the input, and both report earlier short reads.
func TestDecoderHeaderTail(t *testing.T) {
	msg := func(tail ...byte) []byte { return append([]byte{0xC9, 1, 7}, tail...) }
	rows := []struct {
		name string
		in   []byte
		want []byte // nil: rejected
	}{
		{"empty tail", msg(0), []byte{}},
		{"tail", msg(2, 5, 6), []byte{5, 6}},
		{"no input", nil, nil},
		{"magic only", []byte{0xC9}, nil},
		{"wrong magic", append([]byte{0xCA}, msg(0)[1:]...), nil},
		{"wrong version", []byte{0xC9, 2, 7, 0}, nil},
		{"field missing", []byte{0xC9, 1}, nil},
		{"length missing", msg(), nil},
		{"tail short of its length", msg(2, 5), nil},
		{"bytes after the tail", msg(1, 5, 6), nil},
		{"non-minimal length", msg(0x80, 0), nil},
		{"huge length", msg(0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01), nil},
	}
	for _, row := range rows {
		d := NewDecoder(row.in)
		err := d.Header("test format", 0xC9, 1)
		var tail []byte
		if err == nil {
			d.U8()
			tail, err = d.Tail("test format")
		}
		if row.want == nil {
			if err == nil {
				t.Errorf("%s: accepted % x", row.name, row.in)
			}
			continue
		}
		if err != nil || !bytes.Equal(tail, row.want) || d.Finish() != nil {
			t.Errorf("%s: tail % x, err %v, finish %v; want % x", row.name, tail, err, d.Finish(), row.want)
		}
	}
}

func TestMarshalStructRoundTrip(t *testing.T) {
	in := testStruct{
		A: -7,
		B: "nested",
		C: []float64{1.5, -2.25, math.Inf(1)},
		D: map[string]uint16{"x": 1, "y": 2},
		E: &testStruct{A: 9, B: "inner"},
		F: [3]byte{1, 2, 3},
		G: true,
		h: 99,
	}
	b, err := Marshal(in)
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	var out testStruct
	if err := Unmarshal(b, &out); err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	in.h = 0 // not serialized
	if !reflect.DeepEqual(in, out) {
		t.Errorf("round trip mismatch:\n in: %+v\nout: %+v", in, out)
	}
}

func TestMarshalNilPointerAndEmpty(t *testing.T) {
	var in *int
	b, err := Marshal(in)
	if err != nil {
		t.Fatalf("Marshal(nil *int): %v", err)
	}
	out := new(int)
	var outp *int = out
	if err := Unmarshal(b, &outp); err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	if outp != nil {
		t.Errorf("want nil pointer, got %v", outp)
	}

	b, err = Marshal([]int(nil))
	if err != nil {
		t.Fatalf("Marshal(nil slice): %v", err)
	}
	var s []int
	if err := Unmarshal(b, &s); err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	if len(s) != 0 {
		t.Errorf("want empty slice, got %v", s)
	}
}

func TestMarshalRejectsChannels(t *testing.T) {
	if _, err := Marshal(make(chan int)); err == nil {
		t.Fatal("Marshal(chan) should fail")
	}
	if _, err := Marshal(struct{ F func() }{}); err == nil {
		t.Fatal("Marshal(func field) should fail")
	}
}

func TestMarshalDeterministicMaps(t *testing.T) {
	m := map[int]string{}
	for i := 0; i < 50; i++ {
		m[i] = "v"
	}
	a, err := Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 5; trial++ {
		b, err := Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Fatal("map encoding is not deterministic")
		}
	}
}

func TestUnmarshalHostileLength(t *testing.T) {
	// A slice header claiming 2^60 elements must not allocate.
	e := NewEncoder(nil)
	e.PutUvarint(1 << 60)
	var s []uint32
	if err := Unmarshal(e.Bytes(), &s); err == nil {
		t.Fatal("hostile length should fail")
	}
}

// sameAsMarshal checks the generic entry points against the reflective
// ones for one value: Encode writes Marshal's bytes, EncodeSized writes
// them — behind a prefix, when it is given one — behind their uvarint
// length, Decode reads them back.
func sameAsMarshal[T any](t *testing.T, v T) {
	t.Helper()
	want, err := Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	var e Encoder
	e.PutU8(0xEE) // something already in the buffer
	if err := Encode(&e, &v); err != nil || !bytes.Equal(e.Bytes()[1:], want) {
		t.Errorf("Encode(%T) = %x, %v; Marshal wrote %x", v, e.Bytes()[1:], err, want)
	}
	for _, pre := range [][]byte{nil, {0xAB, 0xCD}} {
		var sized Encoder
		sized.PutU8(0xEE)
		if err := EncodeSized(&sized, pre, &v); err != nil {
			t.Fatal(err)
		}
		d := NewDecoder(sized.Bytes()[1:])
		if got := d.Bytes(); d.Finish() != nil || !bytes.Equal(got, append(pre, want...)) {
			t.Errorf("EncodeSized(%x, %T): length-prefixed span %x (%v), want %x%x", pre, v, got, d.Finish(), pre, want)
		}
	}
	var back, ref T
	if err := Decode(want, &back); err != nil {
		t.Errorf("Decode(%T): %v", v, err)
	}
	if err := Unmarshal(want, &ref); err != nil || !reflect.DeepEqual(back, ref) {
		t.Errorf("Decode(%T) = %v, Unmarshal = %v (%v)", v, back, ref, err)
	}
	if err := Decode(append(want, 0), &back); err == nil {
		t.Errorf("Decode(%T) accepted a trailing byte", v)
	}
}

// TestEncodeDecodeAllocs: the direct case and the fallback of Encode/Decode
// agree with Marshal/Unmarshal byte for byte, EncodeSized's in-place length
// prefix stays canonical when the value outgrows the byte it reserved, and
// the direct case allocates nothing.
func TestEncodeDecodeAllocs(t *testing.T) {
	type named int64
	type rec struct {
		S  string
		Xs []int32
	}
	sameAsMarshal(t, int64(-7))
	sameAsMarshal(t, int(1)<<40)
	sameAsMarshal(t, uint64(1)<<63)
	sameAsMarshal(t, 2.5)
	sameAsMarshal(t, "")
	sameAsMarshal(t, strings.Repeat("x", 127)) // 128 marshalled bytes: the length needs a second byte
	sameAsMarshal(t, strings.Repeat("y", 1<<15))
	sameAsMarshal(t, named(9)) // not the direct case: reflection
	sameAsMarshal(t, uint8(200))
	sameAsMarshal(t, []byte("bytes"))
	sameAsMarshal(t, rec{"s", []int32{1, 2, 3}})
	sameAsMarshal(t, customWire{N: 21})
	var ch chan int
	if err := Encode(new(Encoder), &ch); err == nil {
		t.Error("Encode accepted a channel")
	}
	x, buf := int64(1)<<40, make([]byte, 0, 64)
	if n := testing.AllocsPerRun(100, func() {
		e := Encoder{buf: buf}
		var y int64
		if EncodeSized(&e, nil, &x) != nil || Decode(e.Bytes()[1:], &y) != nil || y != x {
			t.Error("int64 did not survive EncodeSized/Decode")
		}
	}); n != 0 {
		t.Errorf("EncodeSized+Decode of an int64: %v allocs, want 0", n)
	}
}

// Property: arbitrary struct payloads survive a round trip.
func TestQuickRoundTrip(t *testing.T) {
	type payload struct {
		I   int64
		U   uint32
		F   float64
		S   string
		Bs  []byte
		Fs  []float32
		M   map[uint8]int16
		Arr [4]uint64
		P   *int32
	}
	f := func(in payload) bool {
		b, err := Marshal(in)
		if err != nil {
			return false
		}
		var out payload
		if err := Unmarshal(b, &out); err != nil {
			return false
		}
		// Normalize nil vs empty for DeepEqual.
		if len(in.Bs) == 0 {
			in.Bs = nil
		}
		if len(out.Bs) == 0 {
			out.Bs = nil
		}
		if len(in.Fs) == 0 {
			in.Fs = nil
		}
		if len(out.Fs) == 0 {
			out.Fs = nil
		}
		if len(in.M) == 0 {
			in.M = nil
		}
		if len(out.M) == 0 {
			out.M = nil
		}
		return reflect.DeepEqual(in, out)
	}
	cfg := &quick.Config{MaxCount: 300}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestAsBytesFromBytes(t *testing.T) {
	fs := []float64{1, 2, 3.5}
	b := AsBytes(fs)
	if len(b) != 24 {
		t.Fatalf("AsBytes len = %d", len(b))
	}
	back := FromBytes[float64](b)
	if !reflect.DeepEqual(fs, back) {
		t.Errorf("FromBytes = %v", back)
	}
	// Mutation through the byte view is visible (aliasing).
	b[0] ^= 0xff
	if fs[0] == 1 {
		t.Error("AsBytes should alias the source")
	}

	if got := FromBytes[uint32](nil); got != nil {
		t.Errorf("FromBytes(nil) = %v", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("FromBytes with misaligned length should panic")
		}
	}()
	FromBytes[uint64](make([]byte, 12))
}

func TestCopyScalars(t *testing.T) {
	in := []int32{1, 2, 3}
	out := CopyScalars(in)
	out[0] = 99
	if in[0] != 1 {
		t.Error("CopyScalars should not alias")
	}
}

func TestSizeOf(t *testing.T) {
	cases := map[string]struct {
		got, want int
	}{
		"bool":    {SizeOf[bool](), 1},
		"int16":   {SizeOf[int16](), 2},
		"uint32":  {SizeOf[uint32](), 4},
		"float64": {SizeOf[float64](), 8},
		"cplx128": {SizeOf[complex128](), 16},
	}
	for name, c := range cases {
		if c.got != c.want {
			t.Errorf("%s: SizeOf = %d, want %d", name, c.got, c.want)
		}
	}
}

type customWire struct {
	N int
}

func (c customWire) MarshalSerial(e *Encoder) { e.PutUvarint(uint64(c.N * 2)) }
func (c *customWire) UnmarshalSerial(d *Decoder) {
	c.N = int(d.Uvarint() / 2)
}

func TestCustomMarshaler(t *testing.T) {
	in := customWire{N: 21}
	b, err := Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var out customWire
	if err := Unmarshal(b, &out); err != nil {
		t.Fatal(err)
	}
	if out.N != 21 {
		t.Errorf("custom round trip = %d", out.N)
	}
	// Nested inside a struct.
	type holder struct{ C customWire }
	b2, err := Marshal(holder{customWire{7}})
	if err != nil {
		t.Fatal(err)
	}
	var h holder
	if err := Unmarshal(b2, &h); err != nil {
		t.Fatal(err)
	}
	if h.C.N != 7 {
		t.Errorf("nested custom round trip = %d", h.C.N)
	}
}
