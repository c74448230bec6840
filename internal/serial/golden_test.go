package serial

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"math"
	"reflect"
	"testing"
)

// node is a recursive type: the codec of *node is built while node's is.
type node struct {
	V    int16
	Next *node
}

type hidden struct {
	A int8
	b int64 // unexported: not on the wire
	C string
	d []byte
}

type named uint8

type pair struct {
	K uint32
	F float32
}

type everything struct {
	B  bool
	I  int
	U  uint16
	F  float64
	S  string
	Bs []byte
	Xs []int64
	P  *pair
	M  map[int8]bool
	A  [2]pair
	W  customWire
}

// wireGolden pins the wire form of every supported kind, one row a type.
// The forms were written by the reflective codec this package had before the
// compiled one; each is byte for byte what a peer built from it sends, so a
// row may change only with the format's version.
var wireGolden = []struct {
	name string
	v    any
	hex  string
}{
	{"bool false", false, "00"},
	{"bool true", true, "01"},
	{"int8", int8(-128), "80ffffffffffffff"},
	{"int16", int16(-2), "feffffffffffffff"},
	{"int32", int32(1 << 30), "0000004000000000"},
	{"int64", int64(math.MinInt64), "0000000000000080"},
	{"int", int(-1), "ffffffffffffffff"},
	{"uint8", uint8(255), "ff00000000000000"},
	{"uint16", uint16(0xBEEF), "efbe000000000000"},
	{"uint32", uint32(0xDEADBEEF), "efbeadde00000000"},
	{"uint64", uint64(math.MaxUint64), "ffffffffffffffff"},
	{"uint", uint(7), "0700000000000000"},
	{"uintptr", uintptr(0x1000), "0010000000000000"},
	{"named uint8", named(3), "0300000000000000"},
	{"float32", float32(-1.5), "000000000000f8bf"},
	{"float32 inf", float32(math.Inf(1)), "000000000000f07f"},
	{"float64", math.Pi, "182d4454fb210940"},
	{"complex64", complex64(complex(1, -2)), "000000000000f03f00000000000000c0"},
	{"complex128", complex(0.5, 3), "000000000000e03f0000000000000840"},
	{"string", "héllo", "0668c3a96c6c6f"},
	{"empty string", "", "00"},
	{"[]byte", []byte{1, 2, 3}, "03010203"},
	{"nil []byte", []byte(nil), "00"},
	{"[]named", []named{4, 5}, "020405"},
	{"[]int32", []int32{-1, 0, 1}, "03ffffffffffffffff00000000000000000100000000000000"},
	{"[]float64", []float64{0.25, -8}, "02000000000000d03f00000000000020c0"},
	{"[]pair", []pair{{1, 2}, {3, 4}}, "020100000000000000000000000000004003000000000000000000000000001040"},
	{"[3]uint16", [3]uint16{1, 2, 3}, "010000000000000002000000000000000300000000000000"},
	{"[0]int", [0]int{}, ""},
	{"map sorted", map[string]int32{"b": 2, "a": 1, "c": -3}, "0301610100000000000000016202000000000000000163fdffffffffffffff"},
	{"map int keys", map[int16]string{-1: "m", 300: "p", 0: "z"}, "030000000000000000017a2c010000000000000170ffffffffffffffff016d"},
	{"nil map", map[string]int(nil), "00"},
	{"nil pointer", (*int64)(nil), "00"},
	{"pointer", &pair{9, 0.5}, "010900000000000000000000000000e03f"},
	{"recursive", node{1, &node{2, &node{3, nil}}}, "010000000000000001020000000000000001030000000000000000"},
	{"pointer-shaped struct", struct{ P *pair }{&pair{1, 2}}, "0101000000000000000000000000000040"},
	{"pointer-shaped array", [1]*int64{new(int64)}, "010000000000000000"},
	{"map-shaped struct", struct{ M map[int8]bool }{map[int8]bool{1: true}}, "01010000000000000001"},
	{"unexported fields", hidden{A: -3, b: 99, C: "c", d: []byte{7}}, "fdffffffffffffff0163"},
	{"empty struct", struct{}{}, ""},
	{"Marshaler", customWire{N: 300}, "d804"},
	{"Marshaler in a struct", struct{ W customWire }{customWire{N: 1}}, "02"},
	{"everything", everything{
		B: true, I: -9, U: 512, F: -0.0, S: "s", Bs: []byte("bytes"),
		Xs: []int64{1 << 40}, P: &pair{K: 8}, M: map[int8]bool{2: true, -2: false},
		A: [2]pair{{5, 1}, {6, 2}}, W: customWire{N: 3},
	}, "01f7ffffffffffffff000200000000000000000000000000000173056279746573010000000000010000010800000000000000000000000000000002020000000000000001feffffffffffffff000500000000000000000000000000f03f0600000000000000000000000000004006"},
}

// TestWireGolden: every type marshals to its pinned bytes, and those bytes
// decode to a value that marshals to them again.
func TestWireGolden(t *testing.T) {
	for _, row := range wireGolden {
		got, err := Marshal(row.v)
		if err != nil {
			t.Errorf("%s: %v", row.name, err)
			continue
		}
		if hex.EncodeToString(got) != row.hex {
			t.Errorf("%s: wire form %x, pinned %s", row.name, got, row.hex)
			continue
		}
		back := reflect.New(reflect.TypeOf(row.v))
		if err := Unmarshal(got, back.Interface()); err != nil {
			t.Errorf("%s: decode of its own form: %v", row.name, err)
			continue
		}
		if re, err := Marshal(back.Elem().Interface()); err != nil || !bytes.Equal(re, got) {
			t.Errorf("%s: decoded value re-marshals to %x (%v), want %x", row.name, re, err, got)
		}
	}
}

// TestWireGoldenRejects: what cannot cross a network is refused with the
// error it always got, naming the path to the offending field.
func TestWireGoldenRejects(t *testing.T) {
	for _, row := range []struct {
		v    any
		want string
	}{
		{make(chan int), "serial: unsupported kind chan (chan int)"},
		{func() {}, "serial: unsupported kind func (func())"},
		{struct{ F func() }{}, "struct { F func() }.F: serial: unsupported kind func (func())"},
		{[]chan int{}, "[]chan int: serial: unsupported kind chan (chan int)"},
		{map[string]func(){}, "map[string]func() value: serial: unsupported kind func (func())"},
		{map[chan int]int{}, "map[chan int]int key: serial: unsupported kind chan (chan int)"},
		{[2]*chan bool{}, "[2]*chan bool: *chan bool: serial: unsupported kind chan (chan bool)"},
		{struct{ I any }{}, "struct { I interface {} }.I: serial: unsupported kind interface (interface {})"},
	} {
		_, err := Marshal(row.v)
		if err == nil || err.Error() != row.want {
			t.Errorf("Marshal(%T) = %v, want %q", row.v, err, row.want)
		}
		if err := Unmarshal([]byte{0}, reflect.New(reflect.TypeOf(row.v)).Interface()); err == nil || err.Error() != row.want {
			t.Errorf("Unmarshal into %T = %v, want %q", row.v, err, row.want)
		}
	}
}

// TestNarrowKindsCanonical: a kind narrower than its wire form refuses the
// bytes no value of it encodes to, rather than truncating them into a value
// that re-encodes differently.
func TestNarrowKindsCanonical(t *testing.T) {
	le := func(v uint64) []byte { return binary.LittleEndian.AppendUint64(nil, v) }
	for _, row := range []struct {
		name string
		data []byte
		into any
	}{
		{"300 into a uint8", le(300), new(uint8)},
		{"-129 into an int8", le(uint64(1<<64 - 129)), new(int8)},
		{"1<<63 into an int8", le(1 << 63), new(int8)},
		{"1<<32 into a uint32", le(1 << 32), new(uint32)},
		{"1<<31 into an int32", le(1 << 31), new(int32)},
		{"the byte 2 into a bool", []byte{2}, new(bool)},
		{"a pointer flag of 2", append([]byte{2}, le(1)...), new(*int64)},
		{"0.1 into a float32", le(math.Float64bits(0.1)), new(float32)},
		{"a float64 NaN payload into a float32", le(0x7ff8000000000001), new(float32)},
		{"a complex64 whose imaginary part does not narrow", append(le(0), le(math.Float64bits(0.1))...), new(complex64)},
	} {
		if err := Unmarshal(row.data, row.into); err == nil {
			t.Errorf("%s: accepted as %v", row.name, reflect.ValueOf(row.into).Elem())
		}
	}
	for _, v := range []any{int8(-128), int8(127), uint8(255), int32(math.MinInt32), uint32(math.MaxUint32), float32(0.1), float32(math.NaN()), complex64(complex(0.1, -0.2))} {
		b, _ := Marshal(v)
		back := reflect.New(reflect.TypeOf(v))
		if err := Unmarshal(b, back.Interface()); err != nil {
			t.Errorf("%T %v: its own form refused: %v", v, v, err)
		}
	}
}
