package serial

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"slices"
	"sync"
	"unsafe"
)

// Each type's codec is compiled once from its reflect.Type into functions
// over the value's memory — a struct field is read and written at its
// offset — so a call boxes no value and walks no reflect.Value. Supported:
// booleans, integers, floats, complex numbers, strings, pointers (nil is a
// flag byte), slices, arrays, maps (in sorted key order, so encoding is
// deterministic) and structs' exported fields — unexported ones, the
// analogue of non-serialized lambda state, are skipped. Channels, funcs and
// interfaces cannot cross a network.

// Marshaler lets a type define its own wire format (the analogue of a
// custom upcxx serialization specialization, used by views and global
// pointers). MarshalSerial must not keep e past its return: the encoder may
// live on its caller's stack.
type Marshaler interface {
	MarshalSerial(e *Encoder)
}

// Unmarshaler is the decoding side of Marshaler; it is implemented on the
// pointer receiver. Decoded state may alias the decoder's buffer, for as long
// as that lives (an RPC argument's: its body's run, upcxx.View); UnmarshalSerial must not keep d.
type Unmarshaler interface {
	UnmarshalSerial(d *Decoder)
}

// codec is one type's compiled codec: enc appends the value at p, dec
// stores at p the value it reads. A type that cannot cross a network has
// err instead. word marks an 8-byte integer or float, whose memory is its
// wire form: encode and decode move it themselves, sparing the call. direct
// marks a pointer-shaped type, which an interface holds in its data word.
type codec struct {
	t            reflect.Type
	enc          func(e *Encoder, p unsafe.Pointer)
	dec          func(d *Decoder, p unsafe.Pointer)
	err          error
	word, direct bool
}

// Codec is T's compiled codec. Resolve it with For once, where T is first
// known, and keep it: its methods then cost no lookup.
type Codec[T any] struct{ c *codec }

// For returns T's codec, compiling it on first use.
func For[T any]() Codec[T] { return Codec[T]{codecOf(reflect.TypeFor[T]())} }

// Encode appends *v's wire form to e.
func (c Codec[T]) Encode(e *Encoder, v *T) error { return c.c.encode(e, unsafe.Pointer(v)) }

// EncodeSized appends what PutBytes of pre followed by *v's wire form
// would, marshalling in place (see codec.encodeSized).
func (c Codec[T]) EncodeSized(e *Encoder, pre []byte, v *T) error {
	return c.c.encodeSized(e, pre, unsafe.Pointer(v))
}

// Decode stores in *v the value data holds, which must be the whole input.
func (c Codec[T]) Decode(data []byte, v *T) error { return c.c.decode(data, unsafe.Pointer(v), false) }

// DecodeKept is Decode, and when kept, of input nothing writes again: a
// []byte or string in *v then aliases data instead of copying it (a []byte's
// capacity clipped, so an append reallocates), and keeps all of data alive.
func (c Codec[T]) DecodeKept(data []byte, kept bool, v *T) error {
	return c.c.decode(data, unsafe.Pointer(v), kept)
}

// Marshal encodes v into a new buffer.
func Marshal(v any) ([]byte, error) {
	if v == nil {
		return nil, fmt.Errorf("serial: cannot marshal untyped nil")
	}
	c, word := codecOf(reflect.TypeOf(v)), &(*[2]unsafe.Pointer)(unsafe.Pointer(&v))[1]
	p := *word // v's data word: a pointer to the value, or the value itself
	if c.direct {
		p = unsafe.Pointer(word)
	}
	var e Encoder
	if err := c.encode(&e, p); err != nil {
		return nil, err
	}
	return e.Bytes(), nil
}

// Unmarshal decodes data into the value pointed to by ptr, which must be a
// non-nil pointer to a supported type. The whole input must be consumed.
func Unmarshal(data []byte, ptr any) error {
	rv := reflect.ValueOf(ptr)
	if rv.Kind() != reflect.Pointer || rv.IsNil() {
		return fmt.Errorf("serial: unmarshal target must be a non-nil pointer, got %T", ptr)
	}
	return codecOf(rv.Type().Elem()).decode(data, rv.UnsafePointer(), false)
}

// hide hides p from escape analysis, as strings.Builder once did: no codec
// keeps what it is handed (Marshaler's contract), but what p points to may be
// kept (a borrowed view), which the store to leak, never run, shows. p may
// point into the goroutine's stack, so no call may come between the uintptr
// and the pointer made back from it: a stack that moved there would leave the
// pointer stale. Under -race the checkptr instrumentation adds such calls,
// so hide is exempt from it (TestRPCArgumentAcrossStackGrowth).
//
//go:nocheckptr
func hide(p unsafe.Pointer) unsafe.Pointer {
	if leak != nil {
		leak = *(*unsafe.Pointer)(p)
	}
	x := uintptr(p)
	return *(*unsafe.Pointer)(unsafe.Pointer(&x))
}

var leak unsafe.Pointer

func (c *codec) encode(e *Encoder, p unsafe.Pointer) (err error) {
	if c.err != nil {
		return c.err
	}
	if c.word {
		e.PutU64(*(*uint64)(p))
		return nil
	}
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("serial: marshal %v: %v", c.t, r)
		}
	}()
	c.enc((*Encoder)(hide(unsafe.Pointer(e))), hide(p))
	return nil
}

func (c *codec) decode(data []byte, p unsafe.Pointer, kept bool) (err error) {
	if c.err != nil {
		return c.err
	}
	d := Decoder{buf: data, kept: kept}
	if c.word {
		*(*uint64)(p) = d.U64()
		return d.Finish()
	}
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("serial: unmarshal *%v: %v", c.t, r)
		}
	}()
	c.dec((*Decoder)(hide(unsafe.Pointer(&d))), hide(p))
	return d.Finish()
}

// encodeSized appends what PutBytes of pre followed by the value's wire form
// would, but marshals in place: one length byte is reserved, and the span
// moves up only if it needs more. On a gather-mode encoder whose span
// borrowed a run, the prefix sits in the owned fragment closed behind it, and
// the bytes after it move up there, into the gap closeFrag left.
func (c *codec) encodeSized(e *Encoder, pre []byte, p unsafe.Pointer) error {
	fi, at, start := len(e.frags), len(e.buf), e.Len()
	e.buf = append(append(e.buf, 0), pre...)
	err := c.encode(e, p)
	n, b := uint64(e.Len()-start-1), &e.buf
	if fi < len(e.frags) {
		b = &e.frags[fi]
	}
	if n < 0x80 {
		(*b)[at] = byte(n)
		return err
	}
	var l [binary.MaxVarintLen64]byte
	w := binary.PutUvarint(l[:], n)
	if fi < len(e.frags) {
		e.flen += w - 1
	}
	*b = append(*b, l[1:w]...)
	copy((*b)[at+w:], (*b)[at+1:len(*b)-w+1])
	copy((*b)[at:], l[:w])
	return err
}

var codecs sync.Map // reflect.Type -> *codec

func codecOf(t reflect.Type) *codec {
	if c, ok := codecs.Load(t); ok {
		return c.(*codec)
	}
	c, err := build(t, map[reflect.Type]*codec{})
	if err != nil {
		c = &codec{t: t, err: err}
	}
	cached, _ := codecs.LoadOrStore(t, c)
	return cached.(*codec)
}

// integer is an integer kind's codec: 8 bytes, sign- or zero-extended; a
// value that does not narrow to T and extend back unchanged is no T's form.
func integer[T int8 | int16 | int32 | int64 | int | uint8 | uint16 | uint32 | uint64 | uint | uintptr](c *codec) {
	c.enc = func(e *Encoder, p unsafe.Pointer) { e.PutU64(uint64(*(*T)(p))) }
	c.dec = func(d *Decoder, p unsafe.Pointer) {
		v := d.U64()
		if uint64(T(v)) != v {
			d.fail(errNotCanonical)
		}
		*(*T)(p) = T(v)
	}
}

// float is a float kind's codec: a float64, refused unless it narrows to T.
func float[T float32 | float64](c *codec) {
	c.enc = func(e *Encoder, p unsafe.Pointer) { e.PutF64(float64(*(*T)(p))) }
	c.dec = func(d *Decoder, p unsafe.Pointer) {
		v := d.F64()
		if math.Float64bits(float64(T(v))) != math.Float64bits(v) {
			d.fail(errNotCanonical)
		}
		*(*T)(p) = T(v)
	}
}

var scalars = map[reflect.Kind]func(*codec){
	reflect.Int: integer[int], reflect.Int8: integer[int8], reflect.Int16: integer[int16],
	reflect.Int32: integer[int32], reflect.Int64: integer[int64], reflect.Uint: integer[uint],
	reflect.Uint8: integer[uint8], reflect.Uint16: integer[uint16], reflect.Uint32: integer[uint32],
	reflect.Uint64: integer[uint64], reflect.Uintptr: integer[uintptr],
	reflect.Float32: float[float32], reflect.Float64: float[float64],
}

// build compiles t's codec; building breaks the cycles of recursive types,
// whose codecs' functions look up the codecs they call when they run.
func build(t reflect.Type, building map[reflect.Type]*codec) (*codec, error) {
	if c, ok := building[t]; ok {
		return c, nil
	}
	z := reflect.Zero(t).Interface() // a zero pointer shape leaves the data word nil
	c := &codec{t: t, direct: (*[2]unsafe.Pointer)(unsafe.Pointer(&z))[1] == nil}
	building[t] = c

	// Custom wire formats first, called through a pointer: nothing is boxed.
	if t.Implements(reflect.TypeFor[Marshaler]()) && reflect.PointerTo(t).Implements(reflect.TypeFor[Unmarshaler]()) {
		c.enc = func(e *Encoder, p unsafe.Pointer) {
			reflect.NewAt(t, p).Interface().(Marshaler).MarshalSerial(e)
		}
		c.dec = func(d *Decoder, p unsafe.Pointer) {
			reflect.NewAt(t, p).Interface().(Unmarshaler).UnmarshalSerial(d)
		}
		return c, nil
	}

	var ec *codec // a pointer's, slice's or array's element codec
	if k := t.Kind(); k == reflect.Pointer || k == reflect.Slice || k == reflect.Array {
		var err error
		if ec, err = build(t.Elem(), building); err != nil {
			return nil, fmt.Errorf("%v: %w", t, err)
		}
	}
	switch t.Kind() {
	case reflect.Bool:
		c.enc = func(e *Encoder, p unsafe.Pointer) { e.PutBool(*(*bool)(p)) }
		c.dec = func(d *Decoder, p unsafe.Pointer) { *(*bool)(p) = d.Bool() }
	case reflect.Complex64, reflect.Complex128:
		// Laid out, and sent, as its real and imaginary floats.
		half := reflect.TypeFor[float64]()
		if t.Kind() == reflect.Complex64 {
			half = reflect.TypeFor[float32]()
		}
		parts, _ := build(reflect.ArrayOf(2, half), building)
		c.enc, c.dec = parts.enc, parts.dec
	case reflect.String:
		c.enc = func(e *Encoder, p unsafe.Pointer) { e.PutString(*(*string)(p)) }
		c.dec = func(d *Decoder, p unsafe.Pointer) {
			if b := d.Bytes(); d.kept && len(b) > 0 {
				*(*string)(p) = unsafe.String(&b[0], len(b))
			} else {
				*(*string)(p) = string(b)
			}
		}
	case reflect.Slice:
		if t.Elem().Kind() == reflect.Uint8 {
			// []byte and named variants (PutBytes: borrowed on a
			// call-scoped gather encoder); decoded into a copy, or by
			// DecodeKept in place, its capacity clipped (empty: nil), so
			// it keeps its whole input alive (an RPC message's body: at
			// most twice the message).
			c.enc = func(e *Encoder, p unsafe.Pointer) { e.PutBytes(*(*[]byte)(p)) }
			c.dec = func(d *Decoder, p unsafe.Pointer) {
				if b := d.Bytes(); d.kept && len(b) > 0 {
					*(*[]byte)(p) = b[:len(b):len(b)]
				} else {
					*(*[]byte)(p) = append([]byte(nil), b...)
				}
			}
			break
		}
		size := t.Elem().Size()
		c.enc = func(e *Encoder, p unsafe.Pointer) {
			s := *(*[]byte)(p) // the header of any slice: its data and length
			e.PutUvarint(uint64(len(s)))
			for i := range uintptr(len(s)) {
				ec.enc(e, unsafe.Add(unsafe.Pointer(unsafe.SliceData(s)), i*size))
			}
		}
		c.dec = func(d *Decoder, p unsafe.Pointer) {
			n := d.count()
			v := reflect.NewAt(t, p).Elem()
			v.SetZero()
			if n == 0 {
				return
			}
			v.Grow(n)
			v.SetLen(n)
			data := v.UnsafePointer()
			for i := 0; i < n && d.err == nil; i++ {
				ec.dec(d, unsafe.Add(data, uintptr(i)*size))
			}
		}
	case reflect.Array:
		n, size := uintptr(t.Len()), t.Elem().Size()
		c.enc = func(e *Encoder, p unsafe.Pointer) {
			for i := range n {
				ec.enc(e, unsafe.Add(p, i*size))
			}
		}
		c.dec = func(d *Decoder, p unsafe.Pointer) {
			for i := uintptr(0); i < n && d.err == nil; i++ {
				ec.dec(d, unsafe.Add(p, i*size))
			}
		}
	case reflect.Map:
		kc, err := build(t.Key(), building)
		if err != nil {
			return nil, fmt.Errorf("%v key: %w", t, err)
		}
		vc, err := build(t.Elem(), building)
		if err != nil {
			return nil, fmt.Errorf("%v value: %w", t, err)
		}
		c.enc = func(e *Encoder, p unsafe.Pointer) {
			m := reflect.NewAt(t, p).Elem()
			e.PutUvarint(uint64(m.Len()))
			// Deterministic order: encode each entry, sort by the key's form.
			k, v := reflect.New(t.Key()), reflect.New(t.Elem())
			var pairs [][2][]byte
			for it := m.MapRange(); it.Next(); {
				var ke, ve Encoder
				k.Elem().SetIterKey(it)
				v.Elem().SetIterValue(it)
				kc.enc(&ke, k.UnsafePointer())
				vc.enc(&ve, v.UnsafePointer())
				pairs = append(pairs, [2][]byte{ke.buf, ve.buf})
			}
			slices.SortFunc(pairs, func(a, b [2][]byte) int { return bytes.Compare(a[0], b[0]) })
			for _, kv := range pairs {
				e.PutRaw(kv[0])
				e.PutRaw(kv[1])
			}
		}
		c.dec = func(d *Decoder, p unsafe.Pointer) {
			n := d.count()
			m := reflect.NewAt(t, p).Elem()
			m.SetZero()
			if n == 0 {
				return
			}
			m.Set(reflect.MakeMapWithSize(t, n))
			for i := 0; i < n && d.err == nil; i++ {
				k, v := reflect.New(t.Key()), reflect.New(t.Elem())
				kc.dec(d, k.UnsafePointer())
				vc.dec(d, v.UnsafePointer())
				if d.err == nil {
					m.SetMapIndex(k.Elem(), v.Elem())
				}
			}
		}
	case reflect.Pointer:
		c.enc = func(e *Encoder, p unsafe.Pointer) {
			q := *(*unsafe.Pointer)(p)
			e.PutBool(q != nil)
			if q != nil {
				ec.enc(e, q)
			}
		}
		c.dec = func(d *Decoder, p unsafe.Pointer) {
			var q unsafe.Pointer
			if d.Bool() {
				q = reflect.New(t.Elem()).UnsafePointer()
				ec.dec(d, q)
			}
			*(*unsafe.Pointer)(p) = q
		}
	case reflect.Struct:
		type field struct {
			off uintptr
			c   *codec
		}
		var fields []field
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			if !f.IsExported() {
				continue
			}
			fc, err := build(f.Type, building)
			if err != nil {
				return nil, fmt.Errorf("%v.%s: %w", t, f.Name, err)
			}
			fields = append(fields, field{f.Offset, fc})
		}
		c.enc = func(e *Encoder, p unsafe.Pointer) {
			for _, f := range fields {
				f.c.enc(e, unsafe.Add(p, f.off))
			}
		}
		c.dec = func(d *Decoder, p unsafe.Pointer) {
			for _, f := range fields {
				if d.err != nil {
					return
				}
				f.c.dec(d, unsafe.Add(p, f.off))
			}
		}
	default:
		scalar := scalars[t.Kind()]
		if scalar == nil {
			return nil, fmt.Errorf("serial: unsupported kind %v (%v)", t.Kind(), t)
		}
		scalar(c)
		c.word = t.Size() == 8 && binary.NativeEndian.Uint16([]byte{1, 0}) == 1
	}
	return c, nil
}
