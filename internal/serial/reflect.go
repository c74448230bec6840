package serial

import (
	"encoding/binary"
	"fmt"
	"reflect"
	"sort"
	"sync"
)

// Marshal/Unmarshal form the general-purpose codec used for RPC argument
// packs. Codecs are built once per concrete type with reflect and cached.
//
// Supported: booleans, all fixed-width and machine-sized integers, floats,
// complex numbers, strings, pointers (nil encoded as a flag byte), slices,
// arrays, maps (encoded in sorted key order so encoding is deterministic),
// and structs with exported fields. Unexported struct fields are skipped —
// they are the analogue of non-serialized lambda state. Channels, funcs and
// interfaces are rejected: they cannot cross a network.

type codec struct {
	enc func(e *Encoder, v reflect.Value)
	dec func(d *Decoder, v reflect.Value)
}

var codecCache sync.Map // reflect.Type -> *codec

// Marshaler lets a type define its own wire format (the analogue of a
// custom upcxx serialization specialization, used by views).
type Marshaler interface {
	MarshalSerial(e *Encoder)
}

// Unmarshaler is the decoding side of Marshaler; it is implemented on the
// pointer receiver. Decoded state may alias the decoder's buffer.
type Unmarshaler interface {
	UnmarshalSerial(d *Decoder)
}

var (
	marshalerType   = reflect.TypeOf((*Marshaler)(nil)).Elem()
	unmarshalerType = reflect.TypeOf((*Unmarshaler)(nil)).Elem()
)

// Marshal encodes v into a fresh buffer.
func Marshal(v any) ([]byte, error) {
	var e Encoder
	if err := MarshalInto(&e, v); err != nil {
		return nil, err
	}
	return e.Bytes(), nil
}

// MarshalInto encodes v into an existing encoder. When the encoder is in
// gather mode, Marshaler implementations (views) may contribute borrowed
// fragments instead of copies — the zero-copy injection path.
func MarshalInto(e *Encoder, v any) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("serial: marshal %T: %v", v, r)
		}
	}()
	rv := reflect.ValueOf(v)
	if !rv.IsValid() {
		return fmt.Errorf("serial: cannot marshal untyped nil")
	}
	c, err := codecFor(rv.Type())
	if err != nil {
		return err
	}
	c.enc(e, rv)
	return nil
}

// Encode appends *v exactly as MarshalInto(e, *v) does. An int64 — the
// argument of the message-rate floods — is written directly, unboxed, and e
// does not escape, so it can be a stack value. Every other type takes the
// reflective codec through a copy of the encoder: only that path pays for
// the indirect calls escape analysis cannot follow.
func Encode[T any](e *Encoder, v *T) error {
	if p, ok := any(v).(*int64); ok {
		e.PutI64(*p)
		return nil
	}
	tmp := *e
	err := MarshalInto(&tmp, *v)
	*e = tmp
	return err
}

// EncodeSized appends what PutBytes of pre followed by *v's marshalled form
// would, but marshals in place: one length byte is reserved, and the span
// moves up only if it needs more. Not for gather-mode encoders.
func EncodeSized[T any](e *Encoder, pre []byte, v *T) error {
	at := len(e.buf)
	e.buf = append(append(e.buf, 0), pre...)
	err := Encode(e, v)
	if n := uint64(len(e.buf) - at - 1); n < 0x80 {
		e.buf[at] = byte(n)
	} else {
		var l [binary.MaxVarintLen64]byte
		w := binary.PutUvarint(l[:], n)
		e.buf = append(e.buf, l[1:w]...)
		copy(e.buf[at+w:], e.buf[at+1:len(e.buf)-w+1])
		copy(e.buf[at:], l[:w])
	}
	return err
}

// Decode is Unmarshal(data, v) with the same direct case as Encode; on it
// neither *v nor a decoder is heap-allocated.
func Decode[T any](data []byte, v *T) error {
	if p, ok := any(v).(*int64); ok {
		d := Decoder{buf: data}
		*p = d.I64()
		return d.Finish()
	}
	var tmp T
	err := Unmarshal(data, &tmp)
	*v = tmp
	return err
}

// Unmarshal decodes data into the value pointed to by ptr, which must be a
// non-nil pointer to a supported type. The whole input must be consumed.
func Unmarshal(data []byte, ptr any) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("serial: unmarshal %T: %v", ptr, r)
		}
	}()
	rv := reflect.ValueOf(ptr)
	if rv.Kind() != reflect.Pointer || rv.IsNil() {
		return fmt.Errorf("serial: unmarshal target must be a non-nil pointer, got %T", ptr)
	}
	c, err := codecFor(rv.Type().Elem())
	if err != nil {
		return err
	}
	d := NewDecoder(data)
	c.dec(d, rv.Elem())
	return d.Finish()
}

func codecFor(t reflect.Type) (*codec, error) {
	if c, ok := codecCache.Load(t); ok {
		return c.(*codec), nil
	}
	c, err := buildCodec(t, map[reflect.Type]*codec{})
	if err != nil {
		return nil, err
	}
	codecCache.Store(t, c)
	return c, nil
}

// buildCodec constructs a codec for t. The in-progress map breaks cycles in
// recursive types (e.g. linked lists via pointers).
func buildCodec(t reflect.Type, building map[reflect.Type]*codec) (*codec, error) {
	if c, ok := building[t]; ok {
		return c, nil
	}
	c := &codec{}
	building[t] = c

	// Custom wire formats take priority over the reflective encoding.
	if t.Implements(marshalerType) && reflect.PointerTo(t).Implements(unmarshalerType) {
		c.enc = func(e *Encoder, v reflect.Value) {
			v.Interface().(Marshaler).MarshalSerial(e)
		}
		c.dec = func(d *Decoder, v reflect.Value) {
			v.Addr().Interface().(Unmarshaler).UnmarshalSerial(d)
		}
		return c, nil
	}

	switch t.Kind() {
	case reflect.Bool:
		c.enc = func(e *Encoder, v reflect.Value) { e.PutBool(v.Bool()) }
		c.dec = func(d *Decoder, v reflect.Value) { v.SetBool(d.Bool()) }
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		c.enc = func(e *Encoder, v reflect.Value) { e.PutI64(v.Int()) }
		c.dec = func(d *Decoder, v reflect.Value) { v.SetInt(d.I64()) }
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		c.enc = func(e *Encoder, v reflect.Value) { e.PutU64(v.Uint()) }
		c.dec = func(d *Decoder, v reflect.Value) { v.SetUint(d.U64()) }
	case reflect.Float32, reflect.Float64:
		c.enc = func(e *Encoder, v reflect.Value) { e.PutF64(v.Float()) }
		c.dec = func(d *Decoder, v reflect.Value) { v.SetFloat(d.F64()) }
	case reflect.Complex64, reflect.Complex128:
		c.enc = func(e *Encoder, v reflect.Value) {
			x := v.Complex()
			e.PutF64(real(x))
			e.PutF64(imag(x))
		}
		c.dec = func(d *Decoder, v reflect.Value) {
			re := d.F64()
			im := d.F64()
			v.SetComplex(complex(re, im))
		}
	case reflect.String:
		c.enc = func(e *Encoder, v reflect.Value) { e.PutString(v.String()) }
		c.dec = func(d *Decoder, v reflect.Value) { v.SetString(d.String()) }
	case reflect.Slice:
		if t.Elem().Kind() == reflect.Uint8 {
			// Fast path: []byte and named variants.
			c.enc = func(e *Encoder, v reflect.Value) { e.PutBytes(v.Bytes()) }
			c.dec = func(d *Decoder, v reflect.Value) {
				b := d.Bytes()
				if len(b) == 0 {
					v.SetZero()
					return
				}
				out := reflect.MakeSlice(t, len(b), len(b))
				reflect.Copy(out, reflect.ValueOf(b))
				v.Set(out)
			}
			break
		}
		ec, err := buildCodec(t.Elem(), building)
		if err != nil {
			return nil, fmt.Errorf("%v: %w", t, err)
		}
		c.enc = func(e *Encoder, v reflect.Value) {
			n := v.Len()
			e.PutUvarint(uint64(n))
			for i := 0; i < n; i++ {
				ec.enc(e, v.Index(i))
			}
		}
		c.dec = func(d *Decoder, v reflect.Value) {
			n64 := d.Uvarint()
			if d.Err() != nil {
				return
			}
			if n64 == 0 {
				v.SetZero()
				return
			}
			// Guard against hostile lengths before converting to int:
			// never pre-allocate more elements than bytes remaining (a
			// 2^64-scale length would wrap negative as an int and slip
			// past a post-conversion check).
			if n64 > uint64(d.Remaining())+1 {
				d.fail()
				return
			}
			n := int(n64)
			out := reflect.MakeSlice(t, n, n)
			for i := 0; i < n && d.Err() == nil; i++ {
				ec.dec(d, out.Index(i))
			}
			v.Set(out)
		}
	case reflect.Array:
		ec, err := buildCodec(t.Elem(), building)
		if err != nil {
			return nil, fmt.Errorf("%v: %w", t, err)
		}
		n := t.Len()
		c.enc = func(e *Encoder, v reflect.Value) {
			for i := 0; i < n; i++ {
				ec.enc(e, v.Index(i))
			}
		}
		c.dec = func(d *Decoder, v reflect.Value) {
			for i := 0; i < n && d.Err() == nil; i++ {
				ec.dec(d, v.Index(i))
			}
		}
	case reflect.Map:
		kc, err := buildCodec(t.Key(), building)
		if err != nil {
			return nil, fmt.Errorf("%v key: %w", t, err)
		}
		vc, err := buildCodec(t.Elem(), building)
		if err != nil {
			return nil, fmt.Errorf("%v value: %w", t, err)
		}
		c.enc = func(e *Encoder, v reflect.Value) {
			n := v.Len()
			e.PutUvarint(uint64(n))
			// Deterministic order: encode each key, sort the encodings.
			type kv struct {
				kb  []byte
				val reflect.Value
			}
			pairs := make([]kv, 0, n)
			it := v.MapRange()
			for it.Next() {
				ke := NewEncoder(nil)
				kc.enc(ke, it.Key())
				pairs = append(pairs, kv{ke.Bytes(), it.Value()})
			}
			sort.Slice(pairs, func(i, j int) bool {
				return string(pairs[i].kb) < string(pairs[j].kb)
			})
			for _, p := range pairs {
				e.PutRaw(p.kb)
				vc.enc(e, p.val)
			}
		}
		c.dec = func(d *Decoder, v reflect.Value) {
			n64 := d.Uvarint()
			if d.Err() != nil {
				return
			}
			if n64 == 0 {
				v.SetZero()
				return
			}
			// Same pre-conversion hostile-length guard as the slice path.
			if n64 > uint64(d.Remaining())+1 {
				d.fail()
				return
			}
			n := int(n64)
			out := reflect.MakeMapWithSize(t, n)
			kt, vt := t.Key(), t.Elem()
			for i := 0; i < n && d.Err() == nil; i++ {
				kp := reflect.New(kt).Elem()
				vp := reflect.New(vt).Elem()
				kc.dec(d, kp)
				vc.dec(d, vp)
				if d.Err() == nil {
					out.SetMapIndex(kp, vp)
				}
			}
			v.Set(out)
		}
	case reflect.Pointer:
		ec, err := buildCodec(t.Elem(), building)
		if err != nil {
			return nil, fmt.Errorf("%v: %w", t, err)
		}
		c.enc = func(e *Encoder, v reflect.Value) {
			if v.IsNil() {
				e.PutU8(0)
				return
			}
			e.PutU8(1)
			ec.enc(e, v.Elem())
		}
		c.dec = func(d *Decoder, v reflect.Value) {
			if d.U8() == 0 {
				v.SetZero()
				return
			}
			p := reflect.New(t.Elem())
			ec.dec(d, p.Elem())
			v.Set(p)
		}
	case reflect.Struct:
		type fieldCodec struct {
			idx int
			c   *codec
		}
		var fields []fieldCodec
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			if !f.IsExported() {
				continue
			}
			fc, err := buildCodec(f.Type, building)
			if err != nil {
				return nil, fmt.Errorf("%v.%s: %w", t, f.Name, err)
			}
			fields = append(fields, fieldCodec{i, fc})
		}
		c.enc = func(e *Encoder, v reflect.Value) {
			for _, f := range fields {
				f.c.enc(e, v.Field(f.idx))
			}
		}
		c.dec = func(d *Decoder, v reflect.Value) {
			for _, f := range fields {
				if d.Err() != nil {
					return
				}
				f.c.dec(d, v.Field(f.idx))
			}
		}
	default:
		return nil, fmt.Errorf("serial: unsupported kind %v (%v)", t.Kind(), t)
	}
	return c, nil
}
