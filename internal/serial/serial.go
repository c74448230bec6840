// Package serial implements the binary serialization layer used by the
// UPC++ runtime to move RPC arguments and return values across the
// simulated network.
//
// Real UPC++ serializes C++ objects bytewise into GASNet-EX active-message
// payloads. This package plays the same role for Go values: a compact
// binary codec compiled once per type, raw views of the fixed-size scalar
// slices that dominate HPC payloads, plus a low-level Encoder/Decoder pair
// for hand-rolled wire formats inside the runtime itself.
//
// The format is little-endian and self-delimiting but NOT self-describing:
// both sides must agree on the Go type, exactly as both sides of a UPC++
// RPC share one binary and therefore one type layout.
package serial

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
)

// ErrShortBuffer is returned when a decode runs off the end of its input.
var ErrShortBuffer = errors.New("serial: short buffer")

// errNotCanonical is returned for bytes no value of the kind read encodes
// to: an integer out of range, a bool byte but 0 or 1, a widened float32.
var errNotCanonical = errors.New("serial: not the wire form of a value of its kind")

// Encoder appends primitive values to a byte buffer. The zero value is
// ready to use.
//
// An encoder may optionally run in gather mode (EnableGather), where large
// byte runs are recorded as borrowed fragments instead of being copied into
// the contiguous buffer. Fragments() then yields an iovec-style [][]byte
// whose concatenation is the encoded message; the borrowed pieces alias the
// caller's memory until whoever consumes the fragments copies them (for the
// runtime, the conduit capture stage).
type Encoder struct {
	buf    []byte
	gather bool     // PutBorrowed runs borrow
	slices bool     // PutBytes runs borrow too
	frags  [][]byte // closed fragments, in order; borrowed or owned
	flen   int      // total bytes across closed fragments
}

// GatherMinBorrow is the smallest run worth recording as a borrowed
// fragment in gather mode; anything shorter is copied inline, since
// fragment bookkeeping costs more than a tiny memcpy.
const GatherMinBorrow = 64

// NewEncoder returns an encoder that appends to buf (which may be nil).
func NewEncoder(buf []byte) *Encoder { return &Encoder{buf: buf} }

// Bytes returns the encoded buffer: the whole message, unless a gather-mode
// encoder borrowed a run (Fragments is then the message).
func (e *Encoder) Bytes() []byte { return e.buf }

// Len returns the number of bytes encoded so far.
func (e *Encoder) Len() int { return e.flen + len(e.buf) }

// Grow makes room for n more bytes: how an Encoder held by value starts from
// one right-sized buffer (NewEncoder is not inlined into generic callers).
func (e *Encoder) Grow(n int) { e.buf = slices.Grow(e.buf, n) }

// EnableGather switches the encoder into gather mode; see the type comment.
// What borrows depends on how long the fragments live. PutBorrowed runs (a
// view's elements) always do: their writer promises to leave them alone
// until the fragments are consumed. PutBytes runs (a plain []byte) borrow
// only with callScoped set, which says the fragments are consumed before the
// call that marshals into the encoder returns, so nothing can change the
// bytes in between.
func (e *Encoder) EnableGather(callScoped bool) { e.gather, e.slices = true, callScoped }

// closeFrag moves the open contiguous buffer onto the fragment list. What
// follows is appended in its spare capacity, past a gap in which EncodeSized
// can widen a length prefix inside the closed fragment without allocating.
func (e *Encoder) closeFrag() {
	if len(e.buf) > 0 {
		e.frags = append(e.frags, e.buf)
		e.flen += len(e.buf)
		if n := len(e.buf) + binary.MaxVarintLen64; n <= cap(e.buf) {
			e.buf = e.buf[n:n]
		} else {
			e.buf = nil
		}
	}
}

// PutBorrowed appends b with no length prefix. In gather mode, payloads of
// at least GatherMinBorrow bytes are recorded as borrowed fragments that
// alias b — the caller must keep b unchanged until the fragments are
// consumed. Outside gather mode (or for short payloads) it copies like
// PutRaw.
func (e *Encoder) PutBorrowed(b []byte) {
	if !e.gather || len(b) < GatherMinBorrow {
		e.PutRaw(b)
		return
	}
	if e.frags == nil {
		e.frags = make([][]byte, 0, 4) // one run between owned bytes, and room for another
	}
	e.closeFrag()
	e.frags = append(e.frags, b)
	e.flen += len(b)
}

// Fragments returns the encoded message as its fragments, owned and
// borrowed, in order — or nil when nothing was borrowed, and the message is
// the one buffer Bytes returns. Borrowed fragments alias caller memory (see
// PutBorrowed).
func (e *Encoder) Fragments() [][]byte {
	if len(e.frags) == 0 {
		return nil
	}
	e.closeFrag()
	return e.frags
}

func (e *Encoder) PutU8(v uint8) { e.buf = append(e.buf, v) }
func (e *Encoder) PutBool(v bool) {
	if v {
		e.PutU8(1)
	} else {
		e.PutU8(0)
	}
}
func (e *Encoder) PutU16(v uint16) { e.buf = binary.LittleEndian.AppendUint16(e.buf, v) }
func (e *Encoder) PutU32(v uint32) { e.buf = binary.LittleEndian.AppendUint32(e.buf, v) }
func (e *Encoder) PutU64(v uint64) { e.buf = binary.LittleEndian.AppendUint64(e.buf, v) }
func (e *Encoder) PutI64(v int64)  { e.PutU64(uint64(v)) }
func (e *Encoder) PutF64(v float64) {
	e.PutU64(math.Float64bits(v))
}

// PutUvarint appends v in unsigned varint form; used for lengths.
func (e *Encoder) PutUvarint(v uint64) { e.buf = binary.AppendUvarint(e.buf, v) }

// PutBytes appends a length-prefixed byte slice, borrowing it on a
// call-scoped gather encoder (EnableGather).
func (e *Encoder) PutBytes(b []byte) {
	e.PutUvarint(uint64(len(b)))
	if e.slices {
		e.PutBorrowed(b)
		return
	}
	e.buf = append(e.buf, b...)
}

// PutString appends a length-prefixed string.
func (e *Encoder) PutString(s string) {
	e.PutUvarint(uint64(len(s)))
	e.buf = append(e.buf, s...)
}

// PutRaw appends b with no length prefix.
func (e *Encoder) PutRaw(b []byte) { e.buf = append(e.buf, b...) }

// Decoder consumes primitive values from a byte buffer. Errors are sticky:
// after the first failure every subsequent Get returns the zero value and
// Err reports the failure.
type Decoder struct {
	buf []byte
	off int
	err error
}

// NewDecoder returns a decoder reading from buf.
func NewDecoder(buf []byte) *Decoder { return &Decoder{buf: buf} }

// Err returns the first error encountered, if any.
func (d *Decoder) Err() error { return d.err }

// Remaining returns the number of unconsumed bytes.
func (d *Decoder) Remaining() int { return len(d.buf) - d.off }

// Offset returns the number of consumed bytes.
func (d *Decoder) Offset() int { return d.off }

func (d *Decoder) fail(err error) {
	if d.err == nil {
		d.err = err
	}
}

func (d *Decoder) take(n int) []byte {
	if d.err != nil || d.off+n > len(d.buf) {
		d.fail(ErrShortBuffer)
		return nil
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b
}

func (d *Decoder) U8() uint8 {
	b := d.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// Bool consumes a bool: the byte 0 or 1, and nothing else.
func (d *Decoder) Bool() bool {
	b := d.U8()
	if b > 1 {
		d.fail(errNotCanonical)
	}
	return b == 1
}

func (d *Decoder) U16() uint16 {
	b := d.take(2)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(b)
}

func (d *Decoder) U32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (d *Decoder) U64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (d *Decoder) I64() int64   { return int64(d.U64()) }
func (d *Decoder) F64() float64 { return math.Float64frombits(d.U64()) }

// Uvarint consumes an unsigned varint. Non-minimal encodings (a
// multi-byte form whose final byte contributes no bits, e.g. 0x80 0x00
// for zero) are rejected: every value has exactly one wire form, so
// decode∘encode is the identity on valid payloads.
func (d *Decoder) Uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 || (n > 1 && d.buf[d.off+n-1] == 0) {
		d.fail(ErrShortBuffer)
		return 0
	}
	d.off += n
	return v
}

// count consumes a length prefix, refusing one the rest of the input could
// not hold before it converts it (a 2^64-scale length wraps negative): 0.
func (d *Decoder) count() int {
	if n := d.Uvarint(); d.err == nil && n <= uint64(d.Remaining())+1 {
		return int(n)
	}
	d.fail(ErrShortBuffer)
	return 0
}

// Bytes consumes a length-prefixed byte slice. The result aliases the
// decoder's buffer; copy it if it must outlive the buffer.
func (d *Decoder) Bytes() []byte {
	n := d.Uvarint()
	if d.err != nil {
		return nil
	}
	if n > uint64(d.Remaining()) {
		d.fail(ErrShortBuffer)
		return nil
	}
	return d.take(int(n))
}

// String consumes a length-prefixed string (copying out of the buffer).
func (d *Decoder) String() string { return string(d.Bytes()) }

// Raw consumes n bytes with no length prefix, aliasing the buffer.
func (d *Decoder) Raw(n int) []byte { return d.take(n) }

// Header consumes the | magic u8 | version u8 | prefix every versioned
// runtime wire format opens with, naming the format in the error when
// either byte is wrong.
func (d *Decoder) Header(format string, magic, version uint8) error {
	m, v := d.U8(), d.U8()
	switch {
	case d.err != nil:
		return fmt.Errorf("%s: %w", format, d.err)
	case m != magic:
		return fmt.Errorf("%s: bad magic %#x", format, m)
	case v != version:
		return fmt.Errorf("%s: unsupported version %d", format, v)
	}
	return nil
}

// Tail consumes a message's final field: a length-prefixed span that must
// account for exactly the rest of the input. A failure of any earlier read
// surfaces here too (errors are sticky). The result aliases the buffer.
func (d *Decoder) Tail(format string) ([]byte, error) {
	n := d.Uvarint()
	if d.err != nil {
		return nil, fmt.Errorf("%s: %w", format, d.err)
	}
	if n != uint64(d.Remaining()) {
		return nil, fmt.Errorf("%s: final length %d does not match remaining %d bytes", format, n, d.Remaining())
	}
	return d.take(int(n)), nil
}

// Finish reports an error if the decoder failed or input remains.
func (d *Decoder) Finish() error {
	if d.err != nil {
		return d.err
	}
	if d.Remaining() != 0 {
		return fmt.Errorf("serial: %d trailing bytes", d.Remaining())
	}
	return nil
}
