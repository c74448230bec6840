package upcxx

import (
	"fmt"

	"upcxx/internal/gasnet"
	"upcxx/internal/serial"
)

// GPtr is a global pointer: a reference to an object of type T in some
// rank's shared segment. Like upcxx::global_ptr and unlike a raw pointer,
// it cannot be dereferenced — all access to remote memory is through
// explicit communication (RPut/RGet/atomics), keeping data motion visible
// in the source. Global pointers support arithmetic, comparison, passing
// by value, and serialization (they may travel inside RPC arguments, as
// the paper's distributed hash table does with landing zones).
//
// T is restricted to fixed-size scalar kinds: the element types that can
// legally cross the network as raw memory.
//
// A global pointer carries the memory kind of its referent (paper §VI
// "memory kinds"): host pointers address the owner's host segment, device
// pointers address one of its device segments (Dev names which), and the
// runtime routes transfers accordingly — device paths go through the
// simulated DMA engine. The kind travels with the pointer on the wire, so
// an RPC'd landing zone keeps its kind at the receiver.
type GPtr[T serial.Scalar] struct {
	Owner Intrank // rank whose segment holds the object; -1 for nil
	Kind  MemKind // memory kind of the referent (host or device)
	Dev   uint16  // device segment id; 0 for host-kind pointers
	Off   uint64  // byte offset within the owner's segment
}

// MemKind classifies the memory a global pointer references
// (upcxx::memory_kind).
type MemKind = gasnet.Kind

// Memory kinds.
const (
	KindHost   = gasnet.KindHost
	KindDevice = gasnet.KindDevice
)

// NilGPtr returns the null global pointer.
func NilGPtr[T serial.Scalar]() GPtr[T] { return GPtr[T]{Owner: -1} }

// IsNil reports whether p is the null global pointer.
func (p GPtr[T]) IsNil() bool { return p.Owner < 0 }

// segID validates the pointer's kind/device consistency and resolves the
// conduit segment it addresses. A host-kind pointer naming a device
// segment (or vice versa) is a corrupted or forged pointer; faulting here
// keeps the mismatch from silently reading the wrong memory.
func (p GPtr[T]) segID(op string) gasnet.SegID {
	switch p.Kind {
	case KindHost:
		if p.Dev != 0 {
			panic(fmt.Sprintf("upcxx: %s on %v: host-kind pointer carries device segment %d (kind mismatch)", op, p, p.Dev))
		}
		return gasnet.HostSeg
	case KindDevice:
		if p.Dev == 0 {
			panic(fmt.Sprintf("upcxx: %s on %v: device-kind pointer without a device segment (kind mismatch)", op, p))
		}
		return gasnet.SegID(p.Dev)
	default:
		panic(fmt.Sprintf("upcxx: %s on %v: unknown memory kind %d", op, p, uint8(p.Kind)))
	}
}

// Add returns p displaced by n elements (pointer arithmetic); the kind is
// preserved.
func (p GPtr[T]) Add(n int) GPtr[T] {
	if p.IsNil() {
		panic("upcxx: arithmetic on nil GPtr")
	}
	off := int64(p.Off) + int64(n)*int64(serial.SizeOf[T]())
	if off < 0 {
		panic("upcxx: GPtr arithmetic underflow")
	}
	return GPtr[T]{Owner: p.Owner, Kind: p.Kind, Dev: p.Dev, Off: uint64(off)}
}

// Diff returns the element distance p - q; both must point into the same
// segment of the same rank.
func (p GPtr[T]) Diff(q GPtr[T]) int {
	if p.Owner != q.Owner {
		panic("upcxx: GPtr difference across ranks")
	}
	if p.Kind != q.Kind || p.Dev != q.Dev {
		panic("upcxx: GPtr difference across memory kinds")
	}
	return int((int64(p.Off) - int64(q.Off)) / int64(serial.SizeOf[T]()))
}

// Where returns the rank with affinity to the referenced memory.
func (p GPtr[T]) Where() Intrank { return p.Owner }

func (p GPtr[T]) String() string {
	if p.IsNil() {
		return fmt.Sprintf("gptr<%s>(nil)", typeName[T]())
	}
	if p.Kind == KindDevice {
		return fmt.Sprintf("gptr<%s>(rank %d, dev %d, off %d)", typeName[T](), p.Owner, p.Dev, p.Off)
	}
	return fmt.Sprintf("gptr<%s>(rank %d, off %d)", typeName[T](), p.Owner, p.Off)
}

// MarshalSerial is the kind-tagged wire form of a global pointer: owner
// (8 bytes), kind (1), device id (2), offset (8), little-endian. Encoding
// an inconsistent pointer panics, which serial.Marshal surfaces as an
// error — a forged pointer must not reach the wire.
func (p GPtr[T]) MarshalSerial(e *serial.Encoder) {
	if !p.IsNil() {
		p.segID("marshal")
	}
	e.PutI64(int64(p.Owner))
	e.PutU8(uint8(p.Kind))
	e.PutU16(p.Dev)
	e.PutU64(p.Off)
}

// UnmarshalSerial decodes the wire form, rejecting kind-mismatched
// encodings and out-of-range owners (serial.Unmarshal converts the panic
// into an error). Accepted pointers re-encode to the identical bytes —
// the canonical-form property FuzzGPtrDecode pins.
func (p *GPtr[T]) UnmarshalSerial(d *serial.Decoder) {
	owner := d.I64()
	p.Kind = MemKind(d.U8())
	p.Dev = d.U16()
	p.Off = d.U64()
	if d.Err() != nil {
		return
	}
	p.Owner = Intrank(owner)
	if int64(p.Owner) != owner {
		panic(fmt.Sprintf("upcxx: GPtr wire form carries out-of-range owner %d", owner))
	}
	if !p.IsNil() {
		p.segID("unmarshal")
	}
}

func typeName[T any]() string {
	var z T
	return fmt.Sprintf("%T", z)
}

// New allocates one T in this rank's shared segment
// (upcxx::new_<T>), zero-initialized.
func New[T serial.Scalar](rk *Rank) (GPtr[T], error) {
	return NewArray[T](rk, 1)
}

// NewArray allocates n contiguous Ts in this rank's shared segment
// (upcxx::new_array<T>), zero-initialized.
func NewArray[T serial.Scalar](rk *Rank, n int) (GPtr[T], error) {
	sz := n * serial.SizeOf[T]()
	off, err := rk.ep.Segment().Alloc(sz)
	if err != nil {
		return NilGPtr[T](), fmt.Errorf("upcxx: rank %d: %w", rk.me, err)
	}
	b := rk.ep.Segment().Bytes(off, sz)
	for i := range b {
		b[i] = 0
	}
	return GPtr[T]{Owner: rk.me, Off: off}, nil
}

// MustNewArray is NewArray, panicking on segment exhaustion.
func MustNewArray[T serial.Scalar](rk *Rank, n int) GPtr[T] {
	p, err := NewArray[T](rk, n)
	if err != nil {
		panic(err)
	}
	return p
}

// Delete frees an allocation in one of this rank's own segments (host or
// device). Freeing remote memory requires an RPC to the owner, in keeping
// with explicit communication.
func Delete[T serial.Scalar](rk *Rank, p GPtr[T]) error {
	if p.Owner != rk.me {
		return fmt.Errorf("upcxx: rank %d cannot Delete memory owned by rank %d", rk.me, p.Owner)
	}
	return rk.ep.SegByID(p.segID("Delete")).Free(p.Off)
}

// Local converts a host-kind global pointer with affinity to this rank
// into a directly-usable slice of n elements (the global-to-local
// conversion the paper permits for the owning process). It panics if p is
// remote — or device-kind: device memory is never host-addressable, even
// by its owner; use RunKernel or kind-aware copies instead.
func Local[T serial.Scalar](rk *Rank, p GPtr[T], n int) []T {
	if p.Owner != rk.me {
		panic(fmt.Sprintf("upcxx: Local on %v from rank %d", p, rk.me))
	}
	if p.Kind != KindHost {
		panic(fmt.Sprintf("upcxx: Local on %v: device memory is not host-addressable", p))
	}
	b := rk.ep.Segment().Bytes(p.Off, n*serial.SizeOf[T]())
	return serial.FromBytes[T](b)
}

// ToGlobal converts a slice previously obtained from Local back into a
// global pointer rooted at its first element. It is the local-to-global
// conversion; s must alias this rank's segment.
func ToGlobal[T serial.Scalar](rk *Rank, s []T) GPtr[T] {
	if len(s) == 0 {
		return NilGPtr[T]()
	}
	seg := rk.ep.Segment()
	base := seg.Bytes(0, seg.Size())
	sb := serial.AsBytes(s)
	off := offsetWithin(base, sb)
	if off < 0 {
		panic("upcxx: ToGlobal of memory outside the shared segment")
	}
	return GPtr[T]{Owner: rk.me, Off: uint64(off)}
}

// offsetWithin returns the byte offset of sub within base, or -1 if sub
// does not alias base.
func offsetWithin(base, sub []byte) int {
	if len(sub) == 0 || len(base) == 0 {
		return -1
	}
	b0 := uintptrOf(base)
	s0 := uintptrOf(sub)
	if s0 < b0 || s0+uintptr(len(sub)) > b0+uintptr(len(base)) {
		return -1
	}
	return int(s0 - b0)
}

// gasnetRank converts for clarity at call sites.
func gasnetRank(r Intrank) gasnet.Rank { return r }
