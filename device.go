package upcxx

import (
	"fmt"

	"upcxx/internal/gasnet"
	"upcxx/internal/serial"
)

// DeviceAllocator manages one device memory segment on a rank — the
// analogue of upcxx::device_allocator<cuda_device>. Opening an allocator
// registers a device-kind segment with the conduit; allocations from it
// yield device-kind global pointers, which every RMA path routes through
// the simulated DMA engine. Device memory is never host-addressable
// (Local panics); computation on it goes through RunKernel, the
// simulation's stand-in for launching a device kernel.
type DeviceAllocator struct {
	rk     *Rank
	id     uint16 // conduit segment id of this device segment
	size   int
	closed bool
}

// NewDeviceAllocator opens a device segment of the given size in bytes on
// this rank and returns its allocator. Device segments live until the
// world is torn down.
func NewDeviceAllocator(rk *Rank, size int) *DeviceAllocator {
	id := rk.ep.AddDeviceSegment(size)
	return &DeviceAllocator{rk: rk, id: uint16(id), size: size}
}

// Rank returns the owning rank.
func (da *DeviceAllocator) Rank() *Rank { return da.rk }

// DeviceID returns the rank-local device segment id (1-based; 0 is the
// host segment).
func (da *DeviceAllocator) DeviceID() uint16 { return da.id }

// Size returns the device segment size in bytes.
func (da *DeviceAllocator) Size() int { return da.size }

// FreeBytes returns the unallocated bytes remaining in the device segment.
func (da *DeviceAllocator) FreeBytes() int64 {
	da.requireOpen("FreeBytes")
	return da.rk.ep.SegByID(gasnet.SegID(da.id)).FreeBytes()
}

// Grow extends the device segment by extra bytes in place — the
// analogue of registering additional device memory with the NIC under
// an already-open allocator. Offsets are stable across growth, so every
// outstanding GPtr into the segment (local or fetched by peers) remains
// valid and keeps addressing the same allocation. The caller must have
// quiesced transfers touching the segment first, exactly as Close
// requires: in-flight hop chains hold views of the old backing store.
// Growing a closed allocator faults like any other use-after-close.
func (da *DeviceAllocator) Grow(extra int) {
	da.requireOpen("Grow")
	da.rk.ep.GrowDeviceSegment(gasnet.SegID(da.id), extra)
	da.size += extra
}

// requireOpen faults allocator operations after Close with an
// allocator-level message (pointer-level use-after-close faults come from
// the conduit's segment resolution).
func (da *DeviceAllocator) requireOpen(op string) {
	if da.closed {
		panic(fmt.Sprintf("upcxx: %s on %v: allocator is closed", op, da))
	}
}

func (da *DeviceAllocator) String() string {
	state := ""
	if da.closed {
		state = ", closed"
	}
	return fmt.Sprintf("device_allocator(rank %d, dev %d, %d B%s)", da.rk.me, da.id, da.size, state)
}

// Closed reports whether the allocator's segment has been torn down.
func (da *DeviceAllocator) Closed() bool { return da.closed }

// Close tears the device segment down — the analogue of destroying a
// upcxx::device_allocator, which unregisters the GPU segment from the
// network. The segment id is retired, never reused, so every outstanding
// GPtr into the segment is poisoned: any later RMA, copy, kernel launch,
// or Delete through one faults with a clear use-after-close error instead
// of silently addressing other memory. The caller must have quiesced
// transfers touching the segment first (close with puts in flight is a
// use-after-free, and faults as one). Close is local; like allocator
// construction on a single rank, it requires no collective.
func (da *DeviceAllocator) Close() {
	if da.closed {
		panic(fmt.Sprintf("upcxx: %v closed twice", da))
	}
	da.closed = true
	da.rk.ep.CloseDeviceSegment(gasnet.SegID(da.id))
}

// CloseDeviceAllocator is Close as a package-level function, matching the
// NewDeviceAllocator constructor.
func CloseDeviceAllocator(da *DeviceAllocator) { da.Close() }

// NewDeviceArray allocates n contiguous Ts in the device segment,
// zero-initialized, returning a device-kind global pointer.
func NewDeviceArray[T serial.Scalar](da *DeviceAllocator, n int) (GPtr[T], error) {
	if da.closed {
		return NilGPtr[T](), fmt.Errorf("upcxx: NewDeviceArray on %v: allocator is closed", da)
	}
	seg := da.rk.ep.SegByID(gasnet.SegID(da.id))
	sz := n * serial.SizeOf[T]()
	off, err := seg.Alloc(sz)
	if err != nil {
		return NilGPtr[T](), fmt.Errorf("upcxx: rank %d device %d: %w", da.rk.me, da.id, err)
	}
	b := seg.Bytes(off, sz)
	for i := range b {
		b[i] = 0
	}
	return GPtr[T]{Owner: da.rk.me, Kind: KindDevice, Dev: da.id, Off: off}, nil
}

// MustNewDeviceArray is NewDeviceArray, panicking on segment exhaustion.
func MustNewDeviceArray[T serial.Scalar](da *DeviceAllocator, n int) GPtr[T] {
	p, err := NewDeviceArray[T](da, n)
	if err != nil {
		panic(err)
	}
	return p
}

// RunKernel executes kernel over the n elements at p, which must be a
// device pointer into this allocator's segment. It models a synchronous
// device kernel launch: the only sanctioned way to compute on device
// memory, mirroring how real device segments are touched by CUDA kernels
// rather than host loads. The slice passed to kernel aliases device
// memory and must not escape the call.
func RunKernel[T serial.Scalar](da *DeviceAllocator, p GPtr[T], n int, kernel func([]T)) {
	if p.IsNil() {
		panic("upcxx: RunKernel on nil GPtr")
	}
	if p.Owner != da.rk.me || p.Kind != KindDevice || p.Dev != da.id {
		panic(fmt.Sprintf("upcxx: RunKernel on %v, which is not in %v", p, da))
	}
	da.requireOpen("RunKernel")
	seg := da.rk.ep.SegByID(gasnet.SegID(da.id))
	kernel(serial.FromBytes[T](seg.Bytes(p.Off, n*serial.SizeOf[T]())))
}
