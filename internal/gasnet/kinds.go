package gasnet

import (
	"fmt"
	"time"
)

// Memory kinds (UPC++ paper §VI future work; Choi et al., arXiv:2102.12416):
// a segment is either ordinary host memory or the memory of an accelerator
// device attached to the owning rank. Global addresses carry the kind, and
// transfers touching device memory route through a simulated DMA engine —
// the analogue of the GPU's copy engine moving data across PCIe — with its
// own bandwidth/latency model, distinct from the NIC/network path. A
// cross-rank device transfer therefore pays the device hop(s) *and* the
// wire, exactly the cost structure kind-aware runtimes exist to expose.

// Kind classifies the memory behind a segment (upcxx::memory_kind).
type Kind uint8

const (
	// KindHost is ordinary host DRAM: directly addressable by the owning
	// process, moved by the NIC alone.
	KindHost Kind = iota
	// KindDevice is accelerator memory: never host-addressable, reachable
	// only through DMA transfers scheduled on the owning rank's device
	// copy engine.
	KindDevice
)

// String returns the kind mnemonic.
func (k Kind) String() string {
	switch k {
	case KindHost:
		return "host"
	case KindDevice:
		return "device"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Valid reports whether k names a known memory kind.
func (k Kind) Valid() bool { return k <= KindDevice }

// SegID names one of a rank's registered segments: 0 is the host segment
// every rank owns, 1.. are device segments in registration order. IDs are
// rank-local, like device ordinals.
type SegID uint16

// HostSeg is the SegID of the rank's host segment.
const HostSeg SegID = 0

// PCIeDMA is the device copy engine's cost model: linear in the bytes of
// one DMA hop. Per-byte costs are fractional nanoseconds, kept as float64
// ns/byte like LogGP's. The zero value is a free engine: &PCIeDMA{GDR: true}
// is a zero-cost GPUDirect one, which routes (and counts) the direct chains.
type PCIeDMA struct {
	O         time.Duration // descriptor enqueue overhead (CPU)
	L         time.Duration // DMA kickoff latency
	Gp        time.Duration // per-descriptor engine gap
	GNsPerB   float64       // host↔device per-byte time in ns
	D2DNsPerB float64       // on-node device↔device per-byte time in ns
	// GDR marks the NIC able to read and write device memory directly
	// (GPUDirect RDMA). When every endpoint's engine has the capability,
	// cross-rank device transfers skip the d2h staging DMA and the host
	// bounce buffer: the wire hop is the landing hop.
	GDR bool
}

// Overhead is the CPU time spent enqueueing one DMA descriptor, charged to
// the initiating rank's clock.
func (m *PCIeDMA) Overhead(n int) time.Duration { return m.O }

// Gap is the copy-engine occupancy of one descriptor of n bytes (inverse
// bandwidth): the engine serializes descriptors the way a NIC serializes
// messages. d2d marks an on-node device-to-device copy, which bypasses the
// host bounce and runs at device-memory speed; otherwise the hop crosses
// the host interconnect (PCIe-class host↔device).
func (m *PCIeDMA) Gap(n int, d2d bool) time.Duration {
	per := m.GNsPerB
	if d2d {
		per = m.D2DNsPerB
	}
	return m.Gp + time.Duration(float64(n)*per)
}

// Latency is the kickoff-to-first-byte delay of one DMA.
func (m *PCIeDMA) Latency(n int, d2d bool) time.Duration { return m.L }

// FoldGap is the device time one fused reduction fold occupies: one kernel
// launch (the per-descriptor gap) plus a device-speed pass over the ways×n
// operand bytes it reads against the accumulator.
func (m *PCIeDMA) FoldGap(n, ways int) time.Duration {
	return m.Gp + time.Duration(float64(n*ways)*m.D2DNsPerB)
}

// PCIe3 returns a DMA model calibrated to a PCIe Gen3 x16 attached
// accelerator of the paper's era:
//
//   - ~11.8 GB/s sustained host↔device copy bandwidth,
//   - ~1.2 µs kickoff latency (small cudaMemcpy),
//   - ~125 GB/s on-device copies (HBM-class memory).
//
// As with Aries(), the structure matters more than the absolute numbers:
// device paths must be bandwidth-limited by the copy engine, not the NIC,
// and small-transfer latency must be dominated by kickoff cost.
func PCIe3() *PCIeDMA {
	return &PCIeDMA{
		O:         150 * time.Nanosecond,
		L:         1200 * time.Nanosecond,
		Gp:        250 * time.Nanosecond,
		GNsPerB:   0.085, // ~11.8 GB/s over PCIe
		D2DNsPerB: 0.008, // ~125 GB/s on-device
	}
}

// PCIe3GDR is PCIe3 with GPUDirect RDMA enabled: same engine costs for
// the hops that remain, but cross-rank device transfers skip the host
// bounce (the NIC reads/writes device memory directly), so their
// bandwidth is NIC-bound instead of staging-bound.
func PCIe3GDR() *PCIeDMA {
	m := PCIe3()
	m.GDR = true
	return m
}
