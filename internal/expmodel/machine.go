// Package expmodel evaluates the paper's experiments at scale. Each
// figure has a model driver that reuses the repository's real structural
// code (front trees, proportional mappings, message matrices, protocol
// constants) and charges calibrated costs — either in closed form (Fig 3)
// or on gasnet's model-time event queue and channels (Figs 4, 8, 9),
// which is how this reproduction reaches the paper's 2048–34816 process
// scales on one machine. Nothing checks these
// models against the runtime on the same LogGP model, and the two disagree:
// a 2-rank DHT insert costs 1.87 µs here and 0.71 µs on the runtime, which
// charges only o, g and L, not this package's software costs.
package expmodel

import (
	"time"

	"upcxx/internal/gasnet"
	"upcxx/internal/mpi"
)

// Machine bundles the calibrated parameters of one Cori partition.
type Machine struct {
	Name         string
	RanksPerNode int
	Net          *gasnet.LogGP
	Proto        mpi.Protocol
	// CPUScale multiplies software (CPU-side) costs; KNL's slow in-order
	// cores run runtime code ~3x slower than Haswell's.
	CPUScale float64
	// FlopSecs is the single-core time per fused multiply-add in the
	// dense kernels (mini-symPACK factorization).
	FlopSecs float64
}

// Haswell models the Cori Haswell partition (32 ranks/node in the
// paper's application runs).
func Haswell() Machine {
	return Machine{
		Name:         "Cori Haswell",
		RanksPerNode: 32,
		Net:          gasnet.Aries(),
		Proto:        mpi.DefaultProtocol(),
		CPUScale:     1.0,
		FlopSecs:     2.5e-10,
	}
}

// KNL models the Cori KNL partition (68 ranks/node).
func KNL() Machine {
	p := mpi.DefaultProtocol()
	p.SendOverhead *= 3
	p.RecvOverhead *= 3
	p.MatchCost *= 3
	p.RMAPutBase *= 3
	p.RMAFlushBase *= 3
	p.RMAFlushSync *= 2
	return Machine{
		Name:         "Cori KNL",
		RanksPerNode: 68,
		Net:          gasnet.AriesKNL(),
		Proto:        p,
		CPUScale:     3.0,
		FlopSecs:     1.0e-9,
	}
}

func secs(d time.Duration) float64 { return d.Seconds() }

// Wire primitives in seconds. intra selects the shared-memory path.

func (m Machine) overhead(n int, intra bool) float64 { return secs(m.Net.Overhead(n, intra)) }
func (m Machine) gap(n int, intra bool) float64      { return secs(m.Net.Gap(n, intra)) }
func (m Machine) lat(n int, intra bool) float64      { return secs(m.Net.Latency(n, intra)) }

// cpu scales a Haswell-calibrated software cost to this machine.
func (m Machine) cpu(d time.Duration) float64 { return secs(d) * m.CPUScale }

// Common runtime software costs (Haswell-calibrated; scaled by CPUScale).
const (
	// rpcInject is the initiator-side cost of serializing and injecting
	// one small RPC beyond the conduit overhead.
	rpcInject = 220 * time.Nanosecond
	// rpcHandler is the target-side cost of dispatching an RPC body.
	rpcHandler = 180 * time.Nanosecond
	// futureFulfill is the cost of satisfying a promise/future chain.
	futureFulfill = 60 * time.Nanosecond
	// mapInsert is a hash-map insert of a small entry.
	mapInsert = 150 * time.Nanosecond
	// segAlloc is a shared-segment allocation (the DHT landing zone).
	segAlloc = 200 * time.Nanosecond
	// packEntry / accumEntry are the extend-add per-entry costs.
	packEntryCost  = 3 * time.Nanosecond
	accumEntryCost = 3 * time.Nanosecond
	// eventOverhead is the extra v0.1 bookkeeping per async+event pair.
	eventOverhead = 90 * time.Nanosecond
	// memBW is the CPU-side copy bandwidth for serialization, bytes/sec.
	memBWBytesPerSec = 8e9
)

// copyCost returns the CPU time to run n bytes through a serializer.
func (m Machine) copyCost(n int) float64 {
	return float64(n) / memBWBytesPerSec * m.CPUScale
}
