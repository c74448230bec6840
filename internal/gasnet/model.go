// Package gasnet is the communication substrate of this reproduction — the
// role GASNet-EX plays under UPC++ in the paper. It provides, per rank:
// a registered shared-memory segment, one-sided RMA put/get executed by a
// simulated NIC without target CPU involvement, Active Messages delivered
// into a queue that the target drains when it polls (attentiveness, §III of
// the paper), and NIC-offloaded remote atomics (as on Cray Aries).
//
// Ranks live in one OS process, but all traffic crosses the simulated
// network as bytes: the package never hands one rank a pointer into
// another rank's Go heap, only into registered segments (the PGAS memory),
// which is exactly the RDMA contract.
//
// Timing is pluggable. With no model the conduit delivers immediately
// (meant for tests); the LogGP model charges Aries-calibrated injection
// overhead, per-message gap, per-byte cost and wire latency in model time
// (sim.go): every rank keeps a clock, and what lands on it waits until the
// clock reaches its landing time, so microbenchmarks over this conduit
// exhibit the latency/bandwidth structure the paper measures. Between two
// ranks that holds exactly and on every run; with more, an idle rank may jump
// past an event a slower rank has yet to send, so a makespan depends on the
// host's scheduling (32-rank DHT inserts read ×3.6 apart at one P and at
// four). DESIGN.md §5 says what model time leaves open.
package gasnet

import "time"

// LogGP is the conduit's cost model: what moving a message of n payload
// bytes between two ranks costs, with distinct inter- and intra-node
// parameters (intra: the ranks share a node, the shared-memory bypass on
// the real system). Per-byte costs are fractional nanoseconds, so they are
// kept as float64 ns/byte rather than time.Duration.
type LogGP struct {
	// Inter-node (network) parameters.
	O       time.Duration // per-message send overhead (CPU)
	L       time.Duration // one-way wire latency
	GNsPerB float64       // per-byte time in ns (inverse bandwidth)
	Gp      time.Duration // per-message gap (inverse message rate)

	// Intra-node (shared memory) parameters.
	IntraO       time.Duration
	IntraL       time.Duration
	IntraGNsPerB float64
	IntraGp      time.Duration
}

// Overhead is the initiator CPU time consumed injecting the message
// (LogGP "o"). It is charged to the initiating rank's clock.
func (m *LogGP) Overhead(n int, intra bool) time.Duration {
	if intra {
		return m.IntraO
	}
	return m.O
}

// Gap is the NIC occupancy per message (LogGP "g" plus n*G): the
// reciprocal of achievable message rate / bandwidth.
func (m *LogGP) Gap(n int, intra bool) time.Duration {
	if intra {
		return m.IntraGp + time.Duration(float64(n)*m.IntraGNsPerB)
	}
	return m.Gp + time.Duration(float64(n)*m.GNsPerB)
}

// Latency is the one-way wire time from NIC injection to delivery
// (LogGP "L").
func (m *LogGP) Latency(n int, intra bool) time.Duration {
	if intra {
		return m.IntraL
	}
	return m.L
}

// Aries returns a LogGP model calibrated to the paper's testbed, the Cray
// Aries network of the Cori XC40 (Haswell partition), as seen through
// GASNet-EX's aries-conduit:
//
//   - small blocking put round trip ~1.5 microseconds,
//   - peak per-NIC put bandwidth ~10 GB/s,
//   - message rate ~8 M msg/s.
//
// The absolute values matter less than the structure (see DESIGN.md §5):
// both UPC++ and the MPI baseline run over this same model, and the
// differences the paper reports come from the software layered above it.
func Aries() *LogGP {
	return &LogGP{
		O:       180 * time.Nanosecond,
		L:       550 * time.Nanosecond,
		GNsPerB: 0.095, // ~10.5 GB/s
		Gp:      125 * time.Nanosecond,

		IntraO:       60 * time.Nanosecond,
		IntraL:       120 * time.Nanosecond,
		IntraGNsPerB: 0.025, // ~40 GB/s via shared memory
		IntraGp:      30 * time.Nanosecond,
	}
}

// AriesKNL returns the Aries model adjusted for the slower KNL cores of
// Cori's second partition: the wire is identical, but per-message CPU
// overheads roughly triple (1.4 GHz in-order cores vs 2.3 GHz Haswell).
func AriesKNL() *LogGP {
	m := Aries()
	m.O *= 3
	m.IntraO *= 3
	m.Gp *= 2
	m.IntraGp *= 2
	return m
}
