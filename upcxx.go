// Package upcxx is a Go implementation of the UPC++ v1.0 programming
// model from "UPC++: A High-Performance Communication Framework for
// Asynchronous Computation" (Bachan et al., IPDPS 2019): Partitioned
// Global Address Space (PGAS) programming with global pointers, one-sided
// Remote Memory Access, Remote Procedure Calls, future/promise
// asynchrony, teams with non-blocking collectives, distributed objects
// and NIC-offloaded remote atomics.
//
// A job is a fixed set of SPMD ranks over a GASNet-EX-style conduit (see
// internal/gasnet): goroutine ranks in one process over the in-process
// conduit by default, or one OS process per rank over tcp or shm when
// UPCXX_CONDUIT names a real backend. Each rank owns a shared segment
// addressed globally by (rank, offset), and all inter-rank communication
// crosses the conduit as bytes. The three design
// principles of the paper hold throughout: communication is asynchronous
// by default, data motion is syntactically explicit (global pointers
// cannot be dereferenced), and no feature requires non-scalable state.
//
// Quick start:
//
//	upcxx.Run(4, func(rk *upcxx.Rank) {
//		ptr := upcxx.MustNewArray[float64](rk, 8) // in my shared segment
//		obj := upcxx.NewDistObject(rk, ptr)       // publish it
//		rk.Barrier()
//		remote := upcxx.FetchDist[upcxx.GPtr[float64]](rk, obj.ID(), (rk.Me()+1)%rk.N()).Wait()
//		upcxx.RPut(rk, []float64{1, 2, 3}, remote).Wait() // one-sided RMA
//		sum := upcxx.RPC(rk, remote.Where(), func(trk *upcxx.Rank, n int) float64 {
//			s := 0.0
//			for _, v := range upcxx.Local(trk, ptr, n) {
//				s += v
//			}
//			return s
//		}, 3).Wait() // remote procedure call
//		_ = sum
//		rk.Barrier()
//	})
//
// Asynchrony model (paper §II–III): every communication operation is
// non-blocking and returns a Future (or feeds a Promise). An event the
// conduit completed inside the initiating call is announced there: its
// future is ready at return. Every other completion, and every incoming
// RPC, executes only during user-level progress — Progress, Wait — on the
// goroutine holding the owning persona; the only hidden progress goroutines
// are the optional per-rank progress threads of Config.ProgressThread.
// Futures and promises are deliberately not thread-safe: like their UPC++
// counterparts they are owned by the persona that created them, and
// cross-thread interaction goes through persona LPC queues.
//
// The runtime is this package, over internal/gasnet (conduit),
// internal/obs (counters and traces) and internal/serial (wire formats);
// the names below are the ones it re-exports from those three. Application
// motifs from the paper are under internal/dht and internal/sparse; every
// figure of the paper's evaluation can be regenerated with the tools under
// cmd/ (see DESIGN.md and EXPERIMENTS.md).
package upcxx

import (
	"upcxx/internal/gasnet"
	"upcxx/internal/obs"
	"upcxx/internal/serial"
)

// Scalar constrains element types that may cross the network as raw
// memory (fixed-size kinds with no pointers).
type Scalar = serial.Scalar

// ConduitInfo identifies the active real backend: peer addresses, shm
// segment size, and a view of this rank's transport counters
// (World.Network().ConduitInfo).
type ConduitInfo = gasnet.ConduitInfo

// ErrPeerLost is wrapped by every error World.Failed reports after a
// sibling rank process dies mid-job or sends a message this rank has to
// refuse.
var ErrPeerLost = gasnet.ErrPeerLost

// PCIeDMA is the device copy engine's timing model for Config.DMA (see
// internal/gasnet), charged in model time. Its GDR capability decides the
// cross-rank device datapath: GDR-capable engines let the NIC address
// device memory directly, so device payloads skip the staging DMA hops and
// the host bounce buffer. The zero value is free: &PCIeDMA{GDR: true} flips
// the capability without adding timing.
type PCIeDMA = gasnet.PCIeDMA

var (
	// PCIe3 returns the calibrated PCIe gen3 engine (staged copies).
	PCIe3 = gasnet.PCIe3
	// PCIe3GDR returns PCIe3 with GPUDirect RDMA enabled.
	PCIe3GDR = gasnet.PCIe3GDR
)

// Runtime introspection (Config.Stats; see internal/obs).
type (
	// StatsSnapshot is a point-in-time copy of one rank's counter table
	// (Rank.Stats; the conduit's traffic counters are kept even without
	// Config.Stats), or a job-wide merge (World.StatsMerged).
	StatsSnapshot = obs.Snapshot
	// DMAKind classifies DMA descriptors: StatsSnapshot.Counters[k.Descriptors()].
	DMAKind = obs.DMAKind
	// TaskStat names a task-runtime counter: StatsSnapshot.Counters[s.Counter()].
	TaskStat = obs.TaskStat
)

// DMA descriptor kinds: cross-rank device-to-device traffic splits by
// datapath — direct (GPUDirect, NIC↔device) vs bounced (staged through
// host bounce buffers).
const (
	DMAH2D        = obs.DMAH2D
	DMAD2H        = obs.DMAD2H
	DMAD2DDirect  = obs.DMAD2DDirect
	DMAD2DBounced = obs.DMAD2DBounced
)

// Task-runtime counters (Config.Stats).
const (
	TaskSpawned      = obs.TaskSpawned
	TaskExecuted     = obs.TaskExecuted
	TaskStolen       = obs.TaskStolen
	TaskMigrated     = obs.TaskMigrated
	TaskStealReqs    = obs.TaskStealReqs
	TaskStealFails   = obs.TaskStealFails
	TaskDetectRounds = obs.TaskDetectRounds
)
