// Package upcxx is a Go implementation of the UPC++ v1.0 programming
// model from "UPC++: A High-Performance Communication Framework for
// Asynchronous Computation" (Bachan et al., IPDPS 2019): Partitioned
// Global Address Space (PGAS) programming with global pointers, one-sided
// Remote Memory Access, Remote Procedure Calls, future/promise
// asynchrony, teams with non-blocking collectives, distributed objects
// and NIC-offloaded remote atomics.
//
// A job is a fixed set of SPMD ranks running in one process over a
// simulated GASNet-EX-style conduit (see internal/gasnet): each rank owns
// a shared segment addressed globally by (rank, offset), and all
// inter-rank communication crosses the conduit as bytes. The three design
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
// This package is a facade: the implementation lives in internal/core
// (runtime), internal/gasnet (conduit) and internal/serial (wire
// formats). Application motifs from the paper are under internal/dht and
// internal/sparse; every figure of the paper's evaluation can be
// regenerated with the tools under cmd/ (see DESIGN.md and
// EXPERIMENTS.md).
package upcxx

import (
	core "upcxx/internal/core"
	"upcxx/internal/gasnet"
	"upcxx/internal/obs"
	"upcxx/internal/serial"
	"upcxx/internal/task"
)

// Scalar constrains element types that may cross the network as raw
// memory (fixed-size kinds with no pointers).
type Scalar = serial.Scalar

// Core runtime types.
type (
	// Rank is one process's runtime handle; see core.Rank.
	Rank = core.Rank
	// World is one UPC++ job; see core.World.
	World = core.World
	// Config configures a job (rank count, segment size, timing model).
	Config = core.Config
	// Intrank identifies a process (upcxx::intrank_t).
	Intrank = core.Intrank
	// Unit is the empty future payload (upcxx::future<>).
	Unit = core.Unit
	// Team is an ordered subset of ranks (upcxx::team).
	Team = core.Team
	// DistID identifies a distributed object job-wide.
	DistID = core.DistID
	// Persona is a per-thread execution context owning futures and
	// receiving LPCs (upcxx::persona).
	Persona = core.Persona
	// PersonaScope pins a persona to a goroutine (upcxx::persona_scope).
	PersonaScope = core.PersonaScope
	// AtomicU64 is the uint64 remote-atomics domain.
	AtomicU64 = core.AtomicU64
	// AtomicI64 is the int64 remote-atomics domain.
	AtomicI64 = core.AtomicI64
	// MemKind classifies the memory a global pointer references
	// (upcxx::memory_kind): host or device.
	MemKind = core.MemKind
	// DeviceAllocator manages one device memory segment on a rank
	// (upcxx::device_allocator).
	DeviceAllocator = core.DeviceAllocator
	// Cx is a completion descriptor: one of the three completion events
	// of a communication operation (operation, source, remote) paired
	// with a delivery method (future, promise, LPC, or target-side RPC).
	Cx = core.Cx
	// CxEvent identifies a completion event.
	CxEvent = core.CxEvent
	// CxFutures carries the futures requested with …AsFuture descriptors.
	CxFutures = core.CxFutures
)

// Memory kinds (paper §VI): device-kind pointers route RMA through the
// simulated device DMA engine instead of the NIC alone.
const (
	KindHost   = core.KindHost
	KindDevice = core.KindDevice
)

// Generic runtime types (aliases; Go 1.24).
type (
	// Future is the consumer side of an asynchronous operation.
	Future[T any] = core.Future[T]
	// Promise is the producer side: a fulfillable dependency counter.
	Promise[T any] = core.Promise[T]
	// GPtr is a global pointer to T in some rank's shared segment.
	GPtr[T Scalar] = core.GPtr[T]
	// View is a serializable window over a slice (upcxx::view).
	View[T Scalar] = core.View[T]
	// DistObject is one rank's representative of a distributed object.
	DistObject[T any] = core.DistObject[T]
	// Pair carries the two values of WhenAll2.
	Pair[A, B any] = core.Pair[A, B]
	// AnyFuture is the type-erased future accepted by WhenAll.
	AnyFuture = core.AnyFuture
	// PutPair and GetPair name vector-RMA fragments.
	PutPair[T Scalar] = core.PutPair[T]
	GetPair[T Scalar] = core.GetPair[T]
)

// Job control.
var (
	// Run executes fn on a fresh n-rank zero-delay world.
	Run = core.Run
	// RunConfig is Run with an explicit configuration.
	RunConfig = core.RunConfig
	// NewWorld creates a job for repeated epochs; Close it when done.
	NewWorld = core.NewWorld
)

// Real transport conduit (multi-process ranks; see internal/gasnet's
// tcp/shm backends and internal/core/proc.go's bootstrap).
type (
	// ConduitInfo identifies the active real backend: peer addresses,
	// shm segment size, and wire counters (World.Network().ConduitInfo).
	ConduitInfo = gasnet.ConduitInfo
)

var (
	// ErrPeerLost is wrapped by every error World.Failed reports after a
	// sibling rank process dies mid-job or sends a message this rank has
	// to refuse.
	ErrPeerLost = gasnet.ErrPeerLost
	// DistActive reports whether UPCXX_CONDUIT selects a real
	// multi-process backend for this process.
	DistActive = core.DistActive
	// DistBackend names the selected real backend ("tcp", "shm"), or ""
	// for the in-process conduit.
	DistBackend = core.DistBackend
	// DistNProc returns the rank-process count of the active
	// multi-process job, or 0 for in-process worlds (and in the parent
	// launcher before UPCXX_NPROC is fixed).
	DistNProc = core.DistNProc
	// LaunchWorld spawns a binary as an n-rank SPMD job over a real
	// backend and waits (the upcxx-run entry point).
	LaunchWorld = core.LaunchWorld
	// SpawnSelf re-executes this binary as an n-rank job (what RunConfig
	// does automatically when UPCXX_CONDUIT is set).
	SpawnSelf = core.SpawnSelf
	// NewWorldDist builds this process's single-rank view of a
	// multi-process job from the bootstrap environment.
	NewWorldDist = core.NewWorldDist
)

// RegisterRPC registers a round-trip RPC body for cross-process dispatch
// (real transport backends ship function *names*, not code pointers).
// Register package-level, non-generic functions from init().
func RegisterRPC[A, R any](fn func(*Rank, A) R) string { return core.RegisterRPC(fn) }

// RegisterRPCFF registers a fire-and-forget RPC body (also the
// RemoteCxAsRPC form) for cross-process dispatch.
func RegisterRPCFF[A any](fn func(*Rank, A)) string { return core.RegisterRPCFF(fn) }

// RegisterRPCFut registers a future-returning (deferred-reply) RPC body
// for cross-process dispatch.
func RegisterRPCFut[A, R any](fn func(*Rank, A) Future[R]) string { return core.RegisterRPCFut(fn) }

// Device DMA timing models for Config.DMA (see internal/gasnet). A
// model's GPUDirect capability decides the cross-rank device datapath:
// GDR-capable engines let the NIC address device memory directly, so
// device payloads skip the staging DMA hops and the host bounce buffer.
type (
	// DMAModel prices the device copy engine's descriptors.
	DMAModel = gasnet.DMAModel
	// NoDelayDMA is the zero-cost engine; set GDR to flip the
	// capability bit without adding timing.
	NoDelayDMA = gasnet.NoDelayDMA
	// PCIeDMA is the calibrated real-time engine.
	PCIeDMA = gasnet.PCIeDMA
)

var (
	// PCIe3 returns the calibrated PCIe gen3 engine (staged copies).
	PCIe3 = gasnet.PCIe3
	// PCIe3GDR returns PCIe3 with GPUDirect RDMA enabled.
	PCIe3GDR = gasnet.PCIe3GDR
)

// Runtime introspection (Config.Stats; see internal/obs).
type (
	// StatsSnapshot is a point-in-time copy of one rank's counters, as
	// returned by World.StatsMerged (job-wide merge).
	StatsSnapshot = obs.Snapshot
	// DMAKind classifies DMA descriptors in StatsSnapshot.DMA.
	DMAKind = obs.DMAKind
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

// Personas and cross-thread progress (paper §II; spec §10). A rank's
// communication may be driven by many goroutines: each goroutine's
// current persona owns the futures it creates and receives their
// completions, and Config.ProgressThread adds a dedicated per-rank
// progress goroutine that executes incoming RPCs while user goroutines
// compute. Rank.CurrentPersona, Rank.MasterPersona and
// Rank.ProgressPersona are available on the Rank alias directly.

// NewPersona creates an unheld persona on rk; activate it with
// AcquirePersona.
func NewPersona(rk *Rank, name string) *Persona { return core.NewPersona(rk, name) }

// AcquirePersona makes p current on the calling goroutine until the
// returned scope is released (scopes nest LIFO).
func AcquirePersona(p *Persona) *PersonaScope { return core.AcquirePersona(p) }

// LPCTo delivers fn to persona p from any goroutine; it runs during a
// user-level progress call of the goroutine holding p, FIFO in enqueue
// order.
func LPCTo(p *Persona, fn func()) { core.LPCTo(p, fn) }

// DetachDefaultPersonas discards the calling goroutine's automatically
// bound default personas; defer it in short-lived worker goroutines
// (after their operations complete) to keep the persona registry from
// growing with every goroutine ever used for communication.
func DetachDefaultPersonas() { core.DetachDefaultPersonas() }

// Memory management (upcxx::new_, new_array, delete_, global/local
// conversion).

// New allocates one zero-initialized T in this rank's shared segment.
func New[T Scalar](rk *Rank) (GPtr[T], error) { return core.New[T](rk) }

// NewArray allocates n contiguous zero-initialized Ts in this rank's
// shared segment.
func NewArray[T Scalar](rk *Rank, n int) (GPtr[T], error) { return core.NewArray[T](rk, n) }

// MustNewArray is NewArray, panicking on segment exhaustion.
func MustNewArray[T Scalar](rk *Rank, n int) GPtr[T] { return core.MustNewArray[T](rk, n) }

// Delete frees an allocation owned by this rank.
func Delete[T Scalar](rk *Rank, p GPtr[T]) error { return core.Delete(rk, p) }

// NilGPtr returns the null global pointer.
func NilGPtr[T Scalar]() GPtr[T] { return core.NilGPtr[T]() }

// Local converts a host-kind global pointer with local affinity into a
// directly usable slice (device memory is never host-addressable).
func Local[T Scalar](rk *Rank, p GPtr[T], n int) []T { return core.Local(rk, p, n) }

// ToGlobal converts a slice obtained from Local back to a global pointer.
func ToGlobal[T Scalar](rk *Rank, s []T) GPtr[T] { return core.ToGlobal(rk, s) }

// Memory kinds (upcxx::device_allocator / global_ptr<T, memory_kind>).
// A device allocator opens a device segment on a rank; pointers into it
// carry KindDevice, and every RMA entry point (RPut/RGet/CopyGG and the
// V/Indexed/Strided2D variants) routes their transfers through the
// simulated device DMA engine, whose bandwidth/latency model is distinct
// from the network's (Config.DMA).

// NewDeviceAllocator opens a device segment of size bytes on this rank.
func NewDeviceAllocator(rk *Rank, size int) *DeviceAllocator {
	return core.NewDeviceAllocator(rk, size)
}

// CloseDeviceAllocator tears the device segment down. Outstanding GPtrs
// into it are poisoned: later use faults with a clear use-after-close
// error.
func CloseDeviceAllocator(da *DeviceAllocator) { core.CloseDeviceAllocator(da) }

// NewDeviceArray allocates n zero-initialized Ts in the device segment.
func NewDeviceArray[T Scalar](da *DeviceAllocator, n int) (GPtr[T], error) {
	return core.NewDeviceArray[T](da, n)
}

// MustNewDeviceArray is NewDeviceArray, panicking on exhaustion.
func MustNewDeviceArray[T Scalar](da *DeviceAllocator, n int) GPtr[T] {
	return core.MustNewDeviceArray[T](da, n)
}

// RunKernel executes kernel over n device elements at p — the simulation's
// stand-in for a device kernel launch, and the only sanctioned way to
// compute on device memory.
func RunKernel[T Scalar](da *DeviceAllocator, p GPtr[T], n int, kernel func([]T)) {
	core.RunKernel(da, p, n, kernel)
}

// Completion descriptors (paper §III; spec §7). Every communication
// operation — RMA, collectives, and RPC — exposes operation, source, and
// remote completion events; the …With entry points below accept any
// combination of descriptors, and the requested futures come back in
// CxFutures. RemoteCxAsRPC is the signaling put: the function executes at
// the destination rank strictly after the transferred data is visible
// there (for device destinations, after the final DMA hop), piggybacked
// on the transfer with no extra round trip.
//
// Deliveries are persona-addressed: the Cx.On combinator (and the …On
// constructors below) redirect any future/promise/LPC to a *named*
// persona instead of the initiator's, and address a RemoteCxAsRPC body to
// a named persona of the target rank — so in progress-thread mode a
// signaling-put notification can land directly on the worker persona it
// concerns.

// OpCxAsFuture requests operation completion as a future (the default).
func OpCxAsFuture() Cx { return core.OpCxAsFuture() }

// OpCxAsPromise registers operation completion on p.
func OpCxAsPromise(p *Promise[Unit]) Cx { return core.OpCxAsPromise(p) }

// OpCxAsLPC delivers operation completion by running fn on persona pers.
func OpCxAsLPC(pers *Persona, fn func()) Cx { return core.OpCxAsLPC(pers, fn) }

// OpCxAsFutureOn requests operation completion as a future owned by the
// named persona p — only the goroutine holding p may consume it.
func OpCxAsFutureOn(p *Persona) Cx { return core.OpCxAsFutureOn(p) }

// SourceCxAsFutureOn requests source completion as a future owned by the
// named persona p (puts and RPC argument buffers only).
func SourceCxAsFutureOn(p *Persona) Cx { return core.SourceCxAsFutureOn(p) }

// RemoteCxAsFutureOn requests remote completion as an initiator-side
// future owned by the named persona p.
func RemoteCxAsFutureOn(p *Persona) Cx { return core.RemoteCxAsFutureOn(p) }

// SourceCxAsFuture requests source-buffer completion as a future
// (puts only — copies read their global-pointer source lazily).
func SourceCxAsFuture() Cx { return core.SourceCxAsFuture() }

// SourceCxAsPromise registers source completion on p (puts only).
func SourceCxAsPromise(p *Promise[Unit]) Cx { return core.SourceCxAsPromise(p) }

// SourceCxAsLPC delivers source completion by running fn on persona
// pers (puts only).
func SourceCxAsLPC(pers *Persona, fn func()) Cx { return core.SourceCxAsLPC(pers, fn) }

// RemoteCxAsFuture requests remote completion as an initiator-side future.
func RemoteCxAsFuture() Cx { return core.RemoteCxAsFuture() }

// RemoteCxAsPromise registers remote completion on p.
func RemoteCxAsPromise(p *Promise[Unit]) Cx { return core.RemoteCxAsPromise(p) }

// RemoteCxAsLPC delivers remote completion by running fn on persona pers.
func RemoteCxAsLPC(pers *Persona, fn func()) Cx { return core.RemoteCxAsLPC(pers, fn) }

// RemoteCxAsRPC executes fn(arg) at the destination rank once the data is
// visible there — the signaling put.
func RemoteCxAsRPC[A any](fn func(*Rank, A), arg A) Cx { return core.RemoteCxAsRPC(fn, arg) }

// RPCBodyOn addresses the *body* of an RPC to the named persona p of the
// target rank: instead of executing on whichever goroutine drives that
// rank's progress, the invocation is delivered to p as an LPC and runs
// during p's own progress/wait calls. Accepted only where RPCs are sent
// (RPCWith, RPCFutWith, RPCFFWith, and Batch.Flush — every body of the
// batch), at most once per call; p must belong to the target rank.
func RPCBodyOn(p *Persona) Cx { return core.RPCBodyOn(p) }

// One-sided RMA (upcxx::rput/rget and the VIS variants). Every entry
// point routes through one internal injection path; the …With variants
// take explicit completion sets.

// RPut copies src into remote memory; the future readies at operation
// completion.
func RPut[T Scalar](rk *Rank, src []T, dst GPtr[T]) Future[Unit] { return core.RPut(rk, src, dst) }

// RPutWith is RPut with an explicit completion-descriptor set.
func RPutWith[T Scalar](rk *Rank, src []T, dst GPtr[T], cxs ...Cx) CxFutures {
	return core.RPutWith(rk, src, dst, cxs...)
}

// RPutPromise is RPut with completion registered on a promise
// (operation_cx::as_promise).
func RPutPromise[T Scalar](rk *Rank, src []T, dst GPtr[T], p *Promise[Unit]) {
	core.RPutPromise(rk, src, dst, p)
}

// RGet copies remote memory into the local buffer dst.
func RGet[T Scalar](rk *Rank, src GPtr[T], dst []T) Future[Unit] { return core.RGet(rk, src, dst) }

// RGetWith is RGet with an explicit completion-descriptor set.
func RGetWith[T Scalar](rk *Rank, src GPtr[T], dst []T, cxs ...Cx) CxFutures {
	return core.RGetWith(rk, src, dst, cxs...)
}

// PutValue writes one value to remote memory.
func PutValue[T Scalar](rk *Rank, v T, dst GPtr[T]) Future[Unit] { return core.PutValue(rk, v, dst) }

// GetValue fetches one value from remote memory.
func GetValue[T Scalar](rk *Rank, src GPtr[T]) Future[T] { return core.GetValue(rk, src) }

// CopyGG copies between two global locations of any memory kinds
// (upcxx::copy); the initiator may be a third party to both sides.
func CopyGG[T Scalar](rk *Rank, src, dst GPtr[T], n int) Future[Unit] {
	return core.CopyGG(rk, src, dst, n)
}

// CopyCx is upcxx::copy with an explicit completion-descriptor set — the
// kind-aware completion variants (remote_cx on device puts) ride here.
func CopyCx[T Scalar](rk *Rank, src, dst GPtr[T], n int, cxs ...Cx) CxFutures {
	return core.CopyWith(rk, src, dst, n, cxs...)
}

// RPutV / RGetV issue vector RMA over fragment lists; the With variants
// take completion sets (operation/remote fire once all fragments land).
func RPutV[T Scalar](rk *Rank, frags []PutPair[T]) Future[Unit] { return core.RPutV(rk, frags) }
func RGetV[T Scalar](rk *Rank, frags []GetPair[T]) Future[Unit] { return core.RGetV(rk, frags) }
func RPutVWith[T Scalar](rk *Rank, frags []PutPair[T], cxs ...Cx) CxFutures {
	return core.RPutVWith(rk, frags, cxs...)
}
func RGetVWith[T Scalar](rk *Rank, frags []GetPair[T], cxs ...Cx) CxFutures {
	return core.RGetVWith(rk, frags, cxs...)
}

// RPutIndexed scatters fixed-size blocks to element offsets of a remote
// base pointer; RGetIndexed gathers them.
func RPutIndexed[T Scalar](rk *Rank, src []T, base GPtr[T], indices []int, blockElems int) Future[Unit] {
	return core.RPutIndexed(rk, src, base, indices, blockElems)
}
func RGetIndexed[T Scalar](rk *Rank, base GPtr[T], indices []int, blockElems int, dst []T) Future[Unit] {
	return core.RGetIndexed(rk, base, indices, blockElems, dst)
}
func RPutIndexedWith[T Scalar](rk *Rank, src []T, base GPtr[T], indices []int, blockElems int, cxs ...Cx) CxFutures {
	return core.RPutIndexedWith(rk, src, base, indices, blockElems, cxs...)
}
func RGetIndexedWith[T Scalar](rk *Rank, base GPtr[T], indices []int, blockElems int, dst []T, cxs ...Cx) CxFutures {
	return core.RGetIndexedWith(rk, base, indices, blockElems, dst, cxs...)
}

// RPutStrided2D / RGetStrided2D move regular 2D sections.
func RPutStrided2D[T Scalar](rk *Rank, src []T, srcStride int, dst GPtr[T], dstStride, rowLen, rows int) Future[Unit] {
	return core.RPutStrided2D(rk, src, srcStride, dst, dstStride, rowLen, rows)
}
func RGetStrided2D[T Scalar](rk *Rank, src GPtr[T], srcStride int, dst []T, dstStride, rowLen, rows int) Future[Unit] {
	return core.RGetStrided2D(rk, src, srcStride, dst, dstStride, rowLen, rows)
}
func RPutStrided2DWith[T Scalar](rk *Rank, src []T, srcStride int, dst GPtr[T], dstStride, rowLen, rows int, cxs ...Cx) CxFutures {
	return core.RPutStrided2DWith(rk, src, srcStride, dst, dstStride, rowLen, rows, cxs...)
}
func RGetStrided2DWith[T Scalar](rk *Rank, src GPtr[T], srcStride int, dst []T, dstStride, rowLen, rows int, cxs ...Cx) CxFutures {
	return core.RGetStrided2DWith(rk, src, srcStride, dst, dstStride, rowLen, rows, cxs...)
}

// Remote procedure calls (upcxx::rpc / rpc_ff). The function value ships
// as a code reference (SPMD ranks share one binary); arguments are
// serialized into the message. RPCs lower through the same injection
// path as RMA and collectives, under the same versioned wire header
// discipline, and the …With variants accept the full completion
// vocabulary: source-cx when the argument buffer may be reused, op-cx
// when the reply lands (for rpc_ff, when the conduit accepts the
// message), and RemoteCxAsRPC as a target-side landing event.

// RPC invokes fn(arg) on the target rank, returning a future for the
// result. A function of no arguments takes a Unit, one of several a struct.
func RPC[A, R any](rk *Rank, target Intrank, fn func(*Rank, A) R, arg A) Future[R] {
	return core.RPC(rk, target, fn, arg)
}

// RPCWith is RPC with an explicit completion-descriptor set, returning
// the result future plus the requested completion futures.
func RPCWith[A, R any](rk *Rank, target Intrank, fn func(*Rank, A) R, arg A, cxs ...Cx) (Future[R], CxFutures) {
	return core.RPCWith(rk, target, fn, arg, cxs...)
}

// RPCFutWith is RPCWith for a future-returning body: the reply is
// deferred until the body's future readies.
func RPCFutWith[A, R any](rk *Rank, target Intrank, fn func(*Rank, A) Future[R], arg A, cxs ...Cx) (Future[R], CxFutures) {
	return core.RPCFutWith(rk, target, fn, arg, cxs...)
}

// RPCFFWith is RPCFF with an explicit completion-descriptor set.
func RPCFFWith[A any](rk *Rank, target Intrank, fn func(*Rank, A), arg A, cxs ...Cx) CxFutures {
	return core.RPCFFWith(rk, target, fn, arg, cxs...)
}

// RPCFut invokes a future-returning function remotely; the reply is
// deferred until that future readies.
func RPCFut[A, R any](rk *Rank, target Intrank, fn func(*Rank, A) Future[R], arg A) Future[R] {
	return core.RPCFut(rk, target, fn, arg)
}

// RPCFF is fire-and-forget rpc_ff: no acknowledgment, no result.
func RPCFF[A any](rk *Rank, target Intrank, fn func(*Rank, A), arg A) {
	core.RPCFF(rk, target, fn, arg)
}

// Batch accumulates RPCs bound for one target rank; Flush ships them
// as a single coalesced wire message under one completion plan
// (DESIGN §12).
type Batch = core.Batch

// NewBatch starts an empty RPC batch for target.
func NewBatch(rk *Rank, target Intrank) *Batch { return core.NewBatch(rk, target) }

// BatchRPC appends a round-trip RPC to the batch and returns the
// value future its reply will fulfill after Flush. View-typed fields
// of arg ≥64 bytes are captured zero-copy: the caller must not mutate
// them between this call and the flushed op's source-cx event.
func BatchRPC[A, R any](b *Batch, fn func(*Rank, A) R, arg A) Future[R] {
	return core.BatchRPC(b, fn, arg)
}

// BatchRPCFF appends a fire-and-forget RPC to the batch.
func BatchRPCFF[A any](b *Batch, fn func(*Rank, A), arg A) {
	core.BatchRPCFF(b, fn, arg)
}

// Futures and promises.

// ReadyFuture returns an already-fulfilled future carrying v.
func ReadyFuture[T any](rk *Rank, v T) Future[T] { return core.ReadyFuture(rk, v) }

// EmptyFuture returns a ready empty future (conjunction seed).
func EmptyFuture(rk *Rank) Future[Unit] { return core.EmptyFuture(rk) }

// Then chains a callback producing a value (future::then).
func Then[T, U any](f Future[T], fn func(T) U) Future[U] { return core.Then(f, fn) }

// ThenDo chains a callback producing no value.
func ThenDo[T any](f Future[T], fn func(T)) Future[Unit] { return core.ThenDo(f, fn) }

// ThenFut chains a future-returning callback, flattening the result.
func ThenFut[T, U any](f Future[T], fn func(T) Future[U]) Future[U] { return core.ThenFut(f, fn) }

// WhenAll conjoins futures into a readiness-only future (upcxx::when_all).
func WhenAll(rk *Rank, fs ...AnyFuture) Future[Unit] { return core.WhenAll(rk, fs...) }

// WhenAll2 conjoins two futures, preserving both values.
func WhenAll2[A, B any](fa Future[A], fb Future[B]) Future[Pair[A, B]] {
	return core.WhenAll2(fa, fb)
}

// WhenAllSlice conjoins a homogeneous slice of futures.
func WhenAllSlice[T any](rk *Rank, fs []Future[T]) Future[[]T] { return core.WhenAllSlice(rk, fs) }

// NewPromise creates a promise with one unfulfilled dependency.
func NewPromise[T any](rk *Rank) *Promise[T] { return core.NewPromise[T](rk) }

// NewPromiseOn creates a promise owned by the named persona pers: pass it
// to a …CxAsPromise descriptor to address that completion to pers.
func NewPromiseOn[T any](rk *Rank, pers *Persona) *Promise[T] { return core.NewPromiseOn[T](rk, pers) }

// Views.

// MakeView wraps a slice for zero-copy serialization into an RPC.
func MakeView[T Scalar](s []T) View[T] { return core.MakeView(s) }

// Teams and collectives. The collectives engine (internal/core/coll.go)
// drives every collective over pluggable tree topologies — binomial by
// default, k-nomial via Config.CollRadix, flat for tiny teams — and
// lowers every round through the same injection path as RMA, so the
// …With variants accept the full completion vocabulary: operation
// completion as futures/promises/LPCs delivered to the initiating
// persona, and RemoteCxAsRPC executed on each member's execution persona
// the moment the collective's data lands there (for device operands,
// after the h2d DMA) — barrier-free multicast/convergence signals.
// Collectives may be initiated from any persona; completion routes back
// to the initiator.

// Broadcast distributes root's value over the team's tree.
func Broadcast[T any](t *Team, root Intrank, val T) Future[T] { return core.Broadcast(t, root, val) }

// BroadcastWith is Broadcast with an explicit completion set, returning
// the value future plus the requested completion futures.
func BroadcastWith[T any](t *Team, root Intrank, val T, cxs ...Cx) (Future[T], CxFutures) {
	return core.BroadcastWith(t, root, val, cxs...)
}

// ReduceOne combines values toward team rank 0.
func ReduceOne[T any](t *Team, val T, op func(T, T) T) Future[T] { return core.ReduceOne(t, val, op) }

// ReduceOneWith is ReduceOne with an explicit completion set.
func ReduceOneWith[T any](t *Team, val T, op func(T, T) T, cxs ...Cx) (Future[T], CxFutures) {
	return core.ReduceOneWith(t, val, op, cxs...)
}

// AllReduce combines values and delivers the result everywhere.
func AllReduce[T any](t *Team, val T, op func(T, T) T) Future[T] { return core.AllReduce(t, val, op) }

// AllReduceWith is AllReduce with an explicit completion set.
func AllReduceWith[T any](t *Team, val T, op func(T, T) T, cxs ...Cx) (Future[T], CxFutures) {
	return core.AllReduceWith(t, val, op, cxs...)
}

// BroadcastBufWith distributes the root's n-element buffer into every
// member's own local buffer (any memory kind) as kind-aware conduit
// copies; a RemoteCxAsRPC descriptor fires at each member once the
// payload is visible in its buffer (device: after the h2d DMA).
func BroadcastBufWith[T Scalar](t *Team, root Intrank, buf GPtr[T], n int, cxs ...Cx) CxFutures {
	return core.BroadcastBufWith(t, root, buf, n, cxs...)
}

// ReduceOneBufWith combines every member's n-element buffer elementwise
// toward team rank 0's buffer. Device operands reduce device-resident:
// partials move as DMA-costed copies and fold via RunKernel — no host
// staging. da is the owning allocator for device operands (nil for host).
func ReduceOneBufWith[T Scalar](t *Team, da *DeviceAllocator, buf GPtr[T], n int, op func(T, T) T, cxs ...Cx) CxFutures {
	return core.ReduceOneBufWith(t, da, buf, n, op, cxs...)
}

// AllReduceBufWith is ReduceOneBufWith with the result fanned back down
// into every member's buffer.
func AllReduceBufWith[T Scalar](t *Team, da *DeviceAllocator, buf GPtr[T], n int, op func(T, T) T, cxs ...Cx) CxFutures {
	return core.AllReduceBufWith(t, da, buf, n, op, cxs...)
}

// Distributed objects.

// NewDistObject registers this rank's representative (collective
// ordering).
func NewDistObject[T any](rk *Rank, val T) *DistObject[T] { return core.NewDistObject(rk, val) }

// FetchDist retrieves another rank's representative by ID.
func FetchDist[T any](rk *Rank, id DistID, from Intrank) Future[T] {
	return core.FetchDist[T](rk, id, from)
}

// LookupDist resolves a DistID to the local representative (RPC-side
// binding).
func LookupDist[T any](rk *Rank, id DistID) (*DistObject[T], bool) {
	return core.LookupDist[T](rk, id)
}

// Remote atomics.

// NewAtomicU64 creates the uint64 atomic domain.
func NewAtomicU64(rk *Rank) *AtomicU64 { return core.NewAtomicU64(rk) }

// NewAtomicI64 creates the int64 atomic domain.
func NewAtomicI64(rk *Rank) *AtomicI64 { return core.NewAtomicI64(rk) }

// Remote completions (remote_cx::as_rpc): attach work to the target-side
// completion of a put. Built on the completion-object system; see also
// RPutWith/CopyCx with RemoteCxAsRPC for composed forms.

// RPutSignal is the signaling put: the notification runs at the target
// once the data lands, piggybacked on the transfer (no extra round trip,
// no execution acknowledgment). The future is the put's operation
// completion.
func RPutSignal[T Scalar, A any](rk *Rank, src []T, dst GPtr[T], fn func(*Rank, A), arg A) Future[Unit] {
	return core.RPutSignal(rk, src, dst, fn, arg)
}

// RPutThenRemote puts src to dst and, once remotely visible, runs fn at
// dst's owner; the future readies only when the notification has
// *executed* (stronger than RPutSignal, at the cost of an explicit RPC
// round trip after remote completion).
func RPutThenRemote[T Scalar, A any](rk *Rank, src []T, dst GPtr[T], fn func(*Rank, A), arg A) Future[Unit] {
	return core.RPutThenRemote(rk, src, dst, fn, arg)
}

// Gather collects every team member's value at root (root's future holds
// the values by team rank).
func Gather[T any](t *Team, root Intrank, val T) Future[[]T] { return core.Gather(t, root, val) }

// AllGather collects every member's value on every member.
func AllGather[T any](t *Team, val T) Future[[]T] { return core.AllGather(t, val) }

// Distributed async-task runtime (internal/task): AsyncAt ships a
// registered function and its serialized argument to any rank and
// returns a future for the result; per-rank worker personas execute,
// idle ranks steal batched work from busy ones, and Finish detects
// global quiescence with a four-counter wave protocol instead of a
// barrier. Everything lowers onto the registered-RPC wire, so tasks run
// over every conduit and show up in the introspection layer
// (StatsSnapshot.Tasks, task-stage trace events).

type (
	// TaskRuntime is one rank's task engine; create it on every rank
	// with NewTaskRuntime before tasks cross ranks.
	TaskRuntime = task.Runtime
	// TaskConfig tunes workers and stealing for one rank's runtime.
	TaskConfig = task.Config
	// TaskGroup awaits a set of fire-and-forget spawns by credit
	// counting, locally to the spawning rank (TaskRuntime.NewGroup).
	TaskGroup = task.Group
)

var (
	// NewTaskRuntime creates and starts a rank's task runtime.
	NewTaskRuntime = task.New
	// TaskRuntimeOf returns a rank's runtime (nil before NewTaskRuntime).
	TaskRuntimeOf = task.Of
)

// RegisterTask registers a result-bearing task body for cross-rank
// dispatch. Like RegisterRPC: package-level, non-generic, from init().
func RegisterTask[A, R any](fn func(*Rank, A) R) string { return task.Register(fn) }

// RegisterTaskFF registers a fire-and-forget task body.
func RegisterTaskFF[A any](fn func(*Rank, A)) string { return task.RegisterFF(fn) }

// AsyncAt spawns fn(arg) on the target rank and returns a future for
// the result, owned by the calling persona. The task may execute on any
// of the target's workers — or on a thief rank that steals it.
func AsyncAt[A, R any](rt *TaskRuntime, target Intrank, fn func(*Rank, A) R, arg A) Future[R] {
	return task.AsyncAt(rt, target, fn, arg)
}

// AsyncAtFF spawns fn(arg) on the target rank fire-and-forget; await it
// through TaskRuntime.Finish (collective) or a TaskGroup (local).
func AsyncAtFF[A any](rt *TaskRuntime, target Intrank, fn func(*Rank, A), arg A) {
	task.AsyncAtFF(rt, target, fn, arg)
}

// GroupAsyncAt spawns fn(arg) on the target rank under a task group
// created on this rank; g.Wait drains the group's credit balance.
func GroupAsyncAt[A any](g *TaskGroup, target Intrank, fn func(*Rank, A), arg A) {
	task.GroupAsyncAt(g, target, fn, arg)
}

// TaskHelpWait blocks on f like Future.Wait while lending the calling
// goroutine to the task queue (executing and stealing work meanwhile).
func TaskHelpWait[T any](rt *TaskRuntime, f Future[T]) T { return task.HelpWait(rt, f) }

// TaskStat indexes StatsSnapshot.Tasks.
type TaskStat = obs.TaskStat

// Task-runtime counters (StatsSnapshot.Tasks, present once any task ran).
const (
	TaskSpawned      = obs.TaskSpawned
	TaskExecuted     = obs.TaskExecuted
	TaskStolen       = obs.TaskStolen
	TaskMigrated     = obs.TaskMigrated
	TaskStealReqs    = obs.TaskStealReqs
	TaskStealFails   = obs.TaskStealFails
	TaskDetectRounds = obs.TaskDetectRounds
)
