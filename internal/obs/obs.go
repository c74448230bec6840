// Package obs is the runtime introspection layer: low-overhead,
// race-clean per-rank counters, op-lifecycle tracing, and latency
// histograms for every operation that crosses the single injection path.
//
// The design splits into three mechanisms with three cost profiles:
//
//   - Counters: padded atomic counters (one cache line each, so two
//     personas hammering different counters never false-share) for ops
//     injected by kind, bytes by kind×direction, completions delivered
//     by {event}×{flavor}, LPCs per persona, progress passes vs empty
//     spins, doorbell wakeups, DMA descriptors by hop kind, and wire
//     messages/bytes per peer. Counting is one atomic add; disabled, the
//     whole subsystem is a nil pointer and every hook is a single
//     pointer-load-and-branch.
//
//   - Op-lifecycle tracing: a fixed-size per-rank ring buffer of
//     timestamped events. Every operation the single injection path
//     accepts gets a per-rank sequence number; when tracing is armed
//     (per-rank or job-wide) a 1-in-N sample of operations carries a
//     nonzero trace ID through the conduit hop chains (OpTag), and each
//     hop appends an event — inject, conduit capture, wire landing, DMA
//     hop, destination landing, completion delivery — to the
//     *initiator's* ring, tagged with the rank where it physically
//     happened. Snapshot.Timeline(id) reassembles the causal timeline
//     of one operation.
//
//   - Latency histograms: fixed log₂-bucket histograms (no per-sample
//     allocation, plain atomic adds) over inject→operation-complete and
//     inject→remote-landing, keyed by op kind and payload size class.
//     Histograms are value-mergeable across ranks (Snapshot.Merge), so
//     job-wide distributions cost one reduction over the cells.
//
// The package depends only on the standard library: the conduit
// (internal/gasnet) and the runtime (internal/core) both record into it,
// and everything user-facing is exposed through Snapshot.
package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// OpKind classifies an injected operation. The first seven values mirror
// internal/core's lowered op kinds in order (the runtime converts by
// integer cast); KindCollRound counts individual collective tree rounds,
// which additionally appear as the AM/copy operations they lower to.
type OpKind uint8

const (
	KindPut OpKind = iota
	KindGet
	KindCopy
	KindAtomic
	KindAM
	KindColl
	KindRPC
	KindCollRound
	// KindTask classifies task-lifecycle trace events recorded by the
	// distributed task runtime (internal/task). Tasks are not injected
	// operations — their messages already count as the RPCs they lower
	// to — so the per-kind op/byte counters stay zero for this kind; it
	// exists to tag trace ring events.
	KindTask
	NumOpKinds
)

var opKindNames = [NumOpKinds]string{
	"put", "get", "copy", "atomic", "am", "collective", "rpc", "coll-round",
	"task",
}

// String returns the kind mnemonic.
func (k OpKind) String() string {
	if k < NumOpKinds {
		return opKindNames[k]
	}
	return "op?"
}

// CxEvent mirrors internal/core's completion events in order.
type CxEvent uint8

const (
	EvOp CxEvent = iota
	EvSource
	EvRemote
	NumCxEvents
)

var cxEventNames = [NumCxEvents]string{"op", "source", "remote"}

func (e CxEvent) String() string {
	if e < NumCxEvents {
		return cxEventNames[e]
	}
	return "ev?"
}

// CxVia mirrors internal/core's completion delivery flavors in order.
type CxVia uint8

const (
	ViaFuture CxVia = iota
	ViaPromise
	ViaLPC
	ViaRPC
	NumCxVias
)

var cxViaNames = [NumCxVias]string{"future", "promise", "lpc", "rpc"}

func (v CxVia) String() string {
	if v < NumCxVias {
		return cxViaNames[v]
	}
	return "via?"
}

// DMAKind classifies one device copy-engine descriptor by the memory
// kinds it bridges. Device↔device descriptors split by datapath: direct
// descriptors never touch host memory (the on-node fabric, or a
// GPUDirect NIC reading/writing device memory across ranks), while
// bounced descriptors are the halves of a cross-rank d2d transfer
// staged through a host bounce buffer (d2h at the source engine, h2d
// at the destination engine) on a non-GDR conduit.
type DMAKind uint8

const (
	DMAH2D DMAKind = iota
	DMAD2H
	DMAD2DDirect
	DMAD2DBounced
	NumDMAKinds
)

// DMAD2D is the pre-split name for the direct device↔device kind; the
// on-node collapse path still counts here.
const DMAD2D = DMAD2DDirect

var dmaKindNames = [NumDMAKinds]string{"h2d", "d2h", "d2d-direct", "d2d-bounced"}

func (k DMAKind) String() string {
	if k < NumDMAKinds {
		return dmaKindNames[k]
	}
	return "dma?"
}

// TaskStat indexes one counter of the distributed task runtime
// (internal/task). Spawned counts at the spawning rank, Executed at the
// executing rank (the pair the 4-counter termination detector sums
// job-wide); Stolen counts tasks a thief gained, Migrated tasks a victim
// gave up; StealReqs/StealFails are steal attempts issued and the subset
// that came back empty; DetectRounds counts termination-detector waves.
type TaskStat uint8

const (
	TaskSpawned TaskStat = iota
	TaskExecuted
	TaskStolen
	TaskMigrated
	TaskStealReqs
	TaskStealFails
	TaskDetectRounds
	NumTaskStats
)

var taskStatNames = [NumTaskStats]string{
	"spawned", "executed", "stolen", "migrated", "steal-reqs", "steal-fails", "detector-rounds",
}

// String returns the stat mnemonic.
func (s TaskStat) String() string {
	if s < NumTaskStats {
		return taskStatNames[s]
	}
	return "task-stat?"
}

// Count is a cache-line-padded atomic counter: hot counters incremented
// by different goroutines must not share a line.
type Count struct {
	v atomic.Uint64
	_ [56]byte
}

// Add increments the counter by n.
func (c *Count) Add(n uint64) { c.v.Add(n) }

// Load returns the current value.
func (c *Count) Load() uint64 { return c.v.Load() }

// PersonaCount is one persona's LPC accounting, registered with the
// owning rank's recorder at persona creation.
type PersonaCount struct {
	Name string
	Enq  Count // LPCs enqueued onto this persona
	Exec Count // LPCs executed by this persona's drain
}

// Options configures a job's recorder.
type Options struct {
	// TraceDepth is the per-rank trace ring capacity in events; 0 keeps
	// tracing disarmed at creation with a default-capacity ring
	// (DefaultTraceDepth) available for later arming.
	TraceDepth int
	// TraceSample records every Nth sampled operation while armed
	// (1-in-N); 0 or 1 traces every operation.
	TraceSample int
}

// DefaultTraceDepth is the ring capacity used when tracing is armed
// without an explicit depth.
const DefaultTraceDepth = 1024

// Obs is one job's recorder: a RankObs per rank sharing one epoch.
type Obs struct {
	epoch  time.Time
	sample uint64
	ranks  []*RankObs
}

// New creates a recorder for a job of n ranks.
func New(n int, o Options) *Obs {
	depth := o.TraceDepth
	armed := depth > 0
	if depth <= 0 {
		depth = DefaultTraceDepth
	}
	sample := uint64(o.TraceSample)
	if sample == 0 {
		sample = 1
	}
	ob := &Obs{epoch: time.Now(), sample: sample}
	ob.ranks = make([]*RankObs, n)
	for r := range ob.ranks {
		ro := &RankObs{
			o:    ob,
			rank: int32(r),
			ring: newRing(depth),
		}
		ro.wireTxMsgs = make([]Count, n)
		ro.wireTxBytes = make([]Count, n)
		ro.wireRxMsgs = make([]Count, n)
		ro.wireRxBytes = make([]Count, n)
		ro.armed.Store(armed)
		ob.ranks[r] = ro
	}
	return ob
}

// Rank returns rank r's recorder.
func (ob *Obs) Rank(r int) *RankObs { return ob.ranks[r] }

// Ranks returns the job size.
func (ob *Obs) Ranks() int { return len(ob.ranks) }

// ArmAll arms (or disarms) op-lifecycle tracing on every rank.
func (ob *Obs) ArmAll(on bool) {
	for _, ro := range ob.ranks {
		ro.Arm(on)
	}
}

// RankObs records everything one rank observes. All mutation is atomic
// (counters, histograms) or mutex-guarded (trace ring, persona
// registry): concurrent recording from any number of goroutines is
// race-clean by construction.
type RankObs struct {
	o    *Obs
	rank int32

	// Ops injected by kind, with payload bytes by direction: tx at the
	// initiator when the op is handed to the conduit, rx at the
	// destination when the bytes land.
	ops     [NumOpKinds]Count
	txBytes [NumOpKinds]Count
	rxBytes [NumOpKinds]Count

	// Completions delivered, by event × flavor.
	cx [NumCxEvents][NumCxVias]Count

	// Progress accounting: user-level progress passes, the subset that
	// processed nothing (empty spins), conduit doorbell wakeups, the yields
	// idle waiters made instead of parking (a wait was polled or parked), and
	// doorbell deposits (rings that found the slot empty — coalesced, so
	// a batch of completions rings once, not once per op).
	passes  Count
	empties Count
	wakeups Count
	yields  Count
	rings   Count

	// Device copy-engine descriptors executed by this rank's engine, by
	// hop kind.
	dma      [NumDMAKinds]Count
	dmaBytes [NumDMAKinds]Count

	// Fused reduction folds executed on this rank's device: kernel
	// launches and the child operands they consumed (a fused launch
	// folds every landed child of a tree round at once).
	fusedFolds    Count
	fusedChildren Count

	// Distributed task runtime counters (internal/task), by TaskStat.
	tasks [NumTaskStats]Count

	// Wire messages and payload bytes by peer, both directions.
	wireTxMsgs  []Count
	wireTxBytes []Count
	wireRxMsgs  []Count
	wireRxBytes []Count

	// Latency histograms: inject→operation-complete and
	// inject→remote-landing, by kind × size class.
	histDone Hist
	histLand Hist

	// Op-lifecycle trace.
	seq   atomic.Uint64
	armed atomic.Bool
	ring  *ring

	pmu      sync.Mutex
	personas []*PersonaCount
}

// Arm arms (or disarms) op-lifecycle tracing on this rank, clearing the
// ring when arming.
func (ro *RankObs) Arm(on bool) {
	if on {
		ro.ring.reset()
	}
	ro.armed.Store(on)
}

// Persona registers (and returns) the LPC counter pair of one persona.
func (ro *RankObs) Persona(name string) *PersonaCount {
	pc := &PersonaCount{Name: name}
	ro.pmu.Lock()
	ro.personas = append(ro.personas, pc)
	ro.pmu.Unlock()
	return pc
}

// CountOp counts one injected operation of kind k with no payload
// accounting (whole collectives, collective tree rounds).
func (ro *RankObs) CountOp(k OpKind) { ro.ops[k].Add(1) }

// Pass counts one user-level progress pass; empty marks a pass that
// processed nothing.
func (ro *RankObs) Pass(empty bool) {
	ro.passes.Add(1)
	if empty {
		ro.empties.Add(1)
	}
}

// Wakeup counts one doorbell wakeup (a WaitPending unblocked by Ring
// rather than its timeout).
func (ro *RankObs) Wakeup() { ro.wakeups.Add(1) }

// IdleYield counts one yield of an idle waiter (Endpoint.Yield): an empty
// pass that polled on instead of parking.
func (ro *RankObs) IdleYield() { ro.yields.Add(1) }

// Ring counts one doorbell deposit: a Ring call that found the 1-slot
// doorbell empty. Rings while a token is already pending coalesce into
// the deposited one and are not counted, so the counter reads as
// progress-thread wakeups *caused*, per batch rather than per op.
func (ro *RankObs) Ring() { ro.rings.Add(1) }

// DMA counts one device copy-engine descriptor executed by this rank's
// engine.
func (ro *RankObs) DMA(k DMAKind, bytes int) {
	ro.dma[k].Add(1)
	ro.dmaBytes[k].Add(uint64(bytes))
}

// FusedFold counts one fused reduction kernel launch that folded
// `children` child operands on this rank's device.
func (ro *RankObs) FusedFold(children int) {
	ro.fusedFolds.Add(1)
	ro.fusedChildren.Add(uint64(children))
}

// CountTask adds n to one task-runtime counter.
func (ro *RankObs) CountTask(s TaskStat, n int) { ro.tasks[s].Add(uint64(n)) }

// TaskStart accounts one task spawned at this rank and, while tracing is
// armed and the 1-in-N sampler selects it, records the spawn event and
// returns the nonzero trace ID that rides the task's descriptor through
// enqueue/steal/execute/complete hops (the enqueue hop has the argument's
// size: a spawn marshals it straight into its message). Task trace IDs share
// the rank's op sequence space: no collision with a traced operation's timeline.
func (ro *RankObs) TaskStart() uint64 {
	ro.tasks[TaskSpawned].Add(1)
	seq := ro.seq.Add(1)
	if ro.armed.Load() && seq%ro.o.sample == 0 {
		ro.ring.record(Event{ID: seq, Stage: StageTaskSpawn, Kind: KindTask, At: ro.rank, T: ro.now()})
		return seq
	}
	return 0
}

// TaskHop records one lifecycle event of a traced task into the task's
// *home* rank's ring (mirroring op hops, which record into the
// initiator's ring), tagged with this rank as the hop's location. No-op
// for untraced tasks (id 0) and, in multi-process worlds, for hops of
// tasks whose home rank lives in another process (its ring is not
// reachable; the home-side events still record there).
func (ro *RankObs) TaskHop(home int32, stage Stage, id uint64, bytes int) {
	if id == 0 || home < 0 || int(home) >= len(ro.o.ranks) {
		return
	}
	hro := ro.o.ranks[home]
	if !hro.armed.Load() {
		return
	}
	hro.ring.record(Event{ID: id, Stage: stage, Kind: KindTask, At: ro.rank, Bytes: int64(bytes), T: hro.now()})
}

// wire counts one wire message of n payload bytes from rank `from` to
// rank `to`: tx at the sender's recorder, rx at the receiver's. The
// from==to row is loopback traffic.
func (ob *Obs) wire(from, to int32, n int) {
	fro := ob.ranks[from]
	fro.wireTxMsgs[to].Add(1)
	fro.wireTxBytes[to].Add(uint64(n))
	tro := ob.ranks[to]
	tro.wireRxMsgs[from].Add(1)
	tro.wireRxBytes[from].Add(uint64(n))
}

// Completion counts one delivered completion.
func (ro *RankObs) Completion(ev CxEvent, via CxVia) { ro.cx[ev][via].Add(1) }

// now returns nanoseconds since the job epoch.
func (ro *RankObs) now() int64 { return int64(time.Since(ro.o.epoch)) }

// OpStart accounts one operation of kind k with n payload bytes handed
// to the conduit, and returns the tag that rides its hop chain: T0 for
// latency histograms always, a nonzero ID when tracing is armed and the
// 1-in-N sampler selects this op (the inject event is recorded here).
func (ro *RankObs) OpStart(k OpKind, n int) OpTag {
	ro.ops[k].Add(1)
	ro.txBytes[k].Add(uint64(n))
	seq := ro.seq.Add(1)
	tag := OpTag{Rec: ro, T0: ro.now(), Kind: k}
	if ro.armed.Load() && seq%ro.o.sample == 0 {
		tag.ID = seq
		ro.ring.record(Event{ID: seq, Stage: StageInject, Kind: k, At: ro.rank, Bytes: int64(n), T: tag.T0})
	}
	return tag
}

// OpDone records the operation-complete edge of one logical operation:
// the inject→complete latency histogram plus, for traced ops, the
// delivery event.
func (ro *RankObs) OpDone(tag OpTag, n int) {
	now := ro.now()
	ro.histDone.Record(tag.Kind, n, now-tag.T0)
	if tag.ID != 0 {
		ro.ring.record(Event{ID: tag.ID, Stage: StageDelivered, Kind: tag.Kind, At: ro.rank, Bytes: int64(n), T: now})
	}
}

// OpTag is the observability identity of one in-flight operation,
// threaded from Rank.inject through the conduit hop chains. The zero
// tag (Rec nil) is a no-op at every hop: when the subsystem is
// disabled, tags cost one nil check.
type OpTag struct {
	Rec  *RankObs // the initiator's recorder; nil = disabled
	ID   uint64   // nonzero = this op is traced
	T0   int64    // inject timestamp, ns since the job epoch
	Kind OpKind
}

// Hop records one lifecycle event of a traced operation: stage at rank
// `at`, moving n bytes. No-op unless the op carries a trace ID.
func (t OpTag) Hop(stage Stage, at int32, n int) {
	if t.Rec == nil || t.ID == 0 {
		return
	}
	t.Rec.ring.record(Event{ID: t.ID, Stage: stage, Kind: t.Kind, At: at, Bytes: int64(n), T: t.Rec.now()})
}

// WireMsg counts one wire message of n payload bytes from rank `from`
// to rank `to` on behalf of this operation. No-op on a zero tag.
func (t OpTag) WireMsg(from, to int32, n int) {
	if t.Rec == nil {
		return
	}
	t.Rec.o.wire(from, to, n)
}

// Landing records the destination-landing edge at rank `at`: rx bytes at
// the landing rank, the inject→landing latency histogram, and (for
// traced ops) the landing event. Callers invoke it at the instant the
// payload is visible at its destination (post-DMA for device memory).
func (t OpTag) Landing(at int32, n int) {
	if t.Rec == nil {
		return
	}
	t.Rec.o.ranks[at].rxBytes[t.Kind].Add(uint64(n))
	now := t.Rec.now()
	t.Rec.histLand.Record(t.Kind, n, now-t.T0)
	if t.ID != 0 {
		t.Rec.ring.record(Event{ID: t.ID, Stage: StageLanding, Kind: t.Kind, At: at, Bytes: int64(n), T: now})
	}
}
