// Package obs is the runtime introspection layer: low-overhead,
// race-clean per-rank counters, op-lifecycle tracing, and latency
// histograms for every operation that crosses the single injection path.
//
// The design splits into three mechanisms with three cost profiles:
//
//   - Counters: one Table per rank, a padded atomic cell per Counter (one
//     cache line each, so two goroutines hammering different counters never
//     false-share). The conduit's traffic counters — operations and bytes,
//     DMA descriptors by kind, frames, ring records, doorbells — are always
//     on: every endpoint owns a table whether or not the job keeps stats.
//     The runtime's — ops injected by kind, completions by {event}×{flavor},
//     progress passes, task counters — are recorded through a RankObs,
//     which holds the same table and is nil when stats are off, so each of
//     those hooks is a pointer-load-and-branch. Counting is one atomic add.
//
//   - Op-lifecycle tracing: a fixed-size per-rank ring buffer of
//     timestamped events. Every operation the single injection path
//     accepts while tracing is armed (a job created with a trace depth)
//     gets a per-rank sequence number as its trace ID, which it carries through the conduit hop chains (OpTag), and each
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
// (internal/gasnet) and the runtime (package upcxx) both record into it,
// and everything user-facing is exposed through Snapshot.
package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// OpKind classifies an injected operation. The first seven values mirror
// the runtime's (package upcxx) lowered op kinds in order (the runtime converts by
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
	// distributed task runtime (package upcxx, task.go). Tasks are not injected
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

// CxEvent mirrors package upcxx's completion events in order.
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

// CxVia mirrors package upcxx's completion delivery flavors in order.
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

var dmaKindNames = [NumDMAKinds]string{"h2d", "d2h", "d2d-direct", "d2d-bounced"}

func (k DMAKind) String() string {
	if k < NumDMAKinds {
		return dmaKindNames[k]
	}
	return "dma?"
}

// TaskStat indexes one counter of the distributed task runtime (package
// upcxx, task.go). Spawned counts at the spawning rank, Executed at the
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

// Counter indexes one cell of a rank's counter Table. A counter is its
// constant below and its name in counterNames ("group.key": the snapshot's
// JSON key, and Fprint's line and label); the kind-indexed families follow
// the scalars. Snapshot, Merge, Delta, JSON and Fprint loop over the table.
type Counter uint8

const (
	// Conduit traffic (internal/gasnet), always on — the Endpoint.Stats view:
	// operations this rank injected and their payload bytes (copies count as
	// puts; an AMO moves 8 bytes and counts none).
	Puts Counter = iota
	PutBytes
	Gets
	GetBytes
	AMs
	AMBytes
	AMOs
	// Transport (the wire backend), always on — the ConduitInfo view: socket
	// frames each way (doorbells included, counted where they join a send
	// queue) and their bytes with length prefixes; shm ring records, fRing
	// frames sent, frames too large for a record; injectors' waits on a full
	// socket queue and waits on a full ring the backstop timer ended.
	FramesOut
	FramesIn
	BytesOut
	BytesIn
	RingRecords
	RingDoorbells
	SocketFallbacks
	SendStalls
	RingTimeouts
	// Runtime progress (Config.Stats): user-level passes, the subset that
	// processed nothing, idle yields (a wait polled on instead of parking) and
	// those that also gave the CPU to the OS (between processes), doorbell
	// wake-ups (a park Ring ended, not its timeout), and doorbell
	// deposits (a Ring that found the slot empty: per batch, not per op).
	ProgressPasses
	EmptyPasses
	IdleYields
	OSYields
	Wakeups
	DoorbellRings
	// Fused reduction folds (Config.Stats): device kernel launches that
	// folded a tree round's landed children at once, and those children.
	FusedFolds
	FusedChildren
	// dmaBase starts the families: device copy-engine descriptors executed
	// by this rank's engine and their bytes, by DMAKind (always on); ops
	// injected and their payload bytes, tx at the initiator and rx where
	// they land, by OpKind; completions by CxEvent × CxVia; task-runtime
	// counters by TaskStat (Config.Stats).
	dmaBase
)

const (
	dmaBytesBase = dmaBase + Counter(NumDMAKinds)
	opsBase      = dmaBytesBase + Counter(NumDMAKinds)
	txBase       = opsBase + Counter(NumOpKinds)
	rxBase       = txBase + Counter(NumOpKinds)
	cxBase       = rxBase + Counter(NumOpKinds)
	taskBase     = cxBase + Counter(NumCxEvents)*Counter(NumCxVias)
	NumCounters  = taskBase + Counter(NumTaskStats)
)

// Descriptors and Bytes index kind k's DMA descriptors and their bytes.
func (k DMAKind) Descriptors() Counter { return dmaBase + Counter(k) }
func (k DMAKind) Bytes() Counter       { return dmaBytesBase + Counter(k) }

// Ops, TxBytes and RxBytes index kind k's injected ops and payload bytes.
func (k OpKind) Ops() Counter     { return opsBase + Counter(k) }
func (k OpKind) TxBytes() Counter { return txBase + Counter(k) }
func (k OpKind) RxBytes() Counter { return rxBase + Counter(k) }

// Via indexes the completions of event e delivered via v.
func (e CxEvent) Via(v CxVia) Counter { return cxBase + Counter(e)*Counter(NumCxVias) + Counter(v) }

// Counter indexes task-runtime stat s.
func (s TaskStat) Counter() Counter { return taskBase + Counter(s) }

var counterNames = func() [NumCounters]string {
	n := [NumCounters]string{
		Puts: "conduit.puts", PutBytes: "conduit.put_bytes", Gets: "conduit.gets", GetBytes: "conduit.get_bytes",
		AMs: "conduit.ams", AMBytes: "conduit.am_bytes", AMOs: "conduit.amos",
		FramesOut: "wire.frames_out", FramesIn: "wire.frames_in", BytesOut: "wire.bytes_out", BytesIn: "wire.bytes_in",
		RingRecords: "wire.ring_records", RingDoorbells: "wire.ring_doorbells", SocketFallbacks: "wire.socket_fallbacks",
		SendStalls: "wire.send_stalls", RingTimeouts: "wire.ring_timeouts",
		ProgressPasses: "progress.passes", EmptyPasses: "progress.empty", IdleYields: "progress.yields",
		OSYields: "progress.os_yields", Wakeups: "progress.wakeups", DoorbellRings: "progress.rings",
		FusedFolds: "fused.folds", FusedChildren: "fused.children",
	}
	for k := range NumDMAKinds {
		n[k.Descriptors()], n[k.Bytes()] = "dma."+k.String(), "dma_bytes."+k.String()
	}
	for k := range NumOpKinds {
		n[k.Ops()], n[k.TxBytes()], n[k.RxBytes()] = "ops."+k.String(), "tx_bytes."+k.String(), "rx_bytes."+k.String()
	}
	for e := range NumCxEvents {
		for v := range NumCxVias {
			n[e.Via(v)] = "cx." + e.String() + "_" + v.String()
		}
	}
	for s := range NumTaskStats {
		n[s.Counter()] = "task." + s.String()
	}
	return n
}()

// String returns the counter's "group.key" name.
func (c Counter) String() string {
	if c < NumCounters {
		return counterNames[c]
	}
	return "counter?"
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

// Table is one rank's counters, a padded cell per Counter. The rank's
// endpoint owns it; a RankObs records into the same one.
type Table [NumCounters]Count

// Add adds n to counter c.
func (t *Table) Add(c Counter, n uint64) { t[c].v.Add(n) }

// Load returns counter c.
func (t *Table) Load(c Counter) uint64 { return t[c].v.Load() }

// Values copies the table.
func (t *Table) Values() (v Values) {
	for c := range t {
		v[c] = t[c].v.Load()
	}
	return v
}

// PersonaCount is the LPC accounting of every persona of one name on a
// rank (a default persona per goroutine shares the "default" pair).
type PersonaCount struct {
	Name string
	Enq  Count // LPCs enqueued onto these personas
	Exec Count // LPCs executed by their drains
}

// Options configures a job's recorder.
type Options struct {
	// TraceDepth is the per-rank trace ring capacity in events: tracing is
	// armed exactly when it is > 0, and records every operation and task.
	TraceDepth int
}

// DefaultTraceDepth is the ring capacity a job uses when tracing is asked
// for without an explicit depth (UPCXX_TRACE=1).
const DefaultTraceDepth = 1024

// Obs is one job's recorder: a RankObs per rank sharing one epoch.
type Obs struct {
	epoch time.Time
	ranks []*RankObs
}

// New creates a recorder for a job of n ranks.
func New(n int, o Options) *Obs {
	ob := &Obs{epoch: time.Now()}
	ob.ranks = make([]*RankObs, n)
	for r := range ob.ranks {
		ro := &RankObs{o: ob, rank: int32(r)}
		if o.TraceDepth > 0 {
			ro.ring = newRing(o.TraceDepth)
		}
		ro.wireTxMsgs = make([]Count, n)
		ro.wireTxBytes = make([]Count, n)
		ro.wireRxMsgs = make([]Count, n)
		ro.wireRxBytes = make([]Count, n)
		ob.ranks[r] = ro
	}
	return ob
}

// Rank returns rank r's recorder.
func (ob *Obs) Rank(r int) *RankObs { return ob.ranks[r] }

// Ranks returns the job size.
func (ob *Obs) Ranks() int { return len(ob.ranks) }

// RankObs records everything one rank observes. All mutation is atomic
// (counters, histograms) or mutex-guarded (trace ring, persona
// registry): concurrent recording from any number of goroutines is
// race-clean by construction.
type RankObs struct {
	// Table is the rank's counters; the rank's endpoint records its
	// always-on traffic counters into it too.
	Table

	o    *Obs
	rank int32

	// Wire messages and payload bytes by peer, both directions.
	wireTxMsgs  []Count
	wireTxBytes []Count
	wireRxMsgs  []Count
	wireRxBytes []Count

	// Latency histograms: inject→operation-complete and
	// inject→remote-landing, by kind × size class.
	histDone Hist
	histLand Hist

	// Op-lifecycle trace: nil ring = tracing off.
	seq  atomic.Uint64
	ring *ring

	pmu      sync.Mutex
	personas []*PersonaCount // one per persona name, in first-use order
}

// Persona returns the LPC counter pair of the personas named name,
// registering it on first use. The registry is keyed by name, so it stays
// as small as the set of names however many goroutines bind a default
// persona.
func (ro *RankObs) Persona(name string) *PersonaCount {
	ro.pmu.Lock()
	defer ro.pmu.Unlock()
	for _, pc := range ro.personas {
		if pc.Name == name {
			return pc
		}
	}
	pc := &PersonaCount{Name: name}
	ro.personas = append(ro.personas, pc)
	return pc
}

// TaskStart accounts one task spawned at this rank and, while tracing is
// armed, records the spawn event and returns the nonzero trace ID that rides the task's descriptor through
// enqueue/steal/execute/complete hops (the enqueue hop has the argument's
// size: a spawn marshals it straight into its message). Task trace IDs share
// the rank's op sequence space: no collision with a traced operation's timeline.
func (ro *RankObs) TaskStart() uint64 {
	ro.Add(TaskSpawned.Counter(), 1)
	if ro.ring != nil {
		seq := ro.seq.Add(1)
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
	if hro.ring == nil {
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

// now returns nanoseconds since the job epoch.
func (ro *RankObs) now() int64 { return int64(time.Since(ro.o.epoch)) }

// OpStart accounts one operation of kind k with n payload bytes handed
// to the conduit, and returns the tag that rides its hop chain: T0 for
// latency histograms always, a nonzero ID when tracing is armed (the inject
// event is recorded here).
func (ro *RankObs) OpStart(k OpKind, n int) OpTag {
	ro.Add(k.Ops(), 1)
	ro.Add(k.TxBytes(), uint64(n))
	tag := OpTag{Rec: ro, T0: ro.now(), Kind: k}
	if ro.ring != nil {
		tag.ID = ro.seq.Add(1)
		ro.ring.record(Event{ID: tag.ID, Stage: StageInject, Kind: k, At: ro.rank, Bytes: int64(n), T: tag.T0})
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
	t.Rec.o.ranks[at].Add(t.Kind.RxBytes(), uint64(n))
	now := t.Rec.now()
	t.Rec.histLand.Record(t.Kind, n, now-t.T0)
	if t.ID != 0 {
		t.Rec.ring.record(Event{ID: t.ID, Stage: StageLanding, Kind: t.Kind, At: at, Bytes: int64(n), T: now})
	}
}
