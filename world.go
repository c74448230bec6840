package upcxx

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"upcxx/internal/gasnet"
	"upcxx/internal/obs"
)

// Intrank identifies a process within a job or team, mirroring
// upcxx::intrank_t: the conduit's rank, so it passes to the conduit as is.
type Intrank = gasnet.Rank

// Config describes a job.
type Config struct {
	// Ranks is the number of SPMD processes.
	Ranks int
	// RanksPerNode controls the simulated node boundary for the timing
	// model; 0 places all ranks on one node.
	RanksPerNode int
	// SegmentSize is the per-rank shared segment in bytes (0: 8 MiB).
	SegmentSize int
	// Model is the conduit timing model (nil: zero-delay), charged in model
	// time: Rank.Clock reads what the rank has spent.
	Model *gasnet.LogGP
	// DMA is the device copy-engine timing model used for transfers
	// touching device-kind memory (see NewDeviceAllocator). nil means
	// PCIe3 when Model is set and zero cost otherwise; &gasnet.PCIeDMA{GDR:
	// true} is a zero-cost GPUDirect engine.
	DMA *gasnet.PCIeDMA
	// WaitTimeout bounds any single Future.Wait or Quiesce as a deadlock
	// backstop (0: 60s).
	WaitTimeout time.Duration
	// ProgressThread starts one dedicated progress goroutine per rank.
	// The progress thread drives the conduit (internal progress and
	// incoming RPC execution) so ranks stay attentive while their user
	// goroutines compute, and multiple user goroutines can share one
	// rank: each goroutine's completions are delivered to its own
	// persona and drained by its own Progress/Wait calls. The
	// collectives engine advances on the progress persona in this mode,
	// so collectives make headway even while every user goroutine of a
	// rank computes.
	ProgressThread bool
	// CollRadix selects the collective tree topology: 0 (the default)
	// auto-tunes the radix from the machine model when Config.Model is set
	// (AutoRadix picks the k-nomial radix whose modeled o/g/L
	// tree-completion time is lowest for this job size) and otherwise
	// uses a binomial tree (radix 2); k >= 2 forces a
	// k-nomial tree of that radix, and 1 the flat tree (the root
	// exchanges with every member directly). Teams of at most 4 ranks
	// always use the flat tree. All ranks share one Config, so the
	// shapes agree job-wide.
	CollRadix int
	// Stats enables the runtime introspection layer (internal/obs):
	// per-rank counters, latency histograms, and the op-lifecycle trace
	// ring. Disabled (the default), every instrumentation point is a nil
	// pointer check. Env fallback: UPCXX_STATS=1.
	Stats bool
	// TraceDepth, when > 0, arms op-lifecycle tracing for the whole job
	// with a per-rank ring of this many events (implies Stats); 0 leaves
	// tracing off. Env fallback: UPCXX_TRACE=<depth> (UPCXX_TRACE=1 uses
	// the default depth).
	TraceDepth int
}

// envObsConfig fills unset observability knobs from the environment, the
// way UPCXX_* variables configure the C++ runtime.
func (cfg *Config) envObsConfig() {
	if !cfg.Stats {
		switch strings.ToLower(os.Getenv("UPCXX_STATS")) {
		case "1", "true", "yes", "on":
			cfg.Stats = true
		}
	}
	if cfg.TraceDepth == 0 {
		if v := os.Getenv("UPCXX_TRACE"); v != "" {
			if d, err := strconv.Atoi(v); err == nil && d > 0 {
				cfg.TraceDepth = d
			} else if strings.EqualFold(v, "on") || strings.EqualFold(v, "true") {
				cfg.TraceDepth = 1
			}
		}
	}
	if cfg.TraceDepth == 1 {
		cfg.TraceDepth = obs.DefaultTraceDepth
	}
	if cfg.TraceDepth > 0 {
		cfg.Stats = true
	}
}

// World is one UPC++ job: a fixed set of ranks over one conduit instance.
// Several worlds may coexist in a process (used heavily by tests).
type World struct {
	cfg Config
	net *gasnet.Network
	obs *obs.Obs // nil unless Config.Stats

	amRPC gasnet.HandlerID // handleRPC: the one AM handler, every message the runtime sends (rpc.go)

	ranks []*Rank

	// dist marks a multi-process world: this OS process hosts exactly one
	// rank (self); the others live in sibling processes reached over the
	// real conduit (see proc.go). ranks[r] is nil for every r != self.
	dist bool
	self Intrank

	ptStop chan struct{}
	ptWG   sync.WaitGroup
	closed atomic.Bool

	failErr atomic.Pointer[error] // first failPeer error (see failed)
}

// NewWorld creates a job with cfg.Ranks ranks. The caller must Close it.
func NewWorld(cfg Config) *World {
	if cfg.Ranks <= 0 {
		panic("upcxx: Config.Ranks must be positive")
	}
	if cfg.CollRadix == 0 && cfg.Model != nil {
		cfg.CollRadix = AutoRadix(cfg.Model, cfg.Ranks)
	}
	return newWorld(&World{cfg: cfg}, gasnet.Config{RanksPerNode: cfg.RanksPerNode, Model: cfg.Model})
}

// newWorld finishes w for both constructors: the configuration's defaults,
// the observability layer, the conduit (net, completed from the
// configuration), the one AM handler, the ranks this process hosts — all
// of them, or only self in a multi-process world — and their progress
// threads.
func newWorld(w *World, net gasnet.Config) *World {
	cfg := &w.cfg
	if cfg.WaitTimeout == 0 {
		cfg.WaitTimeout = 60 * time.Second
	}
	cfg.envObsConfig()
	if cfg.Stats {
		w.obs = obs.New(cfg.Ranks, obs.Options{TraceDepth: cfg.TraceDepth})
	}
	net.Ranks, net.SegmentSize, net.DMA, net.Obs = cfg.Ranks, cfg.SegmentSize, cfg.DMA, w.obs
	w.net = gasnet.NewNetwork(net)
	w.amRPC = w.net.RegisterAM(w.handleRPC)
	w.ranks = make([]*Rank, cfg.Ranks)
	for r := range w.ranks {
		if !w.dist || Intrank(r) == w.self {
			w.ranks[r] = w.newRank(Intrank(r))
		}
	}
	if cfg.ProgressThread {
		w.ptStop = make(chan struct{})
		for _, rk := range w.ranks {
			if rk != nil {
				w.ptWG.Add(1)
				go rk.progressLoop(w.ptStop, &w.ptWG)
			}
		}
	}
	return w
}

// newRank builds the runtime object of rank r over w's conduit (every rank
// of an in-process world; the one local rank of a multi-process world).
func (w *World) newRank(r Intrank) *Rank {
	rk := &Rank{
		w:          w,
		ep:         w.net.Endpoint(r),
		me:         r,
		n:          Intrank(w.cfg.Ranks),
		rpcPending: make(map[uint64]rpcPending),
		splitSeqs:  make(map[uint64]uint64),
		distObjs:   make(map[uint64]any),
		distWaits:  make(map[uint64][]distWaiter),
	}
	if w.obs != nil {
		rk.ro = w.obs.Rank(int(r))
	}
	rk.done = Future[Unit]{c: &cell{rk: rk, ready: true, inline: true}}
	rk.coll = newCollEngine(rk, w.cfg.CollRadix)
	rk.master = NewPersona(rk, "master")
	rk.progressP = NewPersona(rk, "progress")
	rk.worldTeam = newWorldTeam(rk)
	return rk
}

// Ranks returns the job size.
func (w *World) Ranks() int { return w.cfg.Ranks }

// Rank returns the runtime object for rank r (mostly for tests; SPMD code
// receives its Rank from Run).
func (w *World) Rank(r Intrank) *Rank { return w.ranks[r] }

// Network exposes the underlying conduit (for stats and tooling).
func (w *World) Network() *gasnet.Network { return w.net }

// StatsEnabled reports whether the introspection layer is recording.
func (w *World) StatsEnabled() bool { return w.obs != nil }

// StatsAll snapshots every rank this process hosts: each rank of an
// in-process world, the one local rank of a multi-process world.
func (w *World) StatsAll() []obs.Snapshot {
	var out []obs.Snapshot
	for _, rk := range w.ranks {
		if rk != nil {
			out = append(out, rk.Stats())
		}
	}
	return out
}

// StatsMerged merges StatsAll into one view (counters and histogram cells
// sum; traces concatenate).
func (w *World) StatsMerged() obs.Snapshot { return obs.Merged(w.StatsAll()) }

// Stats snapshots this rank's counter table — the conduit's traffic
// counters always, the runtime's under Config.Stats — and, under
// Config.Stats, its latency histograms and (under Config.TraceDepth) the
// buffered op-lifecycle events.
func (rk *Rank) Stats() obs.Snapshot {
	if rk.ro == nil {
		return obs.Snapshot{Rank: rk.me, Ranks: 1, Counters: rk.ep.Counters().Values()}
	}
	return rk.ro.Snapshot()
}

// StatsEnabled reports whether the introspection layer is recording.
func (rk *Rank) StatsEnabled() bool { return rk.ro != nil }

// Dist reports whether this world is one rank of a multi-process job
// over a real transport backend (RPC bodies must then be registered —
// see RegisterRPC).
func (w *World) Dist() bool { return w.dist }

// failed reports the job's peer-failure state: non-nil (wrapping
// gasnet.ErrPeerLost) once a sibling rank process died mid-job or sent
// this rank a message it could not act on. Progress waits check it so a
// lost peer surfaces as a panic instead of a hang.
func (w *World) failed() error {
	if e := w.failErr.Load(); e != nil {
		return *e
	}
	return w.net.Failed()
}

// failPeer gives up on peer after it sent this rank a message the runtime
// cannot act on — the handler-level counterpart of the conduit failing a
// peer whose frame or aux token does not decode.
func (rk *Rank) failPeer(peer Intrank, err error) {
	err = fmt.Errorf("%w: rank %d: %v", gasnet.ErrPeerLost, peer, err)
	rk.w.failErr.CompareAndSwap(nil, &err)
	rk.ep.Ring() // wake parked waiters so they observe the failure
}

// Failed reports whether a peer rank has been lost: its process died
// (multi-process worlds), or it sent a message this rank had to refuse.
// The error wraps gasnet.ErrPeerLost.
func (w *World) Failed() error { return w.failed() }

// Close shuts down the progress threads and the conduit. The job must
// have quiesced.
func (w *World) Close() {
	if w.closed.Swap(true) {
		return
	}
	if w.ptStop != nil {
		close(w.ptStop)
		w.ptWG.Wait()
	}
	w.net.Close()
}

// Run executes fn as an SPMD epoch: one goroutine per rank, returning when
// every rank's fn has returned and a final barrier has completed (the
// implicit barrier of upcxx::finalize). Run may be called repeatedly on
// one world; rank state (segments, teams, distributed objects) persists
// across epochs. Each epoch goroutine holds its rank's master persona for
// the duration of fn.
func (w *World) Run(fn func(rk *Rank)) {
	if w.dist {
		// One process, one rank: the SPMD fan-out happened at the OS level
		// (upcxx-run / SpawnSelf); the epoch body runs on this goroutine.
		rk := w.ranks[w.self]
		sc := AcquirePersona(rk.master)
		defer sc.Release()
		fn(rk)
		rk.Barrier()
		return
	}
	var wg sync.WaitGroup
	wg.Add(len(w.ranks))
	for _, rk := range w.ranks {
		rk := rk
		go func() {
			defer wg.Done()
			sc := AcquirePersona(rk.master)
			defer sc.Release()
			fn(rk)
			rk.Barrier()
		}()
	}
	wg.Wait()
}

// Run executes fn on a fresh n-rank zero-delay world and tears it down —
// the common entry point: upcxx.Run(4, func(rk *upcxx.Rank) { ... }).
func Run(n int, fn func(rk *Rank)) {
	RunConfig(Config{Ranks: n}, fn)
}

// RunConfig is Run with an explicit configuration. With UPCXX_CONDUIT
// set to a real backend (tcp, shm) the in-process fan-out is replaced by
// OS processes: the first RunConfig of a parent process re-executes the
// binary once per rank and exits with the job's aggregate status, while
// each spawned rank runs the whole program with every RunConfig bound to
// its one rank — the SPMD model at the process level.
func RunConfig(cfg Config, fn func(rk *Rank)) {
	if DistActive() {
		if !distWorker() {
			os.Exit(SpawnSelf(cfg.Ranks))
		}
		w := NewWorldDist(cfg)
		defer w.Close()
		w.Run(fn)
		return
	}
	w := NewWorld(cfg)
	defer w.Close()
	w.Run(fn)
}

// Rank is one process's runtime: its view of the world, its shared
// segment, and its progress engine. Communication may be initiated from
// any goroutine; the initiating goroutine's current persona (see
// persona.go) receives the completion, and futures must only be touched
// from the goroutine holding their owning persona.
//
// The progress engine keeps two of the paper's three conceptual queues
// (§III): the conduit's in-flight set is actQ (tracked by actCount), and the
// endpoint's completion queue plus the per-persona LPC queues play the role of
// compQ — completed operations' user-visible actions, drained only by
// user-level progress of the owning persona. The third, the queue of
// operations not yet handed to the conduit, is empty once the initiating call
// returns: inject hands an operation over on the goroutine that starts it.
type Rank struct {
	w  *World
	ep *gasnet.Endpoint
	me Intrank
	n  Intrank
	ro *obs.RankObs // this rank's observability recorder; nil = disabled

	actCount atomic.Int64 // operations handed to the conduit, incomplete

	// done is the rank's one ready future, shared and never written: what an
	// as_future descriptor of the initiating persona returns when its event
	// fired inside the call (cxPlan.settle). Every ready future points at its cell.
	done Future[Unit]

	master    *Persona // held by the SPMD goroutine during Run
	progressP *Persona // held by the progress goroutine (ProgressThread mode)

	rpcSeq     atomic.Uint64 // the last sequence number drawn (rpcSend)
	rpcMu      sync.Mutex
	rpcPending map[uint64]rpcPending

	coll *collEngine // per-rank collectives engine (coll.go)

	// teamMu guards the split counters: Split runs on the calling
	// goroutine (any persona may initiate collectives), so the map
	// needs its own exclusion — the engine handoff only covers the
	// engine's state.
	teamMu    sync.Mutex
	splitSeqs map[uint64]uint64 // per-team split counters
	worldTeam *Team

	distMu    sync.Mutex
	distSeq   uint64
	distObjs  map[uint64]any
	distWaits map[uint64][]distWaiter

	tasks atomic.Pointer[TaskRuntime] // NewTaskRuntime's, until Stop (task.go)

	worked   atomic.Uint64 // progress passes that found work (re-arms in-process idlers, idle.go)
	pollIdle idler         // ProgressWait's place in the idle rule, across calls and callers
	idlers   atomic.Int32  // goroutines inside idle: waiters a bare Progress loop must let run
	stillAt  atomic.Int64  // the model clock of the last empty Progress pass (stillPass)
	stills   atomic.Int32  // empty Progress passes in a row at that clock
}

// Me returns this process's world rank.
func (rk *Rank) Me() Intrank { return rk.me }

// N returns the job size.
func (rk *Rank) N() Intrank { return rk.n }

// World returns the owning world.
func (rk *Rank) World() *World { return rk.w }

// Clock returns the rank's model clock under a timing model (Config.Model):
// the model time the rank has spent, which is what the figure tools time.
// Always 0 on a zero-delay or process conduit.
func (rk *Rank) Clock() time.Duration { return rk.ep.Clock() }

// InternalProgress advances runtime bookkeeping without executing user
// callbacks or incoming RPCs: conduit completions are harvested (actQ →
// persona LPC queues). Every communication call performs this implicitly.
func (rk *Rank) InternalProgress() { rk.ep.PollCompletions() }

// Progress performs user-level progress: internal progress, then draining
// the LPC queues of every persona this goroutine holds for the rank
// (satisfying futures and running their callbacks) and executing incoming
// RPCs. It returns the number of user-level items processed. Progress
// from inside a callback or RPC body is a no-op (restricted context).
// It does not park, and yields only after a pass that found nothing while another
// goroutine of the rank sits in the idle rule: a master polling on one P would hold it.
// Under a timing model, empty passes at a clock that stands still are a wait
// (stillPass): a bare Progress loop reaches what it waits for.
func (rk *Rank) Progress() int {
	n := rk.progressWith(curState())
	if n == 0 {
		if rk.idlers.Load() > 0 {
			runtime.Gosched()
		}
		if rk.w.cfg.Model != nil {
			rk.stillPass()
		}
	}
	return n
}

// ProgressWait runs one user-level progress pass and, when it finds no
// work, idles by the idle rule (idle.go): it yields while the rank's spin
// budget lasts and then parks in the conduit's notified wait for up to d (a
// delivery, an LPC or a failure wakes the rank early). Poll loops — waiting
// on a signaling put's arrival counter, say — should prefer this over bare
// Progress+Gosched spinning: on an oversubscribed host a spin loop can burn
// whole scheduler quanta before a sibling rank process ever runs.
func (rk *Rank) ProgressWait(d time.Duration) int {
	n := rk.progressWith(curState())
	if n == 0 {
		rk.idle(&rk.pollIdle, d)
	}
	return n
}

// progressWith is Progress with the goroutine's persona state already
// resolved; spin loops (Future.Wait) hoist the lookup out of their
// iterations.
func (rk *Rank) progressWith(gs *goroutineState) int {
	rk.InternalProgress()
	if gs.restricted {
		return 0
	}
	gs.restricted = true
	// Cleared via defer: a panicking (and recovered) callback or RPC
	// body must not leave the goroutine restricted forever.
	defer func() { gs.restricted = false }()
	done := rk.drainPersonas(gs)
	done += rk.ep.PollAMs()
	// AM handlers deliver through persona LPCs (routed RPC results, queued
	// bodies); drain again so completions land in the same call.
	done += rk.drainPersonas(gs)
	if done > 0 {
		rk.worked.Add(1)
	}
	if rk.ro != nil {
		rk.ro.Add(obs.ProgressPasses, 1)
		if done == 0 {
			rk.ro.Add(obs.EmptyPasses, 1)
		}
	}
	return done
}

// Discharge returns once every locally-initiated operation has been handed
// to the conduit — cf. upcxx::discharge. The initiating call hands it over
// before it returns, so there is nothing to wait for.
func (rk *Rank) Discharge() {}

// PendingOps returns the number of operations in the active state (handed
// to the conduit, completion not yet observed). Exposed for tests and
// diagnostics.
func (rk *Rank) PendingOps() int { return int(rk.actCount.Load()) }

// Quiesce drives progress until this rank has no operations in flight:
// actQ empty and this goroutine's persona queues drained. It waits as
// Future.Wait does, so it too gives up with a panic after Config.WaitTimeout.
// It does not wait for other ranks (combine with Barrier for a job-wide
// quiescence point).
func (rk *Rank) Quiesce() {
	gs := curState()
	rk.waitUntil(gs, "Quiesce", func() bool { return rk.actCount.Load() == 0 && rk.pendingLPCs(gs) == 0 })
}

// pendingLPCs counts undelivered LPCs across the personas this goroutine
// holds for the rank.
func (rk *Rank) pendingLPCs(gs *goroutineState) int {
	n := 0
	rk.forEachHeldPersona(gs, func(p *Persona) { n += p.PendingLPCs() })
	return n
}

// progressLoop is the dedicated progress thread: it continuously drives
// internal progress and incoming-RPC execution on its own persona, so
// the rank stays attentive while user goroutines compute or block. It
// idles like every other waiter (idle.go).
func (rk *Rank) progressLoop(stop <-chan struct{}, wg *sync.WaitGroup) {
	defer wg.Done()
	sc := AcquirePersona(rk.progressP)
	defer sc.Release()
	gs := curState()
	id := idler{thread: true}
	for {
		select {
		case <-stop:
			return
		default:
		}
		if rk.progressWith(gs) == 0 {
			rk.idle(&id, idlePark)
		}
	}
}

func (rk *Rank) String() string {
	return fmt.Sprintf("rank %d/%d", rk.me, rk.n)
}
