// Package dht implements the paper's first application motif (§IV-C): a
// distributed hash table whose insert operation composes RPC with
// one-sided RMA. Each rank owns a local map; a key's home rank is chosen
// by hash. Two variants are provided, exactly as the paper describes:
//
//   - RPCOnly: the value rides inside the insert RPC and the target stores
//     it in its local map — simple, one message, best for small values.
//   - LandingZone: the insert RPC carries only the key and size; the
//     target allocates a landing zone in its shared segment (make_lz) and
//     returns its global pointer, and the initiator then rputs the value
//     with zero-copy RMA — the paper's optimization for larger values.
//
// All operations are fully asynchronous and return futures; the
// latency-limited workload of Fig 4 blocks on each insert.
package dht

import (
	"fmt"
	"reflect"
	"runtime"
	"sync"

	"upcxx"
)

// Mode selects the insert/find wire strategy.
type Mode int

const (
	// RPCOnly ships values inside RPCs.
	RPCOnly Mode = iota
	// LandingZone ships values with RMA into RPC-allocated landing zones.
	// The zone is published when it is allocated, before the data lands —
	// the paper's original recipe, which leaves a window where Find
	// returns a zone whose bytes are still in flight.
	LandingZone
	// SignalingPut is LandingZone with remote completion: the zone is
	// allocated by RPC but *published* by a remote_cx::as_rpc notification
	// that piggybacks on the value's rput, firing at the home rank only
	// after the bytes are visible there. Publication is race-free and the
	// follow-up publish round trip the put+RPC idiom would need is gone —
	// the notification costs no extra wire message.
	SignalingPut
)

func (m Mode) String() string {
	switch m {
	case RPCOnly:
		return "rpc-only"
	case LandingZone:
		return "landing-zone"
	case SignalingPut:
		return "signaling-put"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// lz is a landing zone: a global pointer to value bytes plus their length
// (the paper's lz_t).
type lz struct {
	Ptr upcxx.GPtr[uint8]
	Len int64
}

// DHT is one rank's handle on the distributed hash table. Construction is
// collective (every rank must call New in matching order).
type DHT struct {
	rk   *upcxx.Rank
	mode Mode
	id   upcxx.DistID

	localVal map[uint64][]byte // RPCOnly storage
	localLZ  map[uint64]lz     // LandingZone storage
}

// New collectively creates a distributed hash table.
func New(rk *upcxx.Rank, mode Mode) *DHT {
	d := &DHT{
		rk:       rk,
		mode:     mode,
		localVal: make(map[uint64][]byte),
		localLZ:  make(map[uint64]lz),
	}
	obj := upcxx.NewDistObject(rk, d)
	d.id = obj.ID()
	return d
}

// Target returns the home rank of a key (the paper's get_target hash).
func (d *DHT) Target(key uint64) upcxx.Intrank {
	// Fibonacci hashing for a well-spread assignment of sequential keys.
	h := key * 0x9e3779b97f4a7c15
	return upcxx.Intrank(h % uint64(d.rk.N()))
}

// lookup binds the DistID to the target rank's DHT instance inside RPC
// bodies.
func lookup(trk *upcxx.Rank, id upcxx.DistID) *DHT {
	obj, ok := upcxx.LookupDist[*DHT](trk, id)
	if !ok {
		panic(fmt.Sprintf("dht: rank %d has no table with id %d", trk.Me(), id))
	}
	return *obj.Value()
}

type insertArgs struct {
	ID  upcxx.DistID
	Key uint64
	Val upcxx.View[uint8]
}

type lzArgs struct {
	ID  upcxx.DistID
	Key uint64
	Len int64
}

// Insert stores (key, val) in the table, returning a future that readies
// when the value is globally visible at the home rank. val is captured at
// call time.
func (d *DHT) Insert(key uint64, val []byte) upcxx.Future[upcxx.Unit] {
	target := d.Target(key)
	switch d.mode {
	case RPCOnly:
		// One RPC carrying the value; the view serializes it into the
		// message and the body copies it into the local map. The value
		// future is the reply landing — the insert is globally visible.
		f, _ := upcxx.RPCWith(d.rk, target, storeRPC,
			insertArgs{ID: d.id, Key: key, Val: upcxx.MakeView(val)})
		return f
	case LandingZone:
		// RPC of make_lz to obtain the landing zone, then a zero-copy
		// rput chained with .then — the paper's Fig in §IV-C verbatim.
		valCopy := val
		f := upcxx.RPC(d.rk, target, makeLZRPC,
			lzArgs{ID: d.id, Key: key, Len: int64(len(val))})
		return upcxx.ThenFut(f, func(dest upcxx.GPtr[uint8]) upcxx.Future[upcxx.Unit] {
			return upcxx.RPut(d.rk, valCopy, dest)
		})
	case SignalingPut:
		// RPC allocates the zone without publishing it; the rput carries a
		// remote-completion RPC that publishes (key → zone) at the home
		// rank once the bytes are visible — a signaling put in place of a
		// publish round trip.
		valCopy := val
		f := upcxx.RPC(d.rk, target, allocLZRPC,
			lzArgs{ID: d.id, Key: key, Len: int64(len(val))})
		return upcxx.ThenFut(f, func(dest upcxx.GPtr[uint8]) upcxx.Future[upcxx.Unit] {
			pub := publishArgs{ID: d.id, Key: key, Zone: lz{Ptr: dest, Len: int64(len(valCopy))}}
			return upcxx.RPutWith(d.rk, valCopy, dest,
				upcxx.OpCxAsFuture(),
				upcxx.RemoteCxAsRPC(publishLZ, pub)).Op
		})
	default:
		panic("dht: unknown mode")
	}
}

// makeLZRPC is the LandingZone insert body: allocate and publish the
// landing zone, returning its global pointer for the follow-up rput.
func makeLZRPC(trk *upcxx.Rank, a lzArgs) upcxx.GPtr[uint8] {
	return lookup(trk, a.ID).makeLZ(trk, a.Key, int(a.Len))
}

// allocLZRPC is the SignalingPut insert body: allocate without
// publishing (publishLZ publishes at remote completion).
func allocLZRPC(trk *upcxx.Rank, a lzArgs) upcxx.GPtr[uint8] {
	return lookup(trk, a.ID).allocLZ(trk, int(a.Len))
}

// Every RPC body crossing rank boundaries is registered by name so the
// table works identically over the in-process conduit and the real
// multi-process backends (tcp, shm).
func init() {
	upcxx.RegisterRPC(storeRPC)
	upcxx.RegisterRPC(makeLZRPC)
	upcxx.RegisterRPC(allocLZRPC)
	upcxx.RegisterRPC(findValRPC)
	upcxx.RegisterRPC(findLZRPC)
	upcxx.RegisterRPC(eraseRPC)
	upcxx.RegisterRPC(mutateNamedRPC)
	upcxx.RegisterRPCFF(publishLZ)
}

// storeRPC is the RPCOnly insert body: copy the viewed value into the
// home rank's local map. A named function so every insert variant ships
// the same code reference.
func storeRPC(trk *upcxx.Rank, a insertArgs) upcxx.Unit {
	t := lookup(trk, a.ID)
	t.localVal[a.Key] = a.Val.CopyOut()
	return upcxx.Unit{}
}

// InsertAsync pipelines an RPCOnly insert using the unified completion
// vocabulary (the DHT hot-loop idiom): the returned future is the
// *source* completion — it readies as soon as the conduit has captured
// the argument serialization, at which point val's backing buffer may be
// reused for the next insert — while the insert's operation completion
// (the reply landing: value globally visible at the home rank) is
// registered on done. Issue many inserts against one promise and wait its
// single future, exactly like the paper's flood-bandwidth puts, with no
// per-insert round-trip wait in the loop.
func (d *DHT) InsertAsync(key uint64, val []byte, done *upcxx.Promise[upcxx.Unit]) upcxx.Future[upcxx.Unit] {
	if d.mode != RPCOnly {
		panic("dht: InsertAsync requires RPCOnly mode (values travel inside the RPC)")
	}
	_, fs := upcxx.RPCWith(d.rk, d.Target(key), storeRPC,
		insertArgs{ID: d.id, Key: key, Val: upcxx.MakeView(val)},
		upcxx.SourceCxAsFuture(),
		upcxx.OpCxAsPromise(done))
	return fs.Source
}

// BatchInserter coalesces RPCOnly inserts per home rank: each insert
// accumulates into the target rank's batch with zero conduit
// interaction, and FlushAll ships every non-empty batch as one wire
// message (upcxx.Batch). The per-insert argument views borrow the caller's
// value buffers — a buffer may be reused only after the FlushAll that
// ships its insert — and every flushed insert's operation completion
// (value globally visible at its home rank) accumulates on the promise
// handed to FlushAll, the flood idiom of InsertAsync amortized over
// batch-sized messages.
type BatchInserter struct {
	d       *DHT
	batches []*upcxx.Batch // indexed by home rank; nil until first use
	pending int
}

// NewBatchInserter returns an empty inserter for the table. RPCOnly mode
// only (values travel inside the batched RPCs).
func (d *DHT) NewBatchInserter() *BatchInserter {
	if d.mode != RPCOnly {
		panic("dht: BatchInserter requires RPCOnly mode (values travel inside the RPC)")
	}
	return &BatchInserter{d: d, batches: make([]*upcxx.Batch, d.rk.N())}
}

// Insert appends (key, val) to the home rank's batch. val is borrowed,
// not copied: it must stay unchanged until the next FlushAll.
func (bi *BatchInserter) Insert(key uint64, val []byte) {
	t := bi.d.Target(key)
	b := bi.batches[t]
	if b == nil {
		b = upcxx.NewBatch(bi.d.rk, t)
		bi.batches[t] = b
	}
	upcxx.BatchRPC(b, storeRPC,
		insertArgs{ID: bi.d.id, Key: key, Val: upcxx.MakeView(val)})
	bi.pending++
}

// Pending returns the number of accumulated, un-flushed inserts.
func (bi *BatchInserter) Pending() int { return bi.pending }

// FlushAll ships every non-empty batch, registering each batch's
// operation completion (all of its replies landed) on done. After it
// returns, every borrowed value buffer has been captured by the conduit
// and may be reused.
func (bi *BatchInserter) FlushAll(done *upcxx.Promise[upcxx.Unit]) {
	for _, b := range bi.batches {
		if b != nil && b.Len() > 0 {
			b.Flush(upcxx.OpCxAsPromise(done))
		}
	}
	bi.pending = 0
}

type publishArgs struct {
	ID   upcxx.DistID
	Key  uint64
	Zone lz
}

// publishLZ runs at the home rank as the remote completion of a
// signaling-put insert: the zone's bytes are already visible, so linking
// it into the table is race-free. An overwritten key's previous zone is
// reclaimed here, where the map lives.
func publishLZ(trk *upcxx.Rank, a publishArgs) {
	t := lookup(trk, a.ID)
	if old, ok := t.localLZ[a.Key]; ok {
		if err := upcxx.Delete(trk, old.Ptr); err != nil {
			panic(err)
		}
	}
	t.localLZ[a.Key] = a.Zone
}

// makeLZ allocates an uninitialized landing zone for a value of the given
// size, records it in the local map, and returns a global pointer suitable
// for RMA (the paper's make_lz).
func (d *DHT) makeLZ(trk *upcxx.Rank, key uint64, size int) upcxx.GPtr[uint8] {
	if old, ok := d.localLZ[key]; ok {
		// Overwrite: reclaim the previous zone.
		if err := upcxx.Delete(trk, old.Ptr); err != nil {
			panic(err)
		}
	}
	dest := upcxx.MustNewArray[uint8](trk, size)
	d.localLZ[key] = lz{Ptr: dest, Len: int64(size)}
	return dest
}

// allocLZ allocates a landing zone without publishing it; the
// signaling-put insert publishes at remote completion (publishLZ).
func (d *DHT) allocLZ(trk *upcxx.Rank, size int) upcxx.GPtr[uint8] {
	return upcxx.MustNewArray[uint8](trk, size)
}

type findArgs struct {
	ID  upcxx.DistID
	Key uint64
}

// Find retrieves the value for key, or nil if absent. In LandingZone mode
// the RPC returns the zone's global pointer and the value travels by
// one-sided rget.
func (d *DHT) Find(key uint64) upcxx.Future[[]byte] {
	target := d.Target(key)
	switch d.mode {
	case RPCOnly:
		return upcxx.RPC(d.rk, target, findValRPC, findArgs{ID: d.id, Key: key})
	case LandingZone, SignalingPut:
		f := upcxx.RPC(d.rk, target, findLZRPC, findArgs{ID: d.id, Key: key})
		return upcxx.ThenFut(f, func(z lz) upcxx.Future[[]byte] {
			if z.Ptr.IsNil() {
				return upcxx.ReadyFuture[[]byte](d.rk, nil)
			}
			buf := make([]byte, z.Len)
			return upcxx.Then(upcxx.RGet(d.rk, z.Ptr, buf), func(upcxx.Unit) []byte {
				return buf
			})
		})
	default:
		panic("dht: unknown mode")
	}
}

// findValRPC is the RPCOnly find body.
func findValRPC(trk *upcxx.Rank, a findArgs) []byte {
	return lookup(trk, a.ID).localVal[a.Key]
}

// findLZRPC is the landing-zone find body: the value itself travels by
// one-sided rget against the returned zone.
func findLZRPC(trk *upcxx.Rank, a findArgs) lz {
	z, ok := lookup(trk, a.ID).localLZ[a.Key]
	if !ok {
		return lz{Ptr: upcxx.NilGPtr[uint8]()}
	}
	return z
}

// Mutator registry: Mutate's transformation runs at the key's home rank,
// so over a real (multi-process) conduit it must travel by name like any
// RPC body. Register package-level mutators at init; in-process worlds
// also accept unregistered closures.
var mutReg = struct {
	sync.RWMutex
	byName map[string]func(old, arg []byte) []byte
	byPtr  map[uintptr]string
}{
	byName: make(map[string]func(old, arg []byte) []byte),
	byPtr:  make(map[uintptr]string),
}

// RegisterMutator registers fn for cross-process Mutate dispatch and
// returns its wire name. Call from init() with a package-level function.
func RegisterMutator(fn func(old, arg []byte) []byte) string {
	ptr := reflect.ValueOf(fn).Pointer()
	name := runtime.FuncForPC(ptr).Name()
	mutReg.Lock()
	mutReg.byName[name] = fn
	mutReg.byPtr[ptr] = name
	mutReg.Unlock()
	return name
}

type mutateArgs struct {
	ID  upcxx.DistID
	Key uint64
	Fn  string // registered mutator name
	Arg []byte
}

// mutateNamedRPC is the registered Mutate body: resolve the mutator by
// name and apply it to the home rank's stored value.
func mutateNamedRPC(trk *upcxx.Rank, a mutateArgs) upcxx.Unit {
	mutReg.RLock()
	fn := mutReg.byName[a.Fn]
	mutReg.RUnlock()
	if fn == nil {
		panic(fmt.Sprintf("dht: rank %d has no mutator %q — every rank must RegisterMutator it at init time", trk.Me(), a.Fn))
	}
	t := lookup(trk, a.ID)
	t.localVal[a.Key] = fn(t.localVal[a.Key], a.Arg)
	return upcxx.Unit{}
}

// Mutate applies fn(old, arg) to the value stored at key on its home
// rank, storing the result — the paper's graph-vertex neighbour update,
// which would take a lock/rget/modify/rput/unlock cycle without RPC. fn
// runs on the home rank; it must be a pure transformation of the
// supplied bytes. Over a real conduit fn must be registered with
// RegisterMutator; in-process any function (or closure) works.
func (d *DHT) Mutate(key uint64, fn func(old, arg []byte) []byte, arg []byte) upcxx.Future[upcxx.Unit] {
	if d.mode != RPCOnly {
		panic("dht: Mutate requires RPCOnly mode (values live in the local map)")
	}
	target := d.Target(key)
	mutReg.RLock()
	name := mutReg.byPtr[reflect.ValueOf(fn).Pointer()]
	mutReg.RUnlock()
	if name != "" {
		return upcxx.RPC(d.rk, target, mutateNamedRPC,
			mutateArgs{ID: d.id, Key: key, Fn: name, Arg: arg})
	}
	if d.rk.World().Dist() {
		panic("dht: Mutate over a real conduit requires a mutator registered with dht.RegisterMutator")
	}
	return upcxx.RPC(d.rk, target, func(trk *upcxx.Rank, a findArgs) upcxx.Unit {
		t := lookup(trk, a.ID)
		t.localVal[a.Key] = fn(t.localVal[a.Key], arg)
		return upcxx.Unit{}
	}, findArgs{ID: d.id, Key: key})
}

// Erase removes key from the table, returning whether it was present.
// In LandingZone mode the zone's segment memory is reclaimed at the home
// rank.
func (d *DHT) Erase(key uint64) upcxx.Future[bool] {
	return upcxx.RPC(d.rk, d.Target(key), eraseRPC, findArgs{ID: d.id, Key: key})
}

// eraseRPC is the erase body, shared by every mode.
func eraseRPC(trk *upcxx.Rank, a findArgs) bool {
	t := lookup(trk, a.ID)
	switch t.mode {
	case RPCOnly:
		_, ok := t.localVal[a.Key]
		delete(t.localVal, a.Key)
		return ok
	case LandingZone, SignalingPut:
		z, ok := t.localLZ[a.Key]
		if ok {
			if err := upcxx.Delete(trk, z.Ptr); err != nil {
				panic(err)
			}
			delete(t.localLZ, a.Key)
		}
		return ok
	default:
		panic("dht: unknown mode")
	}
}

// LocalLen returns the number of entries homed on this rank.
func (d *DHT) LocalLen() int {
	if d.mode == RPCOnly {
		return len(d.localVal)
	}
	return len(d.localLZ)
}

// Mode returns the table's wire strategy.
func (d *DHT) Mode() Mode { return d.mode }
