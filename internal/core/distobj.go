package upcxx

// Distributed objects (upcxx::dist_object<T>): one logical object with one
// local representative per rank, identified by a job-wide ID with no
// non-scalable per-rank bookkeeping anywhere (paper §II). Construction is
// collective in ordering only: every rank must construct its distributed
// objects in the same sequence, which assigns matching IDs without
// communication. Fetching a remote representative is explicit
// communication (an RPC), honoring the no-implicit-communication principle.
//
// The registry is shared between the constructing goroutine and whichever
// goroutine executes incoming fetch RPCs (the rank's own in self-progress
// mode, the progress thread otherwise), so it is mutex-protected; waiters
// for not-yet-constructed representatives are resumed on the persona that
// registered them.

// DistID identifies a distributed object across the job.
type DistID uint64

// distWaiter is a deferred fetch reply: fn must run on pers, the persona
// current when the fetch RPC body executed.
type distWaiter struct {
	pers *Persona
	fn   func(obj any)
}

// DistObject is one rank's representative of a distributed object.
type DistObject[T any] struct {
	rk  *Rank
	id  DistID
	val T
}

// NewDistObject registers this rank's representative. Ranks must construct
// distributed objects in matching order (the UPC++ requirement).
func NewDistObject[T any](rk *Rank, val T) *DistObject[T] {
	rk.distMu.Lock()
	id := rk.distSeq
	rk.distSeq++
	d := &DistObject[T]{rk: rk, id: DistID(id), val: val}
	rk.distObjs[id] = d
	waiters := rk.distWaits[id]
	delete(rk.distWaits, id)
	rk.distMu.Unlock()
	for _, wtr := range waiters {
		wtr := wtr
		wtr.pers.LPC(func() { wtr.fn(d) })
	}
	return d
}

// ID returns the job-wide identifier.
func (d *DistObject[T]) ID() DistID { return d.id }

// Value returns a pointer to the local representative.
func (d *DistObject[T]) Value() *T { return &d.val }

// Fetch retrieves rank from's representative of this distributed object.
// If the remote rank has not yet constructed its representative the reply
// is deferred until it does, matching upcxx::dist_object::fetch semantics.
func (d *DistObject[T]) Fetch(from Intrank) Future[T] {
	return FetchDist[T](d.rk, d.id, from)
}

// distValueMarshaler erases DistObject's type parameter at the fetch
// protocol boundary: the target serializes its representative, and the
// initiator's FetchDist decodes into the concrete T it asked for. The
// byte-level protocol is what lets one non-generic, registered RPC body
// serve every instantiation — generic bodies cannot cross a process
// boundary (see fnreg.go).
type distValueMarshaler interface{ distValueBytes() []byte }

func (d *DistObject[T]) distValueBytes() []byte { return mustMarshal(d.val) }

// distFetchBody is the target-side half of every dist-object fetch: a
// deferred-reply RPC body that resolves the ID to the local
// representative's serialized value, waiting for construction if the
// target has not reached the matching NewDistObject yet.
func distFetchBody(trk *Rank, id uint64) Future[[]byte] {
	trk.distMu.Lock()
	if o, ok := trk.distObjs[id]; ok {
		trk.distMu.Unlock()
		return ReadyFuture(trk, o.(distValueMarshaler).distValueBytes())
	}
	// RPC bodies execute on the rank's durable execution persona
	// (master or progress thread — see Rank.bodyQueue), so the
	// deferred promise and its waiter outlive whichever goroutine
	// harvested the message.
	p := NewPromise[[]byte](trk)
	trk.distWaits[id] = append(trk.distWaits[id], distWaiter{
		pers: trk.currentPersona(),
		fn:   func(obj any) { p.FulfillResult(obj.(distValueMarshaler).distValueBytes()) },
	})
	trk.distMu.Unlock()
	return p.Future()
}

func init() { RegisterRPCFut(distFetchBody) }

// FetchDist retrieves rank from's representative of the distributed object
// with the given ID. The fetch is a deferred-reply RPC on the single
// injection path (RPCFutWith); like every RPC it accepts the full
// completion vocabulary, though the value future is all a fetch needs.
func FetchDist[T any](rk *Rank, id DistID, from Intrank) Future[T] {
	f, _ := RPCFutWith(rk, from, distFetchBody, uint64(id))
	return Then(f, func(b []byte) T {
		var v T
		mustUnmarshal(b, &v)
		return v
	})
}

// LookupDist resolves a DistID to this rank's local representative, the
// binding an RPC body performs after receiving a DistID argument (the
// analogue of UPC++'s automatic dist_object translation).
func LookupDist[T any](rk *Rank, id DistID) (*DistObject[T], bool) {
	rk.distMu.Lock()
	o, ok := rk.distObjs[uint64(id)]
	rk.distMu.Unlock()
	if !ok {
		return nil, false
	}
	d, ok := o.(*DistObject[T])
	return d, ok
}
