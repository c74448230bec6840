package upcxx

import "upcxx/internal/serial"

// Remote completions (upcxx remote_cx::as_rpc): attach an RPC to the
// *remote* completion of a one-sided put — the target-side notification
// fires only after the transferred data is globally visible in its
// segment. The paper's §V-A singles this ability out ("attach an
// operation which effectively serves as a completion handler") as a key
// advantage of the v1.0 design over v0.1, where nothing could be chained
// to an RMA.
//
// These helpers are thin compositions over the completion-object system
// (completion.go): RemoteCxAsRPC rides the conduit put itself — the
// notification AM is enqueued at the destination the instant the final
// wire/DMA hop lands, one message total, no follow-up round trip. That is
// the GASNet-EX signaling put the paper's halo-exchange benchmarks lean
// on; EXPERIMENTS.md quantifies the round trip it saves over the put+RPC
// idiom.

// RPutSignal is the signaling put: the notification RPC runs at the
// target after the data lands, piggybacked on the transfer itself, with
// no acknowledgment of its execution (remote_cx::as_rpc). The returned
// future is the put's operation completion.
func RPutSignal[T serial.Scalar, A any](rk *Rank, src []T, dst GPtr[T], fn func(*Rank, A), arg A) Future[Unit] {
	return RPutWith(rk, src, dst, OpCxAsFuture(), RemoteCxAsRPC(fn, arg)).Op
}

// RPutThenRemote performs RPut(src, dst) and, once the data is remotely
// visible, invokes fn(arg) on dst's owner. Unlike RPutSignal, the
// returned future readies only when the remote notification has
// *executed* (its acknowledgment returned) — a stronger guarantee that
// costs an explicit RPC round trip after remote completion.
func RPutThenRemote[T serial.Scalar, A any](rk *Rank, src []T, dst GPtr[T], fn func(*Rank, A), arg A) Future[Unit] {
	put := RPutWith(rk, src, dst, RemoteCxAsFuture())
	return ThenFut(put.Remote, func(Unit) Future[Unit] {
		return RPC(rk, dst.Owner, func(trk *Rank, a A) Unit {
			fn(trk, a)
			return Unit{}
		}, arg)
	})
}
