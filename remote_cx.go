package upcxx

import "upcxx/internal/serial"

// Remote completions (upcxx remote_cx::as_rpc): an RPC attached to the
// *remote* completion of a one-sided put runs at the target only after the
// transferred data is globally visible in its segment — the ability the
// paper's §V-A singles out over v0.1, where nothing could be chained to an
// RMA. RemoteCxAsRPC (completion.go) rides the put itself: its zero-entry
// RPC message is enqueued at the destination the instant the final wire/DMA
// hop lands, one transfer and no follow-up round trip — GASNet-EX's
// signaling put, which the paper's halo-exchange benchmarks lean on.

// RPutSignal is the signaling put: the notification RPC runs at the
// target after the data lands, piggybacked on the transfer itself, with
// no acknowledgment of its execution (remote_cx::as_rpc). The returned
// future is the put's operation completion.
func RPutSignal[T serial.Scalar, A any](rk *Rank, src []T, dst GPtr[T], fn func(*Rank, A), arg A) Future[Unit] {
	return RPutWith(rk, src, dst, OpCxAsFuture(), RemoteCxAsRPC(fn, arg)).Op
}
