package upcxx

import (
	"fmt"

	"upcxx/internal/serial"
)

// Batched RPC: coalesce many small same-target RPCs into one wire message.
//
// The paper's small-message story (§IV: the distributed hash table, §V's
// flood injection rates) lives or dies on per-message overhead — every AM
// pays the conduit's fixed injection cost (LogGP o and gap) regardless of
// payload. A Batch amortizes that cost: requests accumulate locally with
// zero conduit interaction, then Flush ships them as ONE message under one
// shared completion plan, and the target executes every body in a single
// execution-persona wakeup and returns all results in ONE reply message. The
// per-request futures behave exactly as their un-batched counterparts —
// each reply is demultiplexed by sequence number to its own promise. There
// is no batch wire format or batch handler: a flushed Batch is the RPC
// message of rpc.go with more than one entry, sent through the same
// rpcSend that RPC and RPCFF use for one.
//
// A view argument is zero-copy end to end: BatchRPC marshals into the
// batch's gather encoder, so its elements travel as borrowed iovec fragments
// that alias caller memory until the conduit's capture stage copies them
// inside Flush (argument stream → the message's fragments → Endpoint.AMTag). Source
// completion on Flush is therefore the first moment a viewed buffer may be
// reused — the same contract as rput. A plain []byte is copied at BatchRPC instead: nothing
// asks its caller to leave it alone until Flush. A single call borrows both,
// since its capture comes before the call returns.
//
// A Batch is not goroutine-safe; it is an accumulator owned by the calling
// persona, like a promise.

// Batch accumulates RPCs bound for one target rank. Add requests with
// BatchRPC / BatchRPCFF, then Flush to ship them as one message. The
// zero-interaction accumulate phase means adding to a batch never touches
// the conduit, never rings a doorbell, and never takes a lock. Every
// argument is marshalled into the one stream args, back to back; call i
// records where its argument ends there, its body and its result's sink.
type Batch struct {
	rk     *Rank
	target Intrank
	args   serial.Encoder
	calls  []rpcCall
}

// NewBatch returns an empty batch bound for target.
func NewBatch(rk *Rank, target Intrank) *Batch {
	return &Batch{rk: rk, target: target}
}

// Len returns the number of accumulated, un-flushed requests.
func (b *Batch) Len() int { return len(b.calls) }

// Target returns the destination rank every entry is bound for.
func (b *Batch) Target() Intrank { return b.target }

// BatchRPC appends a round-trip invocation of fn(arg) to the batch and
// returns the future for fn's result, owned by the calling persona exactly
// as RPC's would be. The argument is serialized immediately — large views
// as borrowed fragments aliasing caller memory, reusable only after the
// flushed batch's source completion; everything else copied.
func BatchRPC[A, R any](b *Batch, fn func(*Rank, A) R, arg A) Future[R] {
	p := NewPromise[R](b.rk)
	batchAdd(b, &callOf(fn, func() rpcBody { return valueBody(fn) }).bodies[0], &arg, p)
	return p.Future()
}

// BatchRPCFF appends a fire-and-forget invocation of fn(arg) to the batch:
// no reply entry comes back for it, and the flushed batch's operation
// completion does not wait for its execution (matching rpc_ff).
func BatchRPCFF[A any](b *Batch, fn func(*Rank, A), arg A) {
	batchAdd(b, &callOf(fn, func() rpcBody { return ffBody(fn) }).bodies[0], &arg, nil)
}

// batchAdd appends one call, serializing arg onto the batch's gather
// encoder, whose fragments live until Flush: view payloads stay borrowed
// until conduit capture, plain slices are copied now.
func batchAdd[A any](b *Batch, body *rpcBody, arg *A, sink rpcSink) {
	if b.calls == nil {
		b.args.EnableGather(false)
	}
	start := b.args.Len()
	if err := body.arg.(serial.Codec[A]).Encode(&b.args, arg); err != nil {
		panic(fmt.Sprintf("upcxx: batched RPC argument not serializable: %v", err))
	}
	b.calls = append(b.calls, rpcCall{start: start, end: b.args.Len(), sink: sink, body: body})
}

// Flush ships every accumulated request as ONE wire message under one
// shared completion plan and resets the batch for reuse. The descriptor
// set applies to the whole batch:
//
//   - source completion — the conduit captured the message (including
//     every borrowed argument fragment); all argument buffers are reusable;
//   - operation completion — every round-trip entry's reply has landed
//     (with only fire-and-forget entries, the conduit accepted the message);
//   - remote completion (as_rpc) — one target-side landing event for the
//     whole batch, firing when the message arrives.
//
// Flushing an empty batch completes the plan immediately. The per-entry
// value futures resolve independently as their replies are demultiplexed.
func (b *Batch) Flush(cxs ...Cx) CxFutures {
	calls, stream := b.calls, b.args.Fragments()
	if stream == nil {
		stream = [][]byte{b.args.Bytes()}
	}
	b.calls, b.args = nil, serial.Encoder{}
	call := &rpcAux{bodies: make([]rpcBody, len(calls))}
	for i := range calls {
		call.bodies[i] = *calls[i].body
	}
	return rpcSend[Unit](b.rk, b.target, call, calls, stream, nil, nil, cxs)
}
