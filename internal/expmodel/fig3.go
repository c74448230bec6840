package expmodel

// Fig 3 closed-form model: the latency and bandwidth of blocking and
// flooded RMA puts for UPC++ (direct conduit injection) versus MPI-3 RMA
// (Cray-MPICH-style FMA/BTE software path plus win-flush
// synchronization). These formulas are the analytical mirror of what
// cmd/rma-bench measures on the LogGP conduit in model time; the bench
// prints both.

// Fig3Sizes is the paper's transfer-size sweep (8 B .. 4 MB).
func Fig3Sizes() []int {
	var sizes []int
	for n := 8; n <= 4<<20; n *= 2 {
		sizes = append(sizes, n)
	}
	return sizes
}

// UPCXXPutLatency returns the modeled blocking rput round trip in
// seconds: injection overhead, NIC serialization, wire, and the ack.
func (m Machine) UPCXXPutLatency(n int) float64 {
	return m.overhead(n, false) + m.gap(n, false) + m.lat(n, false) +
		m.gap(0, false) + m.lat(0, false) +
		m.cpu(futureFulfill)
}

// MPIPutLatency returns the modeled MPI_Put + MPI_Win_flush round trip:
// the same conduit wire as UPC++, plus the MPI software path (put base
// cost, banded FMA per-byte CPU, flush bookkeeping and — for transfers of
// 256 B and up — the flush completion-synchronization wait).
func (m Machine) MPIPutLatency(n int) float64 {
	sw := m.overhead(n, false) +
		m.cpu(m.Proto.RMAPutBase) + m.Proto.PutCPUBytes(n).Seconds()*m.CPUScale +
		m.cpu(m.Proto.RMAFlushBase)
	if n >= 256 {
		sw += m.cpu(m.Proto.RMAFlushSync)
	}
	return sw + m.gap(n, false) + m.lat(n, false) + m.gap(0, false) + m.lat(0, false)
}

// UPCXXFloodBW returns the modeled steady-state flood put bandwidth in
// bytes/sec: the pipeline is bound by the slower of CPU injection and NIC
// serialization.
func (m Machine) UPCXXFloodBW(n int) float64 {
	perMsg := maxf(m.overhead(n, false)+m.cpu(futureFulfill), m.gap(n, false))
	return float64(n) / perMsg
}

// MPIFloodBW returns the modeled MPI_Put flood bandwidth (aggregate
// IMB-RMA mode: one flush per window, so only the per-put software path
// charges per message).
func (m Machine) MPIFloodBW(n int) float64 {
	sw := m.overhead(n, false) +
		m.cpu(m.Proto.RMAPutBase) + m.Proto.PutCPUBytes(n).Seconds()*m.CPUScale
	nic := m.gap(n, false)
	// Chunked injection for transfers beyond the internal pipeline chunk.
	if n > m.Proto.RMAChunk {
		chunks := (n + m.Proto.RMAChunk - 1) / m.Proto.RMAChunk
		nic = float64(chunks) * m.gap(m.Proto.RMAChunk, false)
	}
	perMsg := maxf(sw, nic)
	return float64(n) / perMsg
}

// SignalNotifyLatency returns the modeled time from injecting a
// signaling put (remote_cx::as_rpc riding the transfer) to the
// notification body running at the target: one one-way message — the
// notification is enqueued at the destination the instant the data
// lands, costing only the handler dispatch on top of the wire.
func (m Machine) SignalNotifyLatency(n int) float64 {
	return m.overhead(n, false) + m.gap(n, false) + m.lat(n, false) +
		m.cpu(rpcHandler)
}

// PutRPCNotifyLatency returns the modeled time for the pre-completion-
// object idiom delivering the same event: a blocking rput (full round
// trip — the initiator must observe remote visibility before it may
// notify), then a fire-and-forget notification RPC crossing the wire
// once more. Exactly one round trip more than SignalNotifyLatency's
// one-way piggyback, which is the saving EXPERIMENTS.md quantifies.
func (m Machine) PutRPCNotifyLatency(n int) float64 {
	notify := m.cpu(rpcInject) + m.overhead(32, false) + m.gap(32, false) + m.lat(32, false) +
		m.cpu(rpcHandler)
	return m.UPCXXPutLatency(n) + notify
}

// RPCFFNotifyLatency returns the modeled one-way rpc_ff latency for a
// size-byte argument payload: serialize and inject, cross the wire once,
// dispatch the body at the target. The cheapest way to move work plus
// data when no acknowledgment is needed.
func (m Machine) RPCFFNotifyLatency(n int) float64 {
	return m.cpu(rpcInject) + m.overhead(n, false) + m.gap(n, false) + m.lat(n, false) +
		m.cpu(rpcHandler)
}

// RPCRoundTripLatency returns the modeled blocking rpc round trip for a
// size-byte argument payload and a small reply: the rpc_ff path out, the
// body dispatch, then the reply injection and its wire hop back, and the
// initiator-side future fulfillment.
func (m Machine) RPCRoundTripLatency(n int) float64 {
	const replyBytes = 16
	return m.RPCFFNotifyLatency(n) +
		m.cpu(rpcInject) + m.overhead(replyBytes, false) +
		m.gap(replyBytes, false) + m.lat(replyBytes, false) +
		m.cpu(futureFulfill)
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
