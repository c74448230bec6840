package mpi

import "encoding/binary"

// Collectives, implemented over the two-sided layer the way MPICH's
// "generic" algorithms are: dissemination barrier and pairwise
// exchanges. Collective traffic uses a reserved tag space
// (tags >= collTagBase); user code must stay below it.

const collTagBase = 1 << 30

// collTag derives a unique tag for one collective instance and round.
func (p *Proc) collTag(seq uint64, round int) int {
	return collTagBase + int(seq)*64 + round
}

func (p *Proc) nextCollSeq() uint64 {
	s := p.collSeq
	p.collSeq++
	return s
}

// Barrier blocks until all ranks enter it (dissemination algorithm,
// ceil(log2 P) rounds).
func (p *Proc) Barrier() {
	if p.n == 1 {
		return
	}
	seq := p.nextCollSeq()
	var empty [1]byte
	buf := make([]byte, 1)
	for round := 0; (1 << round) < p.n; round++ {
		dst := (p.me + (1 << round)) % p.n
		src := (p.me - (1 << round) + p.n) % p.n
		tag := p.collTag(seq, round)
		sreq := p.Isend(empty[:], dst, tag)
		rreq := p.Irecv(buf, src, tag)
		p.Wait(sreq)
		p.Wait(rreq)
	}
}

// Alltoall8 exchanges one 8-byte word with every rank; entry i of the
// result came from rank i. This is the size-exchange that precedes an
// Alltoallv, as in STRUMPACK's extend-add.
func (p *Proc) Alltoall8(vals []uint64) []uint64 {
	if len(vals) != p.n {
		panic("mpi: Alltoall8 needs one value per rank")
	}
	seq := p.nextCollSeq()
	tag := p.collTag(seq, 0)
	out := make([]uint64, p.n)
	out[p.me] = vals[p.me]
	sendBufs := make([][]byte, p.n)
	recvBufs := make([][]byte, p.n)
	var reqs []*Request
	for k := 1; k < p.n; k++ {
		dst := (p.me + k) % p.n
		src := (p.me - k + p.n) % p.n
		sendBufs[dst] = binary.LittleEndian.AppendUint64(nil, vals[dst])
		recvBufs[src] = make([]byte, 8)
		reqs = append(reqs, p.Irecv(recvBufs[src], src, tag))
		reqs = append(reqs, p.Isend(sendBufs[dst], dst, tag))
	}
	p.Waitall(reqs)
	for src := 0; src < p.n; src++ {
		if src != p.me {
			out[src] = binary.LittleEndian.Uint64(recvBufs[src])
		}
	}
	return out
}

// Alltoallv exchanges variable-size byte buffers: send[i] goes to rank i,
// and the result's entry i holds rank i's buffer for us. Counts are
// exchanged internally with Alltoall8 first (the usual usage pattern).
// Empty buffers are not transmitted. The call completes only when all of
// this rank's exchanges are done — the implicit synchronization the
// paper's MPI Alltoallv extend-add variant pays per tree level.
func (p *Proc) Alltoallv(send [][]byte) [][]byte {
	if len(send) != p.n {
		panic("mpi: Alltoallv needs one buffer per rank")
	}
	sizes := make([]uint64, p.n)
	for i, b := range send {
		sizes[i] = uint64(len(b))
	}
	recvSizes := p.Alltoall8(sizes)

	seq := p.nextCollSeq()
	tag := p.collTag(seq, 0)
	out := make([][]byte, p.n)
	if len(send[p.me]) > 0 {
		out[p.me] = append([]byte(nil), send[p.me]...)
	}
	var reqs []*Request
	for k := 1; k < p.n; k++ {
		src := (p.me - k + p.n) % p.n
		if recvSizes[src] > 0 {
			out[src] = make([]byte, recvSizes[src])
			reqs = append(reqs, p.Irecv(out[src], src, tag))
		}
	}
	for k := 1; k < p.n; k++ {
		dst := (p.me + k) % p.n
		if len(send[dst]) > 0 {
			reqs = append(reqs, p.Isend(send[dst], dst, tag))
		}
	}
	p.Waitall(reqs)
	return out
}

// Allgather8 collects one 8-byte word from every rank (entry i from
// rank i) — used for window base exchange.
func (p *Proc) Allgather8(v uint64) []uint64 {
	vals := make([]uint64, p.n)
	for i := range vals {
		vals[i] = v
	}
	return p.Alltoall8(vals)
}
