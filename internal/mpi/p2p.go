package mpi

import (
	"fmt"
	"time"

	"upcxx/internal/gasnet"
)

// Two-sided point-to-point messaging.
//
// Eager protocol (size <= Protocol.EagerMax): the payload rides in the
// message. If no receive is posted, the target copies it to an
// unexpected-message buffer — the extra copy that makes unexpected eager
// traffic expensive on real MPIs.
//
// Rendezvous protocol (larger): the sender stages the data in its shared
// segment and sends a ready-to-send (RTS) control message; when the target
// matches it, the target pulls the payload with a one-sided get and sends
// DONE back, completing the send. Matching therefore costs an extra round
// trip — the handshake UPC++'s one-sided rput avoids, central to the
// paper's Fig 8 P2P-variant comparison.

// Isend begins a non-blocking tagged send of buf to dst.
func (p *Proc) Isend(buf []byte, dst, tag int) *Request {
	p.ep.Charge(p.w.proto.SendOverhead)
	req := &Request{}
	if len(buf) <= p.w.proto.EagerMax {
		payload := append(packHeader(p.me, tag, 0, 0, len(buf)), buf...)
		p.ep.AM(int32(dst), p.w.amEager, payload, nil)
		// Eager sends complete locally once the payload is captured.
		req.done = true
		req.Status = Status{Source: p.me, Tag: tag, Count: len(buf)}
		return req
	}
	// Rendezvous: stage in our segment so the target can get() it.
	off, err := p.ep.Segment().Alloc(len(buf))
	if err != nil {
		panic(fmt.Sprintf("mpi: rank %d rendezvous staging: %v", p.me, err))
	}
	copy(p.ep.Segment().Bytes(off, len(buf)), buf)
	seq := p.rendSeq
	p.rendSeq++
	if p.rendStage == nil {
		p.rendStage = make(map[uint64]*rendSend)
	}
	p.rendStage[seq] = &rendSend{req: req, segOff: off, nbytes: len(buf)}
	p.ep.AM(int32(dst), p.w.amRTS, packHeader(p.me, tag, seq, off, len(buf)), nil)
	return req
}

// Irecv posts a non-blocking receive into buf from src (or AnySource) with
// tag (or AnyTag). buf must be large enough for the matched message.
func (p *Proc) Irecv(buf []byte, src, tag int) *Request {
	p.ep.Charge(p.w.proto.RecvOverhead)
	req := &Request{}
	rr := &recvReq{req: req, buf: buf, src: src, tag: tag}
	// Check the unexpected queue first (FIFO).
	for i := range p.unexpected {
		m := p.unexpected[i]
		if matches(src, tag, m.src, m.tag) {
			p.unexpected = append(p.unexpected[:i], p.unexpected[i+1:]...)
			p.deliver(rr, m)
			return req
		}
	}
	p.postedRecvs = append(p.postedRecvs, rr)
	return req
}

// Send is a blocking send.
func (p *Proc) Send(buf []byte, dst, tag int) {
	p.Wait(p.Isend(buf, dst, tag))
}

// Recv is a blocking receive, returning the matched status.
func (p *Proc) Recv(buf []byte, src, tag int) Status {
	return p.Wait(p.Irecv(buf, src, tag))
}

type recvReq struct {
	req      *Request
	buf      []byte
	src, tag int
}

// deliver completes a matched receive from an arrived message.
func (p *Proc) deliver(rr *recvReq, m inMsg) {
	p.ep.Charge(p.w.proto.MatchCost)
	if m.rts == nil {
		if len(m.eager) > len(rr.buf) {
			panic(fmt.Sprintf("mpi: rank %d truncation: %d-byte message into %d-byte buffer",
				p.me, len(m.eager), len(rr.buf)))
		}
		copy(rr.buf, m.eager)
		rr.req.Status = Status{Source: m.src, Tag: m.tag, Count: len(m.eager)}
		rr.req.done = true
		return
	}
	// Rendezvous: pull the payload from the sender's staging area.
	rts := m.rts
	if rts.nbytes > len(rr.buf) {
		panic(fmt.Sprintf("mpi: rank %d truncation: %d-byte rendezvous into %d-byte buffer",
			p.me, rts.nbytes, len(rr.buf)))
	}
	dst := rr.buf[:rts.nbytes]
	p.ep.Get(int32(rts.src), rts.segOff, dst, func() {
		rr.req.Status = Status{Source: m.src, Tag: m.tag, Count: rts.nbytes}
		rr.req.done = true
		// Tell the sender its staging buffer is free and the send done.
		p.ep.AM(int32(rts.src), p.w.amDone, packHeader(p.me, m.tag, rts.seq, 0, 0), nil)
	})
}

// handleEager runs at the target when an eager message arrives.
func (w *World) handleEager(ep *gasnet.Endpoint, _ gasnet.Rank, payload []byte, _ any) {
	p := w.procs[ep.Rank()]
	src, tag, _, _, nbytes, rest := unpackHeader(payload)
	m := inMsg{src: src, tag: tag, eager: rest[:nbytes]}
	if rr := p.matchPosted(src, tag); rr != nil {
		p.deliver(rr, m)
		return
	}
	// Unexpected: the implementation must copy the payload aside — the
	// cost real MPIs pay (charged per KB).
	cp := append([]byte(nil), m.eager...)
	m.eager = cp
	p.ep.Charge(time.Duration(w.proto.UnexpectedPer) * time.Duration(1+nbytes/1024))
	p.unexpected = append(p.unexpected, m)
}

// handleRTS runs at the target when a rendezvous envelope arrives.
func (w *World) handleRTS(ep *gasnet.Endpoint, _ gasnet.Rank, payload []byte, _ any) {
	p := w.procs[ep.Rank()]
	src, tag, seq, segOff, nbytes, _ := unpackHeader(payload)
	m := inMsg{src: src, tag: tag, rts: &rtsInfo{src: src, seq: seq, segOff: segOff, nbytes: nbytes}}
	if rr := p.matchPosted(src, tag); rr != nil {
		p.deliver(rr, m)
		return
	}
	p.unexpected = append(p.unexpected, m)
}

// handleDone runs at the sender when the target finishes pulling a
// rendezvous payload.
func (w *World) handleDone(ep *gasnet.Endpoint, _ gasnet.Rank, payload []byte, _ any) {
	p := w.procs[ep.Rank()]
	_, _, seq, _, _, _ := unpackHeader(payload)
	rs, ok := p.rendStage[seq]
	if !ok {
		panic(fmt.Sprintf("mpi: rank %d DONE for unknown rendezvous %d", p.me, seq))
	}
	delete(p.rendStage, seq)
	if err := p.ep.Segment().Free(rs.segOff); err != nil {
		panic(err)
	}
	rs.req.done = true
	rs.req.Status = Status{Source: p.me, Count: rs.nbytes}
}

// matchPosted removes and returns the first posted receive matching
// (src, tag), or nil.
func (p *Proc) matchPosted(src, tag int) *recvReq {
	for i, rr := range p.postedRecvs {
		if matches(rr.src, rr.tag, src, tag) {
			p.postedRecvs = append(p.postedRecvs[:i], p.postedRecvs[i+1:]...)
			return rr
		}
	}
	return nil
}
