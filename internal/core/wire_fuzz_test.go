package upcxx

import (
	"bytes"
	"fmt"
	"testing"

	"upcxx/internal/serial"
	"upcxx/internal/serial/serialtest"
)

// Fuzz targets for the kind-tagged GPtr wire form and the versioned
// message headers. The seed corpus runs as ordinary unit tests on every
// `go test`; CI additionally runs each target with -fuzz for a short smoke
// window (see Makefile fuzz-smoke). The three message formats share one
// harness, serialtest.FuzzCanonical: hostile bytes never panic the
// decoder, and anything it accepts re-encodes to the identical canonical
// bytes; each format adds only its seeds and the invariants its decoder
// must have enforced.

// gptrValid mirrors the wire-form invariants: nil is owner < 0; live
// pointers must have a consistent kind/device pair.
func gptrValid(owner int32, kind uint8, dev uint16) bool {
	if owner < 0 {
		return true // nil pointer; remaining fields are don't-care on decode
	}
	switch MemKind(kind) {
	case KindHost:
		return dev == 0
	case KindDevice:
		return dev != 0
	default:
		return false
	}
}

// FuzzGPtrWire round-trips arbitrarily field-stuffed global pointers:
// valid combinations must survive Marshal/Unmarshal unchanged, invalid
// ones must be rejected at encode time (forged pointers never reach the
// wire).
func FuzzGPtrWire(f *testing.F) {
	f.Add(int32(0), uint8(0), uint16(0), uint64(0))         // host, rank 0
	f.Add(int32(3), uint8(1), uint16(1), uint64(4096))      // device 1
	f.Add(int32(-1), uint8(0), uint16(0), uint64(0))        // nil
	f.Add(int32(7), uint8(1), uint16(65535), uint64(1<<40)) // max device id
	f.Add(int32(2), uint8(0), uint16(5), uint64(64))        // forged: host+dev
	f.Add(int32(2), uint8(1), uint16(0), uint64(64))        // forged: dev+0
	f.Add(int32(9), uint8(200), uint16(1), uint64(8))       // unknown kind
	f.Fuzz(func(t *testing.T, owner int32, kind uint8, dev uint16, off uint64) {
		p := GPtr[int32]{Owner: owner, Kind: MemKind(kind), Dev: dev, Off: off}
		b, err := serial.Marshal(p)
		if !gptrValid(owner, kind, dev) {
			if err == nil {
				t.Fatalf("marshal of invalid %v succeeded", p)
			}
			return
		}
		if err != nil {
			t.Fatalf("marshal %v: %v", p, err)
		}
		var q GPtr[int32]
		if err := serial.Unmarshal(b, &q); err != nil {
			t.Fatalf("unmarshal %v: %v", p, err)
		}
		if q != p {
			t.Fatalf("round trip %v -> %v", p, q)
		}
	})
}

// remoteCxWire is a decoded remote-cx AM payload.
type remoteCxWire struct {
	initiator Intrank
	args      []byte
}

func FuzzRemoteCxWire(f *testing.F) {
	seeds := [][]byte{
		encodeRemoteCx(0, nil),
		encodeRemoteCx(3, []byte{1, 2, 3}),
		encodeRemoteCx(1<<31-1, bytes.Repeat([]byte{0xaa}, 64)),
		{},
		{remoteCxMagic},
		{remoteCxMagic, 1, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}, // huge uvarint arglen
		bytes.Repeat([]byte{0xff}, 24),
	}
	serialtest.FuzzCanonical(f, seeds,
		func(b []byte) (remoteCxWire, error) {
			initiator, args, err := decodeRemoteCx(b)
			return remoteCxWire{initiator, args}, err
		},
		func(m remoteCxWire) []byte { return encodeRemoteCx(m.initiator, m.args) },
		func(m remoteCxWire) string {
			if m.initiator < 0 {
				return fmt.Sprintf("negative initiator %d", m.initiator)
			}
			return ""
		})
}

// rpcWire is a decoded RPC message with its entries walked out.
type rpcWire struct {
	src     uint32
	entries []rpcEntry
	rem     []byte
}

func encodeRPCWire(m rpcWire) []byte {
	b, _ := encodeRPCMsg[Unit](Intrank(m.src), m.entries, nil, m.rem, false)
	return b
}

func decodeRPCWire(b []byte) (rpcWire, error) {
	m, err := decodeRPCMsg(b)
	w := rpcWire{src: m.src, rem: m.rem}
	for i := 0; err == nil && i < m.count; i++ {
		w.entries = append(w.entries, m.next())
	}
	return w, err
}

// FuzzRPCWire covers the one RPC message every single, fire-and-forget,
// batched and reply message travels as.
func FuzzRPCWire(f *testing.F) {
	seeds := [][]byte{
		encodeRPCWire(rpcWire{entries: []rpcEntry{{kind: rpcReqKind}}}),
		encodeRPCWire(rpcWire{src: 3, entries: []rpcEntry{
			{kind: rpcReqKind, seq: 7, args: []byte{1, 2, 3}},
			{kind: rpcFFKind, args: []byte{9}},
			{kind: rpcReqKind, seq: 8}}}),
		encodeRPCWire(rpcWire{src: 1<<31 - 1, entries: []rpcEntry{
			{kind: rpcReplyKind, seq: 1 << 40, args: bytes.Repeat([]byte{0xaa}, 64)},
			{kind: rpcReplyKind, seq: 2}}}),
		encodeRPCWire(rpcWire{src: 2, entries: []rpcEntry{{kind: rpcFFKind, args: []byte{5}}},
			rem: encodeRemoteCx(2, []byte{9, 9})}),
		encodeRPCWire(rpcWire{src: 2, entries: []rpcEntry{{kind: rpcReqKind, seq: 1}},
			rem: encodeRemoteCx(2, nil)}),
		{},
		{rpcMagic},
		bytes.Repeat([]byte{0xff}, 32),
		// Hostile: huge uvarint entry count on a well-formed prefix.
		{rpcMagic, rpcVersion, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01},
		// Hostile: huge uvarint argument length on a well-formed entry.
		{rpcMagic, rpcVersion, 0, 0, 0, 0, 1, rpcReqKind, 1, 0, 0, 0, 0, 0, 0, 0,
			0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01},
	}
	serialtest.FuzzCanonical(f, seeds, decodeRPCWire, encodeRPCWire, func(m rpcWire) string {
		replies := 0
		for _, en := range m.entries {
			switch {
			case en.kind == 0 || en.kind > rpcKindMax:
				return fmt.Sprintf("unknown entry kind %d", en.kind)
			case en.kind == rpcFFKind && en.seq != 0:
				return fmt.Sprintf("fire-and-forget entry with sequence %d", en.seq)
			case en.kind == rpcReplyKind:
				replies++
			}
		}
		switch {
		case len(m.entries) == 0:
			return "an empty message"
		case m.src > 1<<31-1:
			return fmt.Sprintf("out-of-range sender %d", m.src)
		case replies != 0 && replies != len(m.entries):
			return "a mixed-direction message"
		case replies != 0 && len(m.rem) > 0:
			return "a reply with a remote-cx payload"
		}
		return ""
	})
}

func FuzzCollWire(f *testing.F) {
	// Unknown kind 200 on an otherwise well-formed message.
	hostile := encodeCollMsg(collMsg{team: 1, seq: 1, kind: collReduce})
	hostile[18] = 200
	seeds := [][]byte{
		encodeCollMsg(collMsg{kind: collBarrier, round: collRoundUp}),
		encodeCollMsg(collMsg{team: 7, seq: 3, kind: collBcast, round: collRoundDown, src: 2, data: []byte{1, 2, 3}}),
		encodeCollMsg(collMsg{team: 1 << 40, seq: 1 << 20, kind: collLand, round: collRoundUp,
			src: 1<<31 - 1, data: bytes.Repeat([]byte{0xaa}, 64)}),
		encodeCollMsg(collMsg{team: 9, seq: 1, kind: collAddr, round: collRoundDown, src: 5,
			data: encodeCollAddr(collBufAddr{kind: 1, dev: 2, off: 4096})}),
		{},
		{collMagic},
		bytes.Repeat([]byte{0xff}, 32),
		hostile,
	}
	serialtest.FuzzCanonical(f, seeds, decodeCollMsg, encodeCollMsg, func(m collMsg) string {
		switch {
		case m.kind == 0 || m.kind > collKindMax:
			return fmt.Sprintf("unknown kind %d", m.kind)
		case m.round > collRoundDown:
			return fmt.Sprintf("unknown round %d", m.round)
		case m.src > 1<<31-1:
			return fmt.Sprintf("out-of-range sender %d", m.src)
		}
		return ""
	})
}

// FuzzCollArrive is the arrival-side counterpart of FuzzCollWire: a message
// that is well-formed on the wire but arbitrary in kind, round, claimed
// sender and payload reaches a rank that is inside each kind of wave,
// through the conduit handler — twice, so that an arrival the walk accepts
// is also a duplicate. The walk must advance or fail the peer and never
// panic; a message of another collective's kind, or from a team rank that
// is no member, must fail the peer.
func FuzzCollArrive(f *testing.F) {
	const p = 5 // binomial: 0 -> {1, 2, 4}, 1 -> {3}
	waves := []struct {
		kind  uint8
		enter func(rk *Rank)
	}{
		{collBarrier, func(rk *Rank) { rk.WorldTeam().BarrierAsync() }},
		{collBcast, func(rk *Rank) { Broadcast(rk.WorldTeam(), 1, int64(7)) }},
		{collReduce, func(rk *Rank) { ReduceOne(rk.WorldTeam(), int64(1), addI64) }},
		{collReduce, func(rk *Rank) { AllReduce(rk.WorldTeam(), int64(1), addI64) }},
		{collGather, func(rk *Rank) { Gather(rk.WorldTeam(), 2, int64(1)) }},
		{collGather, func(rk *Rank) { AllGather(rk.WorldTeam(), int64(1)) }},
		{collGather, func(rk *Rank) { rk.WorldTeam().SplitAsync(1, 0) }},
	}
	one := mustMarshal(int64(1))
	f.Add(uint8(0), uint8(0), collBarrier, collRoundUp, uint32(1), []byte(nil))   // a child arrives
	f.Add(uint8(0), uint8(3), collBarrier, collRoundDown, uint32(1), []byte(nil)) // the parent releases
	f.Add(uint8(0), uint8(3), collBarrier, collRoundDown, uint32(2), []byte(nil)) // a non-parent does
	f.Add(uint8(1), uint8(0), collBcast, collRoundDown, uint32(4), one)           // rooted at 1: 4's child is 0
	f.Add(uint8(2), uint8(1), collReduce, collRoundUp, uint32(3), one)
	f.Add(uint8(3), uint8(0), collReduce, collRoundUp, uint32(7), one) // no member
	f.Add(uint8(3), uint8(0), collBcast, collRoundUp, uint32(1), one)  // another collective's kind
	f.Add(uint8(4), uint8(2), collGather, collRoundUp, uint32(3), encodeCollFrames(map[uint32][]byte{3: one}))
	f.Add(uint8(5), uint8(0), collGather, collRoundUp, uint32(1), encodeCollFrames(map[uint32][]byte{1: one, 9: one}))
	f.Add(uint8(6), uint8(4), collGather, collRoundDown, uint32(0), encodeCollFrames(map[uint32][]byte{0: one}))
	f.Add(uint8(6), uint8(0), uint8(200), uint8(9), uint32(1<<31), bytes.Repeat([]byte{0xff}, 16))
	f.Fuzz(func(t *testing.T, which, victim, kind, round uint8, src uint32, data []byte) {
		wave := waves[int(which)%len(waves)]
		w := NewWorld(Config{Ranks: p, SegmentSize: 1 << 16})
		defer w.Close()
		rk := w.Rank(Intrank(victim % p))
		sc := AcquirePersona(rk.MasterPersona())
		defer sc.Release()
		wave.enter(rk)
		_, inside := rk.coll.states[collKey{worldTeamID, 0}] // a broadcast's root is through at once
		payload := encodeCollMsg(collMsg{kind: kind, round: round, src: src, data: data})
		for i := 0; i < 2; i++ {
			w.handleColl(rk.ep, Intrank(src%p), payload, nil)
			rk.Progress()
		}
		if inside && (kind != wave.kind || src >= p) && w.Failed() == nil {
			t.Fatalf("wave %d on rank %d took a kind-%d message from team rank %d", which, victim%p, kind, src)
		}
	})
}

// FuzzGPtrDecode throws arbitrary bytes at the GPtr decoder: it must
// never accept a kind-mismatched pointer, and anything it does accept
// must re-encode to the identical canonical bytes.
func FuzzGPtrDecode(f *testing.F) {
	seed, _ := serial.Marshal(GPtr[float64]{Owner: 1, Kind: KindDevice, Dev: 2, Off: 128})
	f.Add(seed)
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xff}, 19))
	f.Fuzz(func(t *testing.T, data []byte) {
		var p GPtr[float64]
		if err := serial.Unmarshal(data, &p); err != nil {
			return
		}
		if !p.IsNil() && !gptrValid(int32(p.Owner), uint8(p.Kind), p.Dev) {
			t.Fatalf("decoder accepted inconsistent pointer %v from % x", p, data)
		}
		re, err := serial.Marshal(p)
		if err != nil {
			t.Fatalf("re-encode of accepted %v: %v", p, err)
		}
		if !bytes.Equal(re, data) {
			t.Fatalf("wire form not canonical: % x -> %v -> % x", data, p, re)
		}
	})
}
