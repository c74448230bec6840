package upcxx

import (
	"bytes"
	"fmt"
	"testing"

	"upcxx/internal/gasnet"
	"upcxx/internal/serial"
	"upcxx/internal/serial/serialtest"
)

// Fuzz targets for the kind-tagged GPtr wire form and the one RPC message.
// The seed corpus runs as ordinary unit tests on every `go test`; CI
// additionally runs each target with -fuzz for a short smoke window (see
// Makefile fuzz-smoke). The message is checked with the harness every wire
// format shares, serialtest.FuzzCanonical: hostile bytes never panic the
// decoder, and anything it accepts re-encodes to the identical canonical
// bytes.

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

// rpcWire is a decoded RPC message with its entries walked out.
type rpcWire struct {
	src     uint32
	entries []rpcEntry
	landing bool
	largs   []byte
}

func encodeRPCWire(m rpcWire) []byte {
	var land *[]byte
	if m.landing {
		land = &m.largs
	}
	return encodeMsg(Intrank(m.src), m.entries, land)
}

func decodeRPCWire(b []byte) (rpcWire, error) {
	m, err := decodeRPCMsg(b)
	w := rpcWire{src: m.src, landing: m.landing, largs: m.largs}
	for i := 0; err == nil && i < m.count; i++ {
		w.entries = append(w.entries, m.next())
	}
	return w, err
}

// FuzzRPCWire covers the one message the runtime sends: single,
// fire-and-forget and batched calls, replies, and landings riding a request.
// FuzzRemoteCxWire and FuzzCollWire fuzz its two internal uses.
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
			landing: true, largs: []byte{9, 9}}),
		encodeRPCWire(rpcWire{src: 2, entries: []rpcEntry{{kind: rpcReqKind, seq: 1}}, landing: true}),
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
		case len(m.entries) == 0 && !m.landing:
			return "a message with no entries and no landing"
		case m.src > 1<<31-1:
			return fmt.Sprintf("out-of-range sender %d", m.src)
		case replies != 0 && replies != len(m.entries):
			return "a mixed-direction message"
		case replies != 0 && m.landing:
			return "a reply with a landing"
		}
		return ""
	})
}

// FuzzRemoteCxWire covers the landing-only message a put or copy carries:
// zero entries, the initiator as sender, and the landing body's argument
// bytes as the trailer. decodeRPCMsg must admit zero entries only with a
// landing.
func FuzzRemoteCxWire(f *testing.F) {
	landing := func(src uint32, largs []byte) []byte {
		return encodeRPCWire(rpcWire{src: src, landing: true, largs: largs})
	}
	seeds := [][]byte{
		landing(0, nil),
		landing(3, []byte{1, 2, 3}),
		landing(1<<31-1, bytes.Repeat([]byte{0xaa}, 64)),
		{},
		{rpcMagic},
		// Hostile: huge uvarint landing length.
		{rpcMagic, rpcVersion, 1, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01},
		bytes.Repeat([]byte{0xff}, 24),
		// Hostile: zero entries and no landing.
		{rpcMagic, rpcVersion, 0, 0, 0, 0, 0, 0},
	}
	serialtest.FuzzCanonical(f, seeds,
		func(b []byte) (rpcWire, error) {
			m, err := decodeRPCWire(b)
			if err == nil && len(m.entries) != 0 {
				err = fmt.Errorf("%d entries, not a landing-only message", len(m.entries))
			}
			return m, err
		},
		encodeRPCWire,
		func(m rpcWire) string {
			switch {
			case !m.landing:
				return "a message with no entries and no landing"
			case m.src > 1<<31-1:
				return fmt.Sprintf("out-of-range initiator %d", m.src)
			}
			return ""
		})
}

// collWire is a decoded collective message: the sender of its one
// fire-and-forget entry and the entry's argument.
type collWire struct {
	src uint32
	m   collMsg
}

// FuzzCollWire covers the collective message: one fire-and-forget entry
// whose argument decodeCollMsg parses, in exactly the form encodeCollMsg
// writes.
func FuzzCollWire(f *testing.F) {
	// Unknown kind 200 on an otherwise well-formed message: the kind byte is
	// 16 bytes into the argument, which ends one byte (the empty landing)
	// before the message does.
	hostile := encodeCollMsg(1, collMsg{team: 1, seq: 1, kind: collReduce})
	hostile[len(hostile)-1-collHdrLen+16] = 200
	seeds := [][]byte{
		encodeCollMsg(0, collMsg{kind: collBarrier, round: collRoundUp}),
		encodeCollMsg(2, collMsg{team: 7, seq: 3, kind: collBcast, round: collRoundDown, src: 2, data: []byte{1, 2, 3}}),
		encodeCollMsg(1<<31-1, collMsg{team: 1 << 40, seq: 1 << 20, kind: collLand, round: collRoundUp,
			src: 1<<31 - 1, data: bytes.Repeat([]byte{0xaa}, 64)}),
		encodeCollMsg(5, collMsg{team: 9, seq: 1, kind: collAddr, round: collRoundDown, src: 5,
			data: encodeCollAddr(collBufAddr{kind: 1, dev: 2, off: 4096})}),
		{},
		{rpcMagic},
		bytes.Repeat([]byte{0xff}, 32),
		hostile,
	}
	serialtest.FuzzCanonical(f, seeds,
		func(b []byte) (collWire, error) {
			w, err := decodeRPCWire(b)
			if err != nil {
				return collWire{}, err
			}
			if len(w.entries) != 1 || w.entries[0].kind != rpcFFKind || w.landing {
				return collWire{}, fmt.Errorf("not one fire-and-forget entry without a landing")
			}
			m, err := decodeCollMsg(w.entries[0].args)
			return collWire{w.src, m}, err
		},
		func(c collWire) []byte { return encodeCollMsg(Intrank(c.src), c.m) },
		func(c collWire) string {
			switch {
			case c.m.kind == 0 || c.m.kind > collKindMax:
				return fmt.Sprintf("unknown kind %d", c.m.kind)
			case c.m.round > collRoundDown:
				return fmt.Sprintf("unknown round %d", c.m.round)
			case c.m.src > 1<<31-1:
				return fmt.Sprintf("out-of-range team rank %d", c.m.src)
			}
			return ""
		})
}

// FuzzCollArrive is the arrival-side counterpart of FuzzCollWire: a message
// that is well-formed on the wire but arbitrary in kind, round, claimed
// sender and payload reaches a rank that is inside each kind of wave,
// through the conduit handler with collArrive's token — twice, so that an
// arrival the walk accepts is also a duplicate. The walk must advance or
// fail the peer and never panic; a message of another collective's kind,
// or from a team rank that is no member, must fail the peer.
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
		payload := encodeCollMsg(Intrank(src%p), collMsg{kind: kind, round: round, src: src, data: data})
		for i := 0; i < 2; i++ {
			w.handleRPC(rk.ep, gasnet.Rank(src%p), payload, collCall)
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
