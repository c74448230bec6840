package upcxx

import (
	"fmt"
	"time"

	"upcxx/internal/gasnet"
	"upcxx/internal/obs"
	"upcxx/internal/serial"
)

// Collectives engine v2 (paper §III–§IV). Every collective — barrier,
// broadcast, reduction, allreduce, gather — is driven by a per-rank
// collEngine over pluggable tree topologies and routed through the same
// Rank.inject(ops, cxPlan) path as every RMA, copy and atomic: a
// collective round is a lowered operation (a header-carrying AM for
// value collectives, a kind-aware copy with the advance message
// piggybacked on the last landing hop for buffer collectives), never a
// bespoke side channel. That buys collectives the completion vocabulary
// for free: the …With entry points accept Cx descriptors, with
// operation completion delivered as futures/promises/LPCs to the
// *initiating* persona and RemoteCxAsRPC executed on the rank's
// execution persona the moment the collective's data has landed locally
// (for device operands, after the h2d DMA) — the barrier-free multicast
// signal.
//
// Personas: any persona may initiate a collective. Entry is handed off
// to the rank's execution persona (the progress persona in
// progress-thread mode, the master persona otherwise), which owns the
// engine state single-threadedly; completions route back to the
// initiating persona through its LPC queue, exactly like RMA
// completions. Collectives on one team must still be initiated in
// matching order across ranks — when several personas of one rank
// initiate on the same team, the application must order them.
//
// Topology is selected by Config.CollRadix: 0 picks a binomial tree
// (radix 2), k >= 2 a k-nomial tree of that radix, 1 the flat tree
// (root exchanges with every member directly); teams of at most
// collFlatMax ranks always use the flat tree, where one round beats
// tree depth.

// --- topologies ----------------------------------------------------------

// collTopo is one tree shape over the relative ranks 0..p-1 of a team
// (rooted at relative rank 0). Children and Parent must agree: c is in
// Children(rr, p) iff Parent(c, p) == rr, every non-root has exactly one
// parent, and every rank is reachable from the root — the properties
// TestCollTopologyTable pins for every shape and team size.
type collTopo interface {
	Name() string
	// Children returns the children of relative rank rr, each > rr.
	Children(rr, p int) []int
	// Parent returns the parent of relative rank rr > 0.
	Parent(rr, p int) int
}

// flatTopo is the one-round star: the root is every other rank's parent.
// Lowest latency for tiny teams; non-scalable fan-out for large ones.
type flatTopo struct{}

func (flatTopo) Name() string { return "flat" }

func (flatTopo) Children(rr, p int) []int {
	if rr != 0 {
		return nil
	}
	out := make([]int, 0, p-1)
	for c := 1; c < p; c++ {
		out = append(out, c)
	}
	return out
}

func (flatTopo) Parent(rr, p int) int { return 0 }

// knomialTopo is the k-nomial tree: relative rank rr's children are
// rr + d*k^i for every power k^i > rr and digit d in 1..k-1 that stays
// inside the team; the parent of rr > 0 clears rr's most significant
// base-k digit. Radix 2 is the binomial tree. Depth is the number of
// base-k digits of p-1, so larger radices trade tree depth for per-node
// fan-out (NIC gap serialization) — cmd/coll-bench sweeps the trade.
type knomialTopo struct{ radix int }

func (k knomialTopo) Name() string {
	if k.radix == 2 {
		return "binomial"
	}
	return fmt.Sprintf("%d-nomial", k.radix)
}

func (k knomialTopo) Children(rr, p int) []int {
	var out []int
	for step := 1; step < p; step *= k.radix {
		if step <= rr {
			continue
		}
		for d := 1; d < k.radix; d++ {
			c := rr + d*step
			if c >= p {
				break
			}
			out = append(out, c)
		}
	}
	return out
}

func (k knomialTopo) Parent(rr, p int) int {
	step := 1
	for step*k.radix <= rr {
		step *= k.radix
	}
	return rr - (rr/step)*step
}

// collFlatMax is the largest team that always uses the flat tree: at
// these sizes a single fan-out round beats any tree's depth.
const collFlatMax = 4

// topoForRadix maps a Config.CollRadix value and team size to the tree
// the engine uses. All ranks agree because the radix ships in Config.
func topoForRadix(radix, p int) collTopo {
	if radix == 1 || p <= collFlatMax {
		return flatTopo{}
	}
	if radix == 0 {
		radix = 2
	}
	return knomialTopo{radix: radix}
}

// CollTopoChildren exposes the engine's tree shape — the children of
// relative rank rr in a team of p under Config.CollRadix = radix — for
// tooling (cmd/coll-bench's closed-form LogGP model) and tests.
func CollTopoChildren(radix, rr, p int) []int {
	return topoForRadix(radix, p).Children(rr, p)
}

// autoRadixCandidates are the k-nomial radices AutoRadix compares. Radix
// 2 (binomial, maximal depth / minimal fan-out) anchors one end; 16
// (shallow, fan-out-heavy) the other.
var autoRadixCandidates = [...]int{2, 3, 4, 8, 16}

// CollTreeTime is the closed-form completion time of one small-message
// k-nomial broadcast round set over p ranks under model m: each parent
// serializes one (o + gap) per child on its NIC before the wire latency
// L, so larger radices trade tree depth against per-node fan-out. This
// is the same recurrence cmd/coll-bench plots against the measured
// engine; AutoRadix minimizes it.
func CollTreeTime(m gasnet.Model, radix, p, nbytes int) time.Duration {
	if p <= 1 {
		return 0
	}
	topo := topoForRadix(radix, p)
	// ready[rr] is when relative rank rr holds the payload; children of
	// rr receive at ready[rr] + (i+1)*(o+gap) + L in fan-out order. The
	// k-nomial child lists are ordered nearest-subtree-first, and every
	// child's relative rank exceeds its parent's, so one ascending pass
	// settles every rank.
	ready := make([]time.Duration, p)
	var last time.Duration
	for rr := 0; rr < p; rr++ {
		if ready[rr] > last {
			last = ready[rr]
		}
		t := ready[rr]
		for _, c := range topo.Children(rr, p) {
			t += m.Overhead(nbytes, false) + m.Gap(nbytes, false)
			ready[c] = t + m.Latency(nbytes, false)
		}
	}
	return last
}

// AutoRadix picks the collective radix for a job of p ranks from the
// machine model's o/g/L: the candidate k-nomial radix with the lowest
// modeled small-message broadcast completion time. Config.CollRadix = 0
// routes through here at world creation when a real-time model is
// configured, replacing the static binomial default; a model with no
// cost structure (every candidate ties at zero) keeps the default.
func AutoRadix(m gasnet.Model, p int) int {
	if m == nil || p <= collFlatMax {
		return 0
	}
	best, bestT := 0, time.Duration(-1)
	for _, k := range autoRadixCandidates {
		t := CollTreeTime(m, k, p, 8)
		if bestT < 0 || t < bestT {
			best, bestT = k, t
		}
	}
	if bestT == 0 {
		return 0 // zero-delay model: no trade to tune
	}
	return best
}

// --- wire format ---------------------------------------------------------

// Collective messages share one self-describing header, whether they
// travel as a lowered AM operation or piggybacked on a copy's last
// landing hop:
//
//	| magic 0xC6 | version 1 | team u64 | seq u64 | kind u8 | round u8 |
//	| src u32 LE | datalen uvarint | data |
//
// decodeCollMsg rejects anything malformed; FuzzCollWire hammers it with
// hostile bytes and checks the canonical round-trip property, exactly
// like FuzzRemoteCxWire does for the remote-cx header.

const (
	collMagic   = 0xC6
	collVersion = 1
)

// Collective message kinds.
const (
	collBarrier uint8 = 1 + iota // barrier arrive (up) / release (down)
	collBcast                    // broadcast payload, down the tree
	collReduce                   // reduction partial, up the tree
	collGather                   // flat gather part, to the root
	collAddr                     // operand/staging buffer address
	collLand                     // payload landed (piggybacked on a copy)
)

const collKindMax = collLand

// Rounds disambiguate direction within one kind.
const (
	collRoundUp uint8 = iota
	collRoundDown
)

func collKindName(k uint8) string {
	switch k {
	case collBarrier:
		return "barrier"
	case collBcast:
		return "bcast"
	case collReduce:
		return "reduce"
	case collGather:
		return "gather"
	case collAddr:
		return "addr"
	case collLand:
		return "land"
	default:
		return fmt.Sprintf("coll(%d)", k)
	}
}

// collMsg is one decoded collective message.
type collMsg struct {
	team  uint64
	seq   uint64
	kind  uint8
	round uint8
	src   uint32 // sender's team rank
	data  []byte
}

// encodeCollMsg builds the wire form.
func encodeCollMsg(m collMsg) []byte {
	e := serial.NewEncoder(make([]byte, 0, 28+len(m.data)))
	e.PutU8(collMagic)
	e.PutU8(collVersion)
	e.PutU64(m.team)
	e.PutU64(m.seq)
	e.PutU8(m.kind)
	e.PutU8(m.round)
	e.PutU32(m.src)
	e.PutUvarint(uint64(len(m.data)))
	e.PutRaw(m.data)
	return e.Bytes()
}

// decodeCollMsg parses and validates the wire form.
func decodeCollMsg(b []byte) (collMsg, error) {
	const format = "collective message"
	var m collMsg
	d := serial.NewDecoder(b)
	if err := d.Header(format, collMagic, collVersion); err != nil {
		return m, err
	}
	m.team = d.U64()
	m.seq = d.U64()
	m.kind = d.U8()
	m.round = d.U8()
	m.src = d.U32()
	var err error
	if m.data, err = d.Tail(format); err != nil {
		return m, err
	}
	if m.kind == 0 || m.kind > collKindMax {
		return m, fmt.Errorf("%s: unknown kind %d", format, m.kind)
	}
	if m.round > collRoundDown {
		return m, fmt.Errorf("%s: unknown round %d", format, m.round)
	}
	if m.src > 1<<31-1 {
		return m, fmt.Errorf("%s: sender team rank %d out of range", format, m.src)
	}
	return m, nil
}

// collBufAddr is the byte-level address of one rank's collective operand
// or staging slot within its own segments — the payload of collAddr
// messages and of the landing notices of buffer collectives. The owner
// is implicit (the message's sender/receiver).
type collBufAddr struct {
	kind uint8
	dev  uint16
	off  uint64
}

func (a collBufAddr) segID() gasnet.SegID {
	if MemKind(a.kind) == KindDevice {
		return gasnet.SegID(a.dev)
	}
	return gasnet.HostSeg
}

func encodeCollAddr(a collBufAddr) []byte {
	e := serial.NewEncoder(make([]byte, 0, 11))
	e.PutU8(a.kind)
	e.PutU16(a.dev)
	e.PutU64(a.off)
	return e.Bytes()
}

func decodeCollAddr(rk *Rank, b []byte) collBufAddr {
	d := serial.NewDecoder(b)
	a := collBufAddr{kind: d.U8(), dev: d.U16(), off: d.U64()}
	if d.Err() != nil || d.Finish() != nil {
		panic(fmt.Sprintf("upcxx: rank %d malformed collective buffer address", rk.me))
	}
	return a
}

// --- engine --------------------------------------------------------------

// collKey names one in-flight collective: team id plus the team's
// per-rank collective sequence number (assigned in entry order on the
// execution persona, so matching calls across ranks share a key).
type collKey struct {
	team uint64
	seq  uint64
}

// collState is the one generic per-collective state shape: messages that
// arrive before the local rank enters the collective buffer in the
// inbox; once entered, the collective registers recv and every message
// (buffered or live) flows through it. The per-collective logic lives in
// the recv closures — there are no per-kind state machines.
type collState struct {
	inbox []collMsg
	recv  func(collMsg)
}

// collEngine drives every collective of one rank. All state is owned by
// the rank's execution persona: entry bodies and message arrivals both
// route there (bodyQueue), so the maps and closures are single-threaded
// by construction no matter which persona initiates or which goroutine
// harvests the conduit.
type collEngine struct {
	rk     *Rank
	radix  int
	states map[collKey]*collState
	seqs   map[uint64]uint64 // per-team collective sequence numbers
}

func newCollEngine(rk *Rank, radix int) *collEngine {
	if radix < 0 {
		panic("upcxx: Config.CollRadix must be non-negative")
	}
	return &collEngine{
		rk:     rk,
		radix:  radix,
		states: make(map[collKey]*collState),
		seqs:   make(map[uint64]uint64),
	}
}

func (e *collEngine) topoFor(p int) collTopo { return topoForRadix(e.radix, p) }

func (e *collEngine) get(key collKey) *collState {
	st, ok := e.states[key]
	if !ok {
		st = &collState{}
		e.states[key] = st
	}
	return st
}

// enter hands one collective's entry to the execution persona: the
// sequence number is assigned there (in entry order), start installs the
// collective's recv, and any messages that arrived early are drained
// through it.
func (e *collEngine) enter(t *Team, start func(key collKey, st *collState)) {
	// Engine state must advance on exactly one goroutine. bodyQueue's
	// inline fallback for worlds driven without Run would execute bodies
	// on arbitrary calling/harvesting goroutines — fine for independent
	// RPC bodies, racy for the engine's maps — so collectives require a
	// held execution persona; fail loud (as the seed's master-persona
	// check did) instead of corrupting state. In progress-thread mode
	// bodyQueue always serializes onto the progress persona, held from
	// world construction.
	if !e.rk.w.cfg.ProgressThread && e.rk.master.holder.Load() == 0 {
		panic(fmt.Sprintf("upcxx: rank %d: collectives require a held master persona (use World.Run) or Config.ProgressThread", e.rk.me))
	}
	runOn(e.rk.execQueue(curGID()), func() { // a user call, not an AM handler
		seq := e.seqs[t.id]
		e.seqs[t.id] = seq + 1
		key := collKey{t.id, seq}
		st := e.get(key)
		start(key, st)
		for st.recv != nil && len(st.inbox) > 0 {
			m := st.inbox[0]
			st.inbox = st.inbox[1:]
			st.recv(m)
		}
	})
}

// onMsg advances one collective with an arrived message; runs only on
// the execution persona (see handleColl).
func (e *collEngine) onMsg(m collMsg) {
	st := e.get(collKey{m.team, m.seq})
	if st.recv == nil {
		st.inbox = append(st.inbox, m)
		return
	}
	st.recv(m)
}

// finish retires one collective and fires its completion plan: the
// remote-RPC descriptor (if not already fired at payload landing), then
// the operation deliveries to their initiating personas.
func (e *collEngine) finish(key collKey, st *collState, plan *cxPlan) {
	st.recv = nil
	delete(e.states, key)
	plan.collRemoteLocal()
	plan.collOpDone()
}

// handleColl is the conduit AM handler for collective traffic — both
// header AMs lowered through inject and landing notices piggybacked on
// copy hop chains arrive here. The message may be harvested by any
// goroutine making progress; the engine always advances on the
// execution persona.
func (w *World) handleColl(ep *gasnet.Endpoint, src gasnet.Rank, payload []byte, _ any) {
	rk := w.ranks[ep.Rank()]
	m, err := decodeCollMsg(payload)
	if err != nil {
		panic(fmt.Sprintf("upcxx: rank %d malformed collective message from %d: %v", rk.me, src, err))
	}
	runOn(rk.bodyQueue(nil), func() { rk.coll.onMsg(m) })
}

// sendMsg lowers one collective header hop to an AM operation and hands
// it to the single injection path. dest is a team rank.
func (e *collEngine) sendMsg(t *Team, dest Intrank, m collMsg) {
	if e.rk.ro != nil {
		e.rk.ro.CountOp(obs.KindCollRound)
	}
	e.rk.inject(e.rk.newInjection(t.ranks[dest]).single(rmaOp{
		kind:    opAM,
		dstPeer: t.ranks[dest],
		amID:    e.rk.w.amColl,
		buf:     encodeCollMsg(m),
	}))
}

// copyTo lowers one collective data hop — a kind-aware copy of nbytes
// from this rank's src buffer into dst on team rank dest — through
// inject, with the advance message piggybacked on the hop chain's final
// landing (after the destination's h2d DMA for device memory: the
// receiver provably observes the payload) and onOpDone delivered to the
// execution persona at initiator-side operation completion (the source
// bytes are stable until then).
func (e *collEngine) copyTo(t *Team, dest Intrank, src, dst collBufAddr, nbytes int, land collMsg, onOpDone func()) {
	rk := e.rk
	if rk.ro != nil {
		rk.ro.CountOp(obs.KindCollRound)
	}
	world := t.ranks[dest]
	inj := rk.newInjection(world)
	inj.remoteAM = &gasnet.RemoteAM{Handler: rk.w.amColl, Payload: encodeCollMsg(land)}
	inj.op = append(inj.op, cxDelivery{pers: rk.execPersona(), fn: onOpDone})
	rk.inject(inj.single(rmaOp{
		kind:    opCopy,
		srcPeer: rk.me,
		srcSeg:  src.segID(),
		srcOff:  src.off,
		dstPeer: world,
		dstSeg:  dst.segID(),
		dstOff:  dst.off,
		nbytes:  nbytes,
	}))
}

// fulfillFromEngine routes a value-promise fulfillment from the engine
// back to the promise's owning persona (inline when the engine persona
// is the owner, by LPC otherwise — the same edge RMA completions ride).
func fulfillFromEngine[T any](p *Promise[T], v T) {
	pers := p.c.pers
	if pers == nil || pers.onOwnerGoroutine() {
		p.fulfillOwnedResult(v)
		return
	}
	pers.LPC(func() { p.fulfillOwnedResult(v) })
}

// --- barrier -------------------------------------------------------------

// BarrierAsyncWith begins a non-blocking barrier over the team with an
// explicit completion set: an arrive wave gossips up the team's tree and
// a release wave fans back down. Operation completion fires at local
// release; a RemoteCxAsRPC descriptor runs on this rank's execution
// persona at that same edge, delivered from the arrival path.
func (t *Team) BarrierAsyncWith(cxs ...Cx) CxFutures {
	rk := t.rk
	plan := newCxPlan(rk, opColl, rk.me, cxs)
	e := rk.coll
	e.enter(t, func(key collKey, st *collState) { e.barrier(t, key, st, plan) })
	return plan.futs
}

func (e *collEngine) barrier(t *Team, key collKey, st *collState, plan *cxPlan) {
	p := int(t.RankN())
	if p == 1 {
		e.finish(key, st, plan)
		return
	}
	topo := e.topoFor(p)
	rr := int(t.me)
	children := topo.Children(rr, p)
	need, got := len(children), 0
	release := func() {
		for _, c := range children {
			e.sendMsg(t, Intrank(c), collMsg{team: key.team, seq: key.seq,
				kind: collBarrier, round: collRoundDown, src: uint32(t.me)})
		}
		e.finish(key, st, plan)
	}
	arrive := func() {
		if rr == 0 {
			release()
			return
		}
		e.sendMsg(t, Intrank(topo.Parent(rr, p)), collMsg{team: key.team, seq: key.seq,
			kind: collBarrier, round: collRoundUp, src: uint32(t.me)})
	}
	st.recv = func(m collMsg) {
		if m.kind != collBarrier {
			panic(fmt.Sprintf("upcxx: rank %d: unexpected %s message in a barrier", e.rk.me, collKindName(m.kind)))
		}
		if m.round == collRoundUp {
			got++
			if got == need {
				arrive()
			}
		} else {
			release()
		}
	}
	if need == 0 {
		arrive()
	}
}

// --- broadcast (value) ---------------------------------------------------

// BroadcastWith distributes root's value to every team member down the
// team's tree with an explicit completion set, returning the value
// future plus the requested completion futures. A RemoteCxAsRPC
// descriptor runs on each member's execution persona the moment the
// payload arrives there — even if that member's user code is still
// computing past the call — which is the barrier-free multicast signal.
func BroadcastWith[T any](t *Team, root Intrank, val T, cxs ...Cx) (Future[T], CxFutures) {
	rk := t.rk
	if root < 0 || root >= t.RankN() {
		panic(fmt.Sprintf("upcxx: Broadcast root %d out of range for %v", root, t))
	}
	plan := newCxPlan(rk, opColl, rk.me, cxs)
	prom := NewPromise[T](rk)
	e := rk.coll
	e.enter(t, func(key collKey, st *collState) {
		p := int(t.RankN())
		if p == 1 {
			fulfillFromEngine(prom, val)
			e.finish(key, st, plan)
			return
		}
		topo := e.topoFor(p)
		rr := (int(t.me) - int(root) + p) % p
		forward := func(data []byte) {
			for _, c := range topo.Children(rr, p) {
				child := Intrank((c + int(root)) % p)
				e.sendMsg(t, child, collMsg{team: key.team, seq: key.seq,
					kind: collBcast, src: uint32(t.me), data: data})
			}
		}
		if rr == 0 {
			forward(mustMarshal(val))
			fulfillFromEngine(prom, val)
			e.finish(key, st, plan)
			return
		}
		st.recv = func(m collMsg) {
			if m.kind != collBcast {
				panic(fmt.Sprintf("upcxx: rank %d: unexpected %s message in a broadcast", rk.me, collKindName(m.kind)))
			}
			forward(m.data)
			var v T
			mustUnmarshal(m.data, &v)
			fulfillFromEngine(prom, v)
			e.finish(key, st, plan)
		}
	})
	return prom.Future(), plan.futs
}

// --- reduction (value) ---------------------------------------------------

// ReduceOneWith combines every member's val with op up the team's tree,
// delivering the result at team rank 0 (other members' value futures
// ready with the zero value once their subtree partial is sent), with an
// explicit completion set. op must be associative and commutative.
func ReduceOneWith[T any](t *Team, val T, op func(T, T) T, cxs ...Cx) (Future[T], CxFutures) {
	rk := t.rk
	plan := newCxPlan(rk, opColl, rk.me, cxs)
	prom := NewPromise[T](rk)
	e := rk.coll
	e.enter(t, func(key collKey, st *collState) {
		p := int(t.RankN())
		if p == 1 {
			fulfillFromEngine(prom, val)
			e.finish(key, st, plan)
			return
		}
		topo := e.topoFor(p)
		rr := int(t.me)
		need, got := len(topo.Children(rr, p)), 0
		acc := val
		done := func() {
			if rr == 0 {
				fulfillFromEngine(prom, acc)
			} else {
				e.sendMsg(t, Intrank(topo.Parent(rr, p)), collMsg{team: key.team, seq: key.seq,
					kind: collReduce, src: uint32(t.me), data: mustMarshal(acc)})
				var zero T
				fulfillFromEngine(prom, zero)
			}
			e.finish(key, st, plan)
		}
		st.recv = func(m collMsg) {
			if m.kind != collReduce {
				panic(fmt.Sprintf("upcxx: rank %d: unexpected %s message in a reduction", rk.me, collKindName(m.kind)))
			}
			var v T
			mustUnmarshal(m.data, &v)
			acc = op(acc, v)
			got++
			if got == need {
				done()
			}
		}
		if need == 0 {
			done()
		}
	})
	return prom.Future(), plan.futs
}

// AllReduceWith combines every member's val with op and delivers the
// result to every member, with an explicit completion set: partials flow
// up the team's tree and the result fans back down the same tree within
// one collective (no separate broadcast call). A RemoteCxAsRPC
// descriptor runs on each member's execution persona when the result
// arrives there.
func AllReduceWith[T any](t *Team, val T, op func(T, T) T, cxs ...Cx) (Future[T], CxFutures) {
	rk := t.rk
	plan := newCxPlan(rk, opColl, rk.me, cxs)
	prom := NewPromise[T](rk)
	e := rk.coll
	e.enter(t, func(key collKey, st *collState) {
		p := int(t.RankN())
		if p == 1 {
			fulfillFromEngine(prom, val)
			e.finish(key, st, plan)
			return
		}
		topo := e.topoFor(p)
		rr := int(t.me)
		children := topo.Children(rr, p)
		need, got := len(children), 0
		acc := val
		down := func(data []byte, v T) {
			for _, c := range children {
				e.sendMsg(t, Intrank(c), collMsg{team: key.team, seq: key.seq,
					kind: collBcast, src: uint32(t.me), data: data})
			}
			fulfillFromEngine(prom, v)
			e.finish(key, st, plan)
		}
		up := func() {
			if rr == 0 {
				down(mustMarshal(acc), acc)
				return
			}
			e.sendMsg(t, Intrank(topo.Parent(rr, p)), collMsg{team: key.team, seq: key.seq,
				kind: collReduce, src: uint32(t.me), data: mustMarshal(acc)})
		}
		st.recv = func(m collMsg) {
			switch m.kind {
			case collReduce:
				var v T
				mustUnmarshal(m.data, &v)
				acc = op(acc, v)
				got++
				if got == need {
					up()
				}
			case collBcast:
				var v T
				mustUnmarshal(m.data, &v)
				down(m.data, v)
			default:
				panic(fmt.Sprintf("upcxx: rank %d: unexpected %s message in an allreduce", rk.me, collKindName(m.kind)))
			}
		}
		if need == 0 {
			up()
		}
	})
	return prom.Future(), plan.futs
}

// --- gather (flat) -------------------------------------------------------

// gatherBytesAt collects one byte payload per member at team rank root.
// The root's future yields the payloads indexed by team rank; other
// members' futures ready immediately with nil. Flat and therefore
// non-scalable; the runtime uses it for team construction and the Gather
// convenience, the tree collectives cover the scalable cases.
func gatherBytesAt(t *Team, root Intrank, data []byte) Future[[][]byte] {
	rk := t.rk
	if root < 0 || root >= t.RankN() {
		panic(fmt.Sprintf("upcxx: Gather root %d out of range for %v", root, t))
	}
	prom := NewPromise[[][]byte](rk)
	e := rk.coll
	e.enter(t, func(key collKey, st *collState) {
		p := int(t.RankN())
		plan := &cxPlan{rk: rk, remotePeer: rk.me}
		if p == 1 {
			fulfillFromEngine(prom, [][]byte{data})
			e.finish(key, st, plan)
			return
		}
		if t.me != root {
			e.sendMsg(t, root, collMsg{team: key.team, seq: key.seq,
				kind: collGather, src: uint32(t.me), data: data})
			fulfillFromEngine[[][]byte](prom, nil)
			e.finish(key, st, plan)
			return
		}
		parts := make(map[Intrank][]byte, p-1)
		st.recv = func(m collMsg) {
			if m.kind != collGather {
				panic(fmt.Sprintf("upcxx: rank %d: unexpected %s message in a gather", rk.me, collKindName(m.kind)))
			}
			parts[Intrank(m.src)] = m.data
			if len(parts) == p-1 {
				out := make([][]byte, p)
				out[root] = data
				for r, b := range parts {
					out[r] = b
				}
				fulfillFromEngine(prom, out)
				e.finish(key, st, plan)
			}
		}
	})
	return prom.Future()
}

// --- tree exchange (gather up, result down) -------------------------------

// collFrames encodes a set of (team rank, payload) frames — the unit a
// tree gather aggregates hop by hop.
func encodeCollFrames(frames map[uint32][]byte) []byte {
	e := serial.NewEncoder(nil)
	e.PutUvarint(uint64(len(frames)))
	for r, b := range frames {
		e.PutU32(r)
		e.PutUvarint(uint64(len(b)))
		e.PutRaw(b)
	}
	return e.Bytes()
}

func decodeCollFrames(rk *Rank, data []byte, into map[uint32][]byte) {
	d := serial.NewDecoder(data)
	n := d.Uvarint()
	for i := uint64(0); i < n && d.Err() == nil; i++ {
		r := d.U32()
		l := d.Uvarint()
		into[r] = d.Raw(int(l))
	}
	if d.Err() != nil || d.Finish() != nil {
		panic(fmt.Sprintf("upcxx: rank %d malformed tree-gather frame set", rk.me))
	}
}

// exchangeBytesTree is the non-blocking tree exchange team construction
// rides: every member contributes one byte payload; payloads aggregate
// up the team's tree (collGather rounds, each hop concatenating its
// subtree's frames), the root applies reduce to all p payloads indexed
// by team rank, and the result fans back down the same tree (collBcast
// rounds). The returned future yields the result bytes on every member.
// Contrast gatherBytesAt: the root absorbs its tree degree in messages
// instead of p-1, so team churn scales with the topology like every
// other collective.
func exchangeBytesTree(t *Team, data []byte, reduce func([][]byte) []byte) Future[[]byte] {
	rk := t.rk
	prom := NewPromise[[]byte](rk)
	e := rk.coll
	e.enter(t, func(key collKey, st *collState) {
		p := int(t.RankN())
		plan := &cxPlan{rk: rk, remotePeer: rk.me}
		if p == 1 {
			fulfillFromEngine(prom, reduce([][]byte{data}))
			e.finish(key, st, plan)
			return
		}
		topo := e.topoFor(p)
		rr := int(t.me)
		children := topo.Children(rr, p)
		frames := map[uint32][]byte{uint32(rr): data}
		need, got := len(children), 0
		down := func(res []byte) {
			for _, c := range children {
				e.sendMsg(t, Intrank(c), collMsg{team: key.team, seq: key.seq,
					kind: collBcast, round: collRoundDown, src: uint32(t.me), data: res})
			}
			fulfillFromEngine(prom, res)
			e.finish(key, st, plan)
		}
		up := func() {
			if rr == 0 {
				all := make([][]byte, p)
				for r, b := range frames {
					all[r] = b
				}
				down(reduce(all))
				return
			}
			e.sendMsg(t, Intrank(topo.Parent(rr, p)), collMsg{team: key.team, seq: key.seq,
				kind: collGather, round: collRoundUp, src: uint32(t.me), data: encodeCollFrames(frames)})
		}
		st.recv = func(m collMsg) {
			switch m.kind {
			case collGather:
				decodeCollFrames(rk, m.data, frames)
				got++
				if got == need {
					up()
				}
			case collBcast:
				down(m.data)
			default:
				panic(fmt.Sprintf("upcxx: rank %d: unexpected %s message in a tree exchange", rk.me, collKindName(m.kind)))
			}
		}
		if need == 0 {
			up()
		}
	})
	return prom.Future()
}

// --- kind-aware buffer collectives ---------------------------------------

// Buffer collectives operate on each member's own local operand — a
// GPtr of either memory kind — instead of marshaled values. Payloads
// move as kind-aware conduit copies (device legs ride the DMA engine;
// device data never bounces through host serialization), folds run
// through RunKernel for device operands, and the advance message
// piggybacks on each copy's final landing hop, so a device receiver's
// notification fires only after its h2d DMA.

// checkBufOperand validates a buffer-collective operand and lowers it.
func checkBufOperand[T serial.Scalar](rk *Rank, buf GPtr[T], op string) collBufAddr {
	if buf.IsNil() {
		panic("upcxx: " + op + " on nil GPtr")
	}
	if buf.Owner != rk.me {
		panic(fmt.Sprintf("upcxx: %s operand %v is not local to rank %d (each member passes its own buffer)", op, buf, rk.me))
	}
	buf.segID(op) // kind/device consistency
	return collBufAddr{kind: uint8(buf.Kind), dev: buf.Dev, off: buf.Off}
}

// BroadcastBufWith distributes the root's n-element buffer into every
// member's own local buffer (any memory kind; kinds may differ across
// ranks) down the team's tree. Each hop is one kind-aware conduit copy
// with the landing notice piggybacked, so a RemoteCxAsRPC descriptor
// runs on this rank's execution persona strictly after the payload is
// visible in its buffer — for device buffers, after the h2d DMA.
// Operation completion additionally waits until this rank's buffer has
// been forwarded to its subtree (the buffer may then be reused).
func BroadcastBufWith[T serial.Scalar](t *Team, root Intrank, buf GPtr[T], n int, cxs ...Cx) CxFutures {
	rk := t.rk
	if root < 0 || root >= t.RankN() {
		panic(fmt.Sprintf("upcxx: BroadcastBuf root %d out of range for %v", root, t))
	}
	addr := checkBufOperand(rk, buf, "BroadcastBuf")
	plan := newCxPlan(rk, opColl, rk.me, cxs)
	nb := n * serial.SizeOf[T]()
	e := rk.coll
	e.enter(t, func(key collKey, st *collState) { e.broadcastBuf(t, key, st, root, addr, nb, plan) })
	return plan.futs
}

func (e *collEngine) broadcastBuf(t *Team, key collKey, st *collState, root Intrank, buf collBufAddr, nbytes int, plan *cxPlan) {
	p := int(t.RankN())
	if p == 1 {
		e.finish(key, st, plan)
		return
	}
	topo := e.topoFor(p)
	rr := (int(t.me) - int(root) + p) % p
	nchild := len(topo.Children(rr, p))
	have := rr == 0
	sent, inflight := 0, 0
	tryFinish := func() {
		if have && sent == nchild && inflight == 0 {
			e.finish(key, st, plan)
		}
	}
	push := func(child Intrank, caddr collBufAddr) {
		sent++
		inflight++
		land := collMsg{team: key.team, seq: key.seq, kind: collLand, round: collRoundDown, src: uint32(t.me)}
		e.copyTo(t, child, buf, caddr, nbytes, land, func() { inflight--; tryFinish() })
	}
	if rr != 0 {
		// Rendezvous: tell the parent where my landing buffer lives.
		parent := Intrank((topo.Parent(rr, p) + int(root)) % p)
		e.sendMsg(t, parent, collMsg{team: key.team, seq: key.seq,
			kind: collAddr, round: collRoundUp, src: uint32(t.me), data: encodeCollAddr(buf)})
	}
	pending := make(map[Intrank]collBufAddr)
	st.recv = func(m collMsg) {
		switch m.kind {
		case collAddr:
			caddr := decodeCollAddr(e.rk, m.data)
			if have {
				push(Intrank(m.src), caddr)
			} else {
				pending[Intrank(m.src)] = caddr
			}
		case collLand:
			have = true
			// The payload is visible in my buffer (post-DMA for device
			// kinds): fire the member-side signal now, before forwarding.
			plan.collRemoteLocal()
			for c, a := range pending {
				push(c, a)
			}
			pending = nil
			tryFinish()
		default:
			panic(fmt.Sprintf("upcxx: rank %d: unexpected %s message in a buffer broadcast", e.rk.me, collKindName(m.kind)))
		}
	}
}

// collFoldHooks carries the element-typed pieces of a buffer reduction
// into the byte-addressed engine: staging allocation in the operand's
// own memory kind, the elementwise fold of a round's landed staging
// slots into the operand, and teardown. foldAll receives every landed
// slot of the round at once: device kinds fold them in one fused
// kernel launch riding the last child's landing (counted and costed
// via ChargeFusedFold), not one launch per child.
type collFoldHooks struct {
	allocStage func(slots int) collBufAddr
	freeStage  func()
	foldAll    func(slots []int)
}

// ReduceOneBufWith combines every member's n-element buffer elementwise
// with op up the team's tree, leaving the result in team rank 0's
// buffer. Device operands reduce device-resident: children's partials
// arrive as DMA-costed conduit copies into staging allocated from da and
// fold via RunKernel — the payload never bounces through host
// serialization. Non-root buffers are working accumulators and hold
// their subtree's partial afterwards. da is required for device
// operands (the owning allocator) and ignored for host operands.
func ReduceOneBufWith[T serial.Scalar](t *Team, da *DeviceAllocator, buf GPtr[T], n int, op func(T, T) T, cxs ...Cx) CxFutures {
	return reduceBufWith(t, da, buf, n, op, false, cxs)
}

// AllReduceBufWith is ReduceOneBufWith with the result fanned back down
// the same tree, leaving it in every member's buffer. A RemoteCxAsRPC
// descriptor runs on each member's execution persona when the result
// has landed in its buffer (post-DMA for device kinds).
func AllReduceBufWith[T serial.Scalar](t *Team, da *DeviceAllocator, buf GPtr[T], n int, op func(T, T) T, cxs ...Cx) CxFutures {
	return reduceBufWith(t, da, buf, n, op, true, cxs)
}

func reduceBufWith[T serial.Scalar](t *Team, da *DeviceAllocator, buf GPtr[T], n int, op func(T, T) T, allreduce bool, cxs []Cx) CxFutures {
	rk := t.rk
	opName := "ReduceOneBuf"
	if allreduce {
		opName = "AllReduceBuf"
	}
	addr := checkBufOperand(rk, buf, opName)
	if buf.Kind == KindDevice {
		if da == nil {
			panic("upcxx: " + opName + " over a device operand needs its DeviceAllocator")
		}
		if da.rk != rk || da.id != buf.Dev {
			panic(fmt.Sprintf("upcxx: %s operand %v is not in %v", opName, buf, da))
		}
	}
	plan := newCxPlan(rk, opColl, rk.me, cxs)
	nb := n * serial.SizeOf[T]()
	stage := NilGPtr[T]()
	hooks := collFoldHooks{
		allocStage: func(slots int) collBufAddr {
			if buf.Kind == KindDevice {
				stage = MustNewDeviceArray[T](da, n*slots)
			} else {
				stage = MustNewArray[T](rk, n*slots)
			}
			return collBufAddr{kind: uint8(stage.Kind), dev: stage.Dev, off: stage.Off}
		},
		freeStage: func() {
			if !stage.IsNil() {
				_ = Delete(rk, stage)
				stage = NilGPtr[T]()
			}
		},
		foldAll: func(slots []int) {
			if len(slots) == 0 {
				return
			}
			if buf.Kind == KindDevice {
				// One fused kernel for the whole round: the launch reads
				// every landed slot against the accumulator in a single
				// pass, charged to the device as one FoldGap occupancy.
				rk.ep.ChargeFusedFold(nb, len(slots))
				RunKernel(da, buf, n, func(dst []T) {
					RunKernel(da, stage, n*len(slots), func(src []T) {
						for _, slot := range slots {
							base := slot * n
							for i := range dst {
								dst[i] = op(dst[i], src[base+i])
							}
						}
					})
				})
				return
			}
			dst := Local(rk, buf, n)
			for _, slot := range slots {
				src := Local(rk, stage.Add(slot*n), n)
				for i := range dst {
					dst[i] = op(dst[i], src[i])
				}
			}
		},
	}
	e := rk.coll
	e.enter(t, func(key collKey, st *collState) {
		e.reduceBuf(t, key, st, addr, nb, hooks, allreduce, plan)
	})
	return plan.futs
}

func (e *collEngine) reduceBuf(t *Team, key collKey, st *collState, buf collBufAddr, nbytes int, hooks collFoldHooks, allreduce bool, plan *cxPlan) {
	rk := e.rk
	p := int(t.RankN())
	if p == 1 {
		e.finish(key, st, plan)
		return
	}
	topo := e.topoFor(p)
	rr := int(t.me) // rooted at team rank 0
	children := topo.Children(rr, p)
	slotOf := make(map[Intrank]int, len(children))
	childBuf := make(map[Intrank]collBufAddr, len(children))
	if len(children) > 0 {
		// Rendezvous: allocate one staging slot per child in the operand's
		// own memory kind and tell each child where to push its partial.
		stage := hooks.allocStage(len(children))
		for i, c := range children {
			slotOf[Intrank(c)] = i
			slot := collBufAddr{kind: stage.kind, dev: stage.dev, off: stage.off + uint64(i*nbytes)}
			e.sendMsg(t, Intrank(c), collMsg{team: key.team, seq: key.seq,
				kind: collAddr, round: collRoundDown, src: uint32(t.me), data: encodeCollAddr(slot)})
		}
	}
	downInflight := 0
	landedSlots := make([]int, 0, len(children))
	var parentSlot *collBufAddr
	pushed, pushDone, resultSeen, subtreeHandled := false, false, false, false
	finishLocal := func() {
		hooks.freeStage()
		e.finish(key, st, plan)
	}
	tryFinish := func() {
		switch {
		case rr == 0:
			if resultSeen && downInflight == 0 {
				finishLocal()
			}
		case !allreduce:
			if pushed && pushDone {
				finishLocal()
			}
		default:
			if pushDone && resultSeen && downInflight == 0 {
				finishLocal()
			}
		}
	}
	fanDown := func() {
		for _, c := range children {
			ct := Intrank(c)
			downInflight++
			land := collMsg{team: key.team, seq: key.seq, kind: collLand, round: collRoundDown, src: uint32(t.me)}
			e.copyTo(t, ct, buf, childBuf[ct], nbytes, land, func() { downInflight--; tryFinish() })
		}
		tryFinish()
	}
	maybeAdvance := func() {
		if subtreeHandled || len(landedSlots) != len(children) {
			return
		}
		if rr != 0 && parentSlot == nil {
			return
		}
		subtreeHandled = true
		if rr == 0 {
			if !allreduce {
				finishLocal()
				return
			}
			// The result sits in my buffer: signal locally, fan it down.
			resultSeen = true
			plan.collRemoteLocal()
			fanDown()
			return
		}
		// Push my subtree's partial into the parent's staging slot; the
		// landing notice carries my buffer address so an allreduce can fan
		// the result straight back into it.
		pushed = true
		up := collMsg{team: key.team, seq: key.seq, kind: collLand, round: collRoundUp,
			src: uint32(t.me), data: encodeCollAddr(buf)}
		e.copyTo(t, Intrank(topo.Parent(rr, p)), buf, *parentSlot, nbytes, up,
			func() { pushDone = true; tryFinish() })
	}
	st.recv = func(m collMsg) {
		switch m.kind {
		case collAddr:
			a := decodeCollAddr(rk, m.data)
			parentSlot = &a
			maybeAdvance()
		case collLand:
			if m.round == collRoundUp {
				// A child's subtree partial landed in its staging slot.
				// Folds are deferred to the round's last landing and run
				// fused: one launch over every landed slot, not one per
				// child.
				c := Intrank(m.src)
				i, ok := slotOf[c]
				if !ok {
					panic(fmt.Sprintf("upcxx: rank %d: reduction partial from unexpected team rank %d", rk.me, c))
				}
				childBuf[c] = decodeCollAddr(rk, m.data)
				landedSlots = append(landedSlots, i)
				if len(landedSlots) == len(children) {
					hooks.foldAll(landedSlots)
				}
				maybeAdvance()
				return
			}
			// The allreduce result landed in my buffer (post-DMA): signal,
			// then forward it to my subtree.
			resultSeen = true
			plan.collRemoteLocal()
			fanDown()
		default:
			panic(fmt.Sprintf("upcxx: rank %d: unexpected %s message in a buffer reduction", rk.me, collKindName(m.kind)))
		}
	}
	maybeAdvance()
}
