package upcxx

import (
	"encoding/binary"
	"fmt"
	"slices"
	"time"

	"upcxx/internal/gasnet"
	"upcxx/internal/obs"
	"upcxx/internal/serial"
)

// Collectives (paper §III–§IV). Every collective — barrier, broadcast,
// reduction, allreduce, gather — is driven by a per-rank collEngine over one
// tree shape, and every round is an ordinary operation on the Rank.inject
// path: an RPC message of one collArrive entry for the value collectives, a
// kind-aware copy carrying that message to its last landing hop for the
// buffer collectives. The …With entry points take Cx descriptors: operation
// completion goes to the *initiating* persona, and RemoteCxAsRPC runs on
// the rank's execution persona the moment the collective's data has landed
// locally (after the h2d DMA for device operands) — the barrier-free
// multicast signal. Any persona may initiate; entry is handed to the
// execution persona, which owns the engine state. Collectives on one team
// must be initiated in matching order across ranks, and the application
// orders several personas of one rank initiating on the same team.

// --- the tree --------------------------------------------------------------

// Every collective walks one shape: the k-nomial tree over the relative
// ranks 0..p-1 of a team, rooted at relative rank 0. Relative rank rr's
// children are rr + d*k^i for every power k^i > rr and digit d in 1..k-1
// that stays inside the team; the parent of rr > 0 clears rr's most
// significant base-k digit. The two agree — c is in knomialChildren(k, rr,
// p) iff knomialParent(k, c) == rr, every non-root has exactly one parent
// and every rank is reachable from the root: the properties
// TestCollTopologyTable pins for every radix and team size. Radix 2 is the
// binomial tree. Depth is the number of base-k digits of p-1, so larger
// radices trade tree depth for per-node fan-out (NIC gap serialization) —
// cmd/coll-bench sweeps the trade — and a radix of p or more is the
// one-digit case: the flat star, the root every other rank's parent.

// knomialChildren returns the children of relative rank rr, each > rr,
// nearest subtree first.
func knomialChildren(k, rr, p int) []int {
	var out []int
	for step := 1; step < p; step *= k {
		if step <= rr {
			continue
		}
		for d := 1; d < k; d++ {
			c := rr + d*step
			if c >= p {
				break
			}
			out = append(out, c)
		}
	}
	return out
}

// knomialParent returns the parent of relative rank rr > 0.
func knomialParent(k, rr int) int {
	step := 1
	for step*k <= rr {
		step *= k
	}
	return rr - (rr/step)*step
}

// collFlatMax is the largest team that always uses the flat tree: at
// these sizes a single fan-out round beats any tree's depth.
const collFlatMax = 4

// treeRadix maps a Config.CollRadix value and team size to the radix the
// engine walks: 0 picks the binomial tree (radix 2), k >= 2 the k-nomial
// tree of that radix, 1 the flat tree (root exchanges with every member
// directly), and teams of at most collFlatMax ranks are always flat. All
// ranks agree because the radix ships in Config.
func treeRadix(radix, p int) int {
	switch {
	case radix == 1 || p <= collFlatMax:
		return max(p, 2) // flat
	case radix == 0:
		return 2
	}
	return radix
}

// CollTopoChildren exposes the engine's tree shape — the children of
// relative rank rr in a team of p under Config.CollRadix = radix — for
// tooling (cmd/coll-bench's closed-form LogGP model) and tests.
func CollTopoChildren(radix, rr, p int) []int {
	return knomialChildren(treeRadix(radix, p), rr, p)
}

// treePos is one member's place in a team's tree, rotated so that team
// rank root sits at relative rank 0. It answers what every collective asks
// — whom do I fan out to, whom do I report to, and is the team rank a
// message claims one of those — so root rotation is written once.
type treePos struct {
	p, k     int
	root, rr int   // the root's team rank; my relative rank
	children []int // relative ranks, in fan-out order
}

func (e *collEngine) treePos(t *Team, root Intrank) treePos {
	p := len(t.ranks)
	k := treeRadix(e.radix, p)
	rr := (int(t.me) - int(root) + p) % p
	kids, ok := e.children[[3]int{k, rr, p}]
	if !ok {
		kids = knomialChildren(k, rr, p)
		e.children[[3]int{k, rr, p}] = kids
	}
	return treePos{p: p, k: k, root: int(root), rr: rr, children: kids}
}

// teamRank maps a relative rank back to a team rank.
func (tp *treePos) teamRank(rel int) Intrank { return Intrank((rel + tp.root) % tp.p) }

// parent returns the team rank this member (not the root) reports to.
func (tp *treePos) parent() Intrank { return tp.teamRank(knomialParent(tp.k, tp.rr)) }

// isParent reports whether src, a team rank off the wire, is my parent.
func (tp *treePos) isParent(src uint32) bool { return tp.rr != 0 && Intrank(src) == tp.parent() }

// childIndex returns which of my children src, a team rank off the wire,
// is, or -1 when it is none of them (or no member at all).
func (tp *treePos) childIndex(src uint32) int {
	if int(src) >= tp.p {
		return -1
	}
	return slices.Index(tp.children, (int(src)-tp.root+tp.p)%tp.p)
}

// autoRadixCandidates are the k-nomial radices AutoRadix compares. Radix
// 2 (binomial, maximal depth / minimal fan-out) anchors one end; 16
// (shallow, fan-out-heavy) the other.
var autoRadixCandidates = [...]int{2, 3, 4, 8, 16}

// CollTreeTime is the closed-form time for the last leaf of the engine's
// tree (radix as Config.CollRadix) to receive a broadcast of nbytes over p
// ranks under model m: every hop pays injection overhead o plus wire
// latency L, and each parent serializes its children on the NIC gap, so
// larger radices trade tree depth against per-node fan-out. AutoRadix
// minimizes it, and cmd/coll-bench plots it beside the measured rounds.
func CollTreeTime(m *gasnet.LogGP, radix, p, nbytes int) time.Duration {
	if p <= 1 {
		return 0
	}
	k := treeRadix(radix, p)
	o, gap, l := m.Overhead(nbytes, false), m.Gap(nbytes, false), m.Latency(nbytes, false)
	// ready[rr] is when relative rank rr holds the payload; child i of rr (in
	// fan-out order) receives at ready[rr] + o + (i+1)*gap + L. Every child's
	// relative rank exceeds its parent's, so one ascending pass settles
	// every rank.
	ready := make([]time.Duration, p)
	var last time.Duration
	for rr := 0; rr < p; rr++ {
		last = max(last, ready[rr])
		for i, c := range knomialChildren(k, rr, p) {
			ready[c] = ready[rr] + o + time.Duration(i+1)*gap + l
		}
	}
	return last
}

// AutoRadix picks the collective radix for a job of p ranks from the
// machine model's o/g/L: the candidate k-nomial radix with the lowest
// modeled small-message broadcast completion time. Config.CollRadix = 0
// routes through here at world creation when a timing model is
// configured, replacing the static binomial default; a model with no
// cost structure (every candidate ties at zero) keeps the default.
func AutoRadix(m *gasnet.LogGP, p int) int {
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

// A collective message is an RPC message (rpc.go) of one fire-and-forget
// collArrive entry, whose argument is
//
//	| team u64 | seq u64 | kind u8 | round u8 | src u32 LE | data |
//
// with data running to the end of the entry. decodeCollMsg rejects anything
// malformed; FuzzCollWire fuzzes the message's wire form, and
// FuzzCollArrive throws them at a rank inside each wave.

const collHdrLen = 22 // team, seq, kind, round, src

// Collective message kinds.
const (
	collBarrier uint8 = 1 + iota // barrier arrive (up) / release (down)
	collBcast                    // broadcast payload, down the tree
	collReduce                   // reduction partial (up) / allreduce result (down)
	collGather                   // a subtree's frames (up) / every member's (down)
	collAddr                     // operand/staging buffer address
	collLand                     // payload landed (piggybacked on a copy)
)

const collKindMax = collLand

// Rounds disambiguate direction within one kind.
const (
	collRoundUp uint8 = iota
	collRoundDown
)

// collKindNames names the kinds in errors; decodeCollMsg admits no others.
var collKindNames = [...]string{collBarrier: "barrier", collBcast: "bcast", collReduce: "reduce",
	collGather: "gather", collAddr: "addr", collLand: "land"}

// collMsg is one decoded collective message.
type collMsg struct {
	team  uint64
	seq   uint64
	kind  uint8
	round uint8
	src   uint32 // sender's team rank, as it claims: checked where the message is acted on
	data  []byte

	from Intrank // the conduit's sender (a world rank, not on the wire): whom to fail
}

// collStray is the error for a well-formed message the collective it
// names cannot act on: the wrong kind for it, or a sender that is not the
// tree neighbour the collective is waiting for.
func collStray(m collMsg, in string) error {
	return fmt.Errorf("collective message: stray %s (round %d) from team rank %d in a %s",
		collKindNames[m.kind], m.round, m.src, in)
}

// encodeCollMsg builds the RPC message that carries m from world rank from,
// in one buffer.
func encodeCollMsg(from Intrank, m collMsg) []byte {
	var h [collHdrLen]byte
	binary.LittleEndian.PutUint64(h[0:], m.team)
	binary.LittleEndian.PutUint64(h[8:], m.seq)
	h[16], h[17] = m.kind, m.round
	binary.LittleEndian.PutUint32(h[18:], m.src)
	return encodeFFMsg(from, h[:], m.data)
}

// decodeCollMsg parses and validates a collArrive argument.
func decodeCollMsg(b []byte) (collMsg, error) {
	const format = "collective message"
	var m collMsg
	if len(b) < collHdrLen {
		return m, fmt.Errorf("%s: %d bytes, short of its %d-byte header", format, len(b), collHdrLen)
	}
	d := serial.NewDecoder(b)
	m.team = d.U64()
	m.seq = d.U64()
	m.kind = d.U8()
	m.round = d.U8()
	m.src = d.U32()
	m.data = d.Raw(d.Remaining())
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

func decodeCollAddr(b []byte) (collBufAddr, error) {
	d := serial.NewDecoder(b)
	a := collBufAddr{kind: d.U8(), dev: d.U16(), off: d.U64()}
	if d.Err() != nil || d.Finish() != nil {
		return a, fmt.Errorf("collective message: malformed buffer address")
	}
	return a, nil
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
// (buffered or live) flows through it. recv is the wave itself for the
// value collectives and a rendezvous machine's closure for the buffer pair;
// an error from it means the message cannot be acted on and fails its sender.
type collState struct {
	inbox []collMsg
	recv  interface{ arrive(collMsg) error }
}

// A collective as the engine enters it: start runs once, on the execution persona.
type collective interface {
	start(key collKey, st *collState)
}

// machine and recvFunc carry a buffer collective's closures to the engine.
type machine func(key collKey, st *collState)
type recvFunc func(collMsg) error

func (m machine) start(key collKey, st *collState) { m(key, st) }
func (f recvFunc) arrive(m collMsg) error          { return f(m) }

// collEngine drives every collective of one rank. All state is owned by
// the rank's execution persona: entry bodies and message arrivals both
// route there (bodyQueue), so the maps and closures are single-threaded
// by construction no matter which persona initiates or which goroutine
// harvests the conduit.
type collEngine struct {
	rk       *Rank
	radix    int
	states   map[collKey]*collState
	seqs     map[uint64]uint64 // per-team collective sequence numbers
	children map[[3]int][]int  // knomialChildren by radix, relative rank, team size
}

func newCollEngine(rk *Rank, radix int) *collEngine {
	if radix < 0 {
		panic("upcxx: Config.CollRadix must be non-negative")
	}
	return &collEngine{
		rk:       rk,
		radix:    radix,
		states:   make(map[collKey]*collState),
		seqs:     make(map[uint64]uint64),
		children: make(map[[3]int][]int),
	}
}

// enter hands one collective's entry to the execution persona: the
// sequence number is assigned there (in entry order), st — the collective's
// own — takes over any messages that arrived early, start installs the
// collective's recv, and the early messages are drained through it.
func (e *collEngine) enter(t *Team, st *collState, c collective) {
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
	if q := e.rk.bodyQueue(nil); q != nil {
		q.queueBody(func() { e.begin(t, st, c) })
	} else {
		e.begin(t, st, c)
	}
}

func (e *collEngine) begin(t *Team, st *collState, c collective) {
	seq := e.seqs[t.id]
	e.seqs[t.id] = seq + 1
	key := collKey{t.id, seq}
	if early := e.states[key]; early != nil {
		st.inbox = early.inbox
	}
	e.states[key] = st
	c.start(key, st)
	for st.recv != nil && len(st.inbox) > 0 {
		m := st.inbox[0]
		st.inbox = st.inbox[1:]
		e.onMsg(m)
	}
}

// onMsg advances one collective with an arrived message; runs only on
// the execution persona (see collArrive). A message the collective cannot
// act on is its sender's fault: the peer is failed (World.Failed, every
// blocked wait) and the progress goroutine lives on.
func (e *collEngine) onMsg(m collMsg) {
	st := e.states[collKey{m.team, m.seq}]
	if st == nil {
		st = &collState{}
		e.states[collKey{m.team, m.seq}] = st
	}
	if st.recv == nil {
		st.inbox = append(st.inbox, m)
	} else if err := st.recv.arrive(m); err != nil {
		e.rk.failPeer(m.from, err)
	}
}

// finish retires one collective and fires its completion plan: the
// remote-RPC descriptor (if not already fired at payload landing), then
// the operation deliveries to their initiating personas.
func (e *collEngine) finish(key collKey, st *collState, plan *cxPlan) {
	st.recv = nil
	delete(e.states, key)
	plan.collRemoteLocal()
	plan.obsDone()
	plan.deliver(plan.op, true)
}

// collArrive is the body of every collective message, registered at init so
// its entries cross a process boundary by name. Addressed to no persona, it
// runs on the execution persona, where the engine advances, whichever
// goroutine harvested the message; one that does not decode fails its sender.
func collArrive(trk *Rank, from Intrank, _ uint64, args []byte, _ bool, out replyMsg) replyMsg {
	m, err := decodeCollMsg(args)
	if err != nil {
		trk.failPeer(from, err)
		return out
	}
	m.from = from
	trk.coll.onMsg(m)
	return out
}

// collCall is the token every collective message travels with.
var collCall *rpcAux

func init() {
	registerEntry(collArrive, rpcBody{kind: rpcFFKind, run: collArrive})
	collCall = registered(collArrive).call
}

// sendMsg sends one collective header hop as a one-way message (sendAM):
// it has no completion of its own to deliver. dest is a team rank.
func (e *collEngine) sendMsg(t *Team, dest Intrank, m collMsg) {
	if e.rk.ro != nil {
		e.rk.ro.Add(obs.KindCollRound.Ops(), 1)
	}
	e.rk.sendAM(t.ranks[dest], encodeCollMsg(e.rk.me, m), nil, collCall)
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
		rk.ro.Add(obs.KindCollRound.Ops(), 1)
	}
	world := t.ranks[dest]
	inj := rk.newInjection(world)
	inj.notice = &gasnet.RemoteAM{Handler: rk.w.amRPC, Payload: encodeCollMsg(rk.me, land), Aux: collCall}
	inj.op = append(inj.op, cxDelivery{pers: rk.execPersona(), fn: onOpDone})
	op := inj.single()
	op.kind, op.nbytes = obs.KindCopy, nbytes
	op.srcPeer, op.srcSeg, op.srcOff = rk.me, src.segID(), src.off
	op.dstPeer, op.dstSeg, op.dstOff = world, dst.segID(), dst.off
	rk.inject(inj, nil)
}

// --- the wave --------------------------------------------------------------

// wave is the one walk every value collective takes over the team's tree:
// contributions fold up to the root, the root's result fans back down. A
// collective only declares what moves — the walk owns where it moves: the
// member's place in the tree, counting children in, checking each arrival
// against the tree, the fan-out and retiring the collective. A one-member
// team is a root with no children; nothing below treats it apart.
type wave struct {
	t    *Team
	plan cxPlan
	ops  [1]cxDelivery // backs plan.op: a collective's one delivery, as a rule

	// Declared by the collective. kind is the one message kind it sends and
	// accepts. up: every member reports to its parent once its children
	// have. down: the root's partial, the result, fans back down the same
	// tree. vals is the typed side (nil: nothing to carry, a barrier).
	kind     uint8
	up, down bool
	vals     waveValues

	// Owned by the walk, on the execution persona.
	e *collEngine
	treePos
	key      collKey
	st       collState
	reported []bool   // per child: its contribution is in
	few      [16]bool // backs reported up to 16 children
	got      int
	awaiting bool // my part of the way up is done: the parent's result is next
}

// waveValues is what a value collective carries: fold absorbs one child's
// payload, partial is what this member's subtree amounts to once its
// children are in, and done is the typed end, called once with what came
// down from the parent (nil at the root, which holds the result itself, and
// on every member of an up-only collective). fold and done see bytes a peer
// chose; an error from either fails that peer.
type waveValues interface {
	fold(data []byte) error
	partial() []byte
	done(data []byte) error
}

// enter roots w at team rank root and enters the collective
// (collEngine.enter); start places it on the tree.
func (w *wave) enter(root Intrank) {
	if root < 0 || root >= w.t.RankN() {
		panic(fmt.Sprintf("upcxx: %s root %d out of range for %v", collKindNames[w.kind], root, w.t))
	}
	w.e, w.root = w.t.rk.coll, int(root)
	w.e.enter(w.t, &w.st, w)
}

func (w *wave) start(key collKey, st *collState) {
	w.key, w.treePos = key, w.e.treePos(w.t, Intrank(w.root))
	st.recv = w
	if w.up && len(w.children) > 0 {
		if w.reported = w.few[:]; len(w.children) > len(w.few) {
			w.reported = make([]bool, len(w.children))
		}
		return
	}
	if err := w.turn(); err != nil {
		// No peer has been heard yet: this member's own contribution is
		// what its typed end refused.
		w.e.rk.failPeer(w.e.rk.me, err)
	}
}

// arrive is the single point where a message meets the collective it names:
// right kind, and from the tree neighbour the walk is waiting for — a child
// that has not reported yet, or the parent once this member has. Team ranks
// off the wire are only ever compared against the tree, never indexed with.
func (w *wave) arrive(m collMsg) error {
	i := w.childIndex(m.src)
	switch {
	case m.kind == w.kind && m.round == collRoundDown && w.awaiting && w.isParent(m.src):
		return w.end(m.data)
	case m.kind == w.kind && m.round == collRoundUp && w.reported != nil && i >= 0 && !w.reported[i]:
		if w.vals != nil {
			if err := w.vals.fold(m.data); err != nil {
				return err
			}
		}
		w.reported[i] = true
		if w.got++; w.got == len(w.children) {
			return w.turn()
		}
		return nil
	}
	return collStray(m, collKindNames[w.kind])
}

// turn runs once everything below this member is in (at once on a leaf and
// in a down-only collective): report up, or at the root turn the wave round.
func (w *wave) turn() error {
	if w.rr != 0 && !w.up {
		w.awaiting = true
		return nil
	}
	var data []byte
	if w.vals != nil && (w.rr != 0 || w.down && len(w.children) > 0) {
		data = w.vals.partial()
	}
	if w.rr == 0 {
		return w.end(data)
	}
	w.send(w.parent(), collRoundUp, data)
	w.awaiting = w.down
	if w.down {
		return nil
	}
	return w.end(nil)
}

// end is this member's last step: the result goes on to its children
// before anything local (they are waiting, the local end is not), the typed
// end consumes it, and the collective retires — operation completions and
// the RemoteCxAsRPC landing signal fire from finish.
func (w *wave) end(data []byte) error {
	if w.down {
		for _, c := range w.children {
			w.send(w.teamRank(c), collRoundDown, data)
		}
	}
	if w.vals != nil {
		if err := w.vals.done(data); err != nil {
			return err
		}
	}
	w.e.finish(w.key, &w.st, &w.plan)
	return nil
}

func (w *wave) send(dest Intrank, round uint8, data []byte) {
	w.e.sendMsg(w.t, dest, collMsg{team: w.key.team, seq: w.key.seq,
		kind: w.kind, round: round, src: uint32(w.t.me), data: data})
}

// --- barrier, broadcast, reduction (values) --------------------------------

// BarrierAsyncWith begins a non-blocking barrier over the team with an
// explicit completion set: an arrive wave gossips up the team's tree and
// a release wave fans back down — the wave with nothing to fold and
// nothing to fan. Operation completion fires at local release; a
// RemoteCxAsRPC descriptor runs on this rank's execution persona at that
// same edge, delivered from the arrival path.
func (t *Team) BarrierAsyncWith(cxs ...Cx) CxFutures {
	w := &wave{t: t, kind: collBarrier, up: true, down: true}
	futs := w.plan.initColl(t.rk, cxs, w.ops[:0]).futs
	w.enter(0)
	return futs
}

// valueColl is a typed value collective: val is this member's contribution
// and, folded with op as its children report, its subtree's partial (op nil:
// nothing goes up, a broadcast); with down the root's value reaches every
// member, without it the members other than the root end with the zero
// value once their partial is sent.
type valueColl[T any] struct {
	wave
	val  T
	op   func(T, T) T
	prom *Promise[T]
}

func valueWave[T any](t *Team, kind uint8, root Intrank, val T, op func(T, T) T, down bool, cxs []Cx) (Future[T], CxFutures) {
	v := &valueColl[T]{val: val, op: op, prom: NewPromise[T](t.rk)}
	v.wave = wave{t: t, kind: kind, up: op != nil, down: down, vals: v}
	futs := v.plan.initColl(t.rk, cxs, v.ops[:0]).futs
	v.enter(root)
	return v.prom.Future(), futs
}

func (v *valueColl[T]) fold(data []byte) error {
	var x T
	if err := serial.For[T]().Decode(data, &x); err != nil {
		return err
	}
	v.val = v.op(v.val, x)
	return nil
}

func (v *valueColl[T]) partial() []byte { return mustMarshal(v.val) }

func (v *valueColl[T]) done(data []byte) error {
	if v.rr != 0 {
		var res T
		if v.down {
			if err := serial.For[T]().Decode(data, &res); err != nil {
				return err
			}
		}
		v.val = res
	}
	v.prom.fulfilHere(v.val)
	return nil
}

// BroadcastWith distributes root's value to every team member down the
// team's tree with an explicit completion set, returning the value
// future plus the requested completion futures. A RemoteCxAsRPC
// descriptor runs on each member's execution persona the moment the
// payload arrives there — even if that member's user code is still
// computing past the call — which is the barrier-free multicast signal.
func BroadcastWith[T any](t *Team, root Intrank, val T, cxs ...Cx) (Future[T], CxFutures) {
	return valueWave(t, collBcast, root, val, nil, true, cxs)
}

// ReduceOneWith combines every member's val with op up the team's tree,
// delivering the result at team rank 0 (other members' value futures
// ready with the zero value once their subtree partial is sent), with an
// explicit completion set. op must be associative and commutative.
func ReduceOneWith[T any](t *Team, val T, op func(T, T) T, cxs ...Cx) (Future[T], CxFutures) {
	return valueWave(t, collReduce, 0, val, op, false, cxs)
}

// AllReduceWith combines every member's val with op and delivers the
// result to every member, with an explicit completion set: partials flow
// up the team's tree and the result fans back down the same tree within
// one collective (no separate broadcast call). A RemoteCxAsRPC
// descriptor runs on each member's execution persona when the result
// arrives there.
func AllReduceWith[T any](t *Team, val T, op func(T, T) T, cxs ...Cx) (Future[T], CxFutures) {
	return valueWave(t, collReduce, 0, val, op, true, cxs)
}

// --- gather -----------------------------------------------------------------

// A tree gather aggregates (team rank, payload) frames hop by hop: a
// member's partial is the frame set of its subtree.
func encodeCollFrames(frames map[uint32][]byte) []byte {
	e := serial.NewEncoder(nil)
	e.PutUvarint(uint64(len(frames)))
	for r, b := range frames {
		e.PutU32(r)
		e.PutBytes(b)
	}
	return e.Bytes()
}

// decodeCollFrames adds a peer's frame set to into: every frame must name
// a member of the team of p that into does not hold yet.
func decodeCollFrames(data []byte, p int, into map[uint32][]byte) error {
	d := serial.NewDecoder(data)
	n := d.Uvarint()
	for i := uint64(0); i < n && d.Err() == nil; i++ {
		r, b := d.U32(), d.Bytes()
		if _, dup := into[r]; dup || int(r) >= p {
			return fmt.Errorf("collective message: gather frame for team rank %d, a duplicate or outside the team of %d", r, p)
		}
		into[r] = b
	}
	if d.Err() != nil || d.Finish() != nil {
		return fmt.Errorf("collective message: malformed gather frame set")
	}
	return nil
}

// gatherColl is the gather every byte-level exchange rides — Gather,
// AllGather and team construction: each member contributes its frame, the
// frame sets aggregate up the tree to team rank root (which absorbs its
// tree degree in messages, not p-1), and with down the whole set fans back.
// The future yields reduce of the p payloads indexed by team rank — at the
// root, and with down on every member, which applies reduce itself; on the
// other members of an up-only gather it readies with the zero value once
// their frames are sent. reduce judges bytes peers chose: an error from it
// fails the peer that delivered them.
type gatherColl[R any] struct {
	wave
	frames map[uint32][]byte
	reduce func(all [][]byte) (R, error)
	prom   *Promise[R]
}

func gatherBytes[R any](t *Team, root Intrank, data []byte, down bool, reduce func(all [][]byte) (R, error)) Future[R] {
	g := &gatherColl[R]{frames: map[uint32][]byte{uint32(t.me): data}, reduce: reduce, prom: NewPromise[R](t.rk)}
	g.wave = wave{t: t, plan: cxPlan{rk: t.rk, remotePeer: t.rk.me}, kind: collGather, up: true, down: down, vals: g}
	g.enter(root)
	return g.prom.Future()
}

func (g *gatherColl[R]) fold(b []byte) error { return decodeCollFrames(b, g.p, g.frames) }
func (g *gatherColl[R]) partial() []byte     { return encodeCollFrames(g.frames) }

func (g *gatherColl[R]) done(b []byte) error {
	var res R
	if g.rr != 0 {
		if !g.down {
			g.prom.fulfilHere(res)
			return nil
		}
		clear(g.frames)
		if err := decodeCollFrames(b, g.p, g.frames); err != nil {
			return err
		}
	}
	if len(g.frames) != g.p {
		return fmt.Errorf("collective message: gather ended with %d of %d contributions", len(g.frames), g.p)
	}
	all := make([][]byte, g.p)
	for r, b := range g.frames {
		all[r] = b
	}
	res, err := g.reduce(all)
	if err == nil {
		g.prom.fulfilHere(res)
	}
	return err
}

// gatherValues is gatherBytes' reduce for the typed gathers: the members'
// marshaled values, indexed by team rank.
func gatherValues[T any](all [][]byte) ([]T, error) {
	out := make([]T, len(all))
	for i, b := range all {
		if err := serial.For[T]().Decode(b, &out[i]); err != nil {
			return nil, fmt.Errorf("team rank %d's value: %w", i, err)
		}
	}
	return out, nil
}

// Gather collects every team member's value at the root, up the team's
// tree. The root's future yields values indexed by team rank; other
// members' futures ready with nil once their contribution is sent.
func Gather[T any](t *Team, root Intrank, val T) Future[[]T] {
	return gatherBytes(t, root, mustMarshal(val), false, gatherValues[T])
}

// AllGather collects every member's value everywhere, indexed by team
// rank: one gather whose frame set fans back down.
func AllGather[T any](t *Team, val T) Future[[]T] {
	return gatherBytes(t, 0, mustMarshal(val), true, gatherValues[T])
}

// --- kind-aware buffer collectives ---------------------------------------

// Buffer collectives operate on each member's own local operand — a
// GPtr of either memory kind — instead of marshaled values. Payloads
// move as kind-aware conduit copies (device legs ride the DMA engine;
// device data never bounces through host serialization), folds run
// through RunKernel for device operands, and the advance message
// piggybacks on each copy's final landing hop, so a device receiver's
// notification fires only after its h2d DMA.
//
// The pair keeps its own two machines beside the wave: a hop here is an
// address handshake followed by a copy whose landing notice is the advance
// message, so the walk would have to branch on its caller at start (who
// announces an address to whom), at send (message or copy) and at arrival
// (address, landing up, landing down). They share the tree (treePos), the
// engine and the arrival rule: a message from anyone but the tree neighbour
// being waited for fails its sender.

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
	plan := new(cxPlan).initColl(rk, cxs, nil)
	nb := n * serial.SizeOf[T]()
	e := rk.coll
	e.enter(t, new(collState), machine(func(key collKey, st *collState) { e.broadcastBuf(t, key, st, root, addr, nb, plan) }))
	return plan.futs
}

func (e *collEngine) broadcastBuf(t *Team, key collKey, st *collState, root Intrank, buf collBufAddr, nbytes int, plan *cxPlan) {
	tp := e.treePos(t, root)
	nchild := len(tp.children)
	have := tp.rr == 0
	sent, inflight := 0, 0
	childBuf := make([]collBufAddr, nchild)
	known := make([]bool, nchild) // per child: its landing address is in
	tryFinish := func() {
		if have && sent == nchild && inflight == 0 {
			e.finish(key, st, plan)
		}
	}
	push := func(i int) {
		sent++
		inflight++
		land := collMsg{team: key.team, seq: key.seq, kind: collLand, round: collRoundDown, src: uint32(t.me)}
		e.copyTo(t, tp.teamRank(tp.children[i]), buf, childBuf[i], nbytes, land, func() { inflight--; tryFinish() })
	}
	if tp.rr != 0 {
		// Rendezvous: tell the parent where my landing buffer lives.
		e.sendMsg(t, tp.parent(), collMsg{team: key.team, seq: key.seq,
			kind: collAddr, round: collRoundUp, src: uint32(t.me), data: encodeCollAddr(buf)})
	}
	st.recv = recvFunc(func(m collMsg) error {
		i := tp.childIndex(m.src)
		switch {
		case m.kind == collAddr && i >= 0 && !known[i]:
			caddr, err := decodeCollAddr(m.data)
			if err != nil {
				return err
			}
			known[i], childBuf[i] = true, caddr
			if have {
				push(i)
			}
		case m.kind == collLand && tp.isParent(m.src) && !have:
			have = true
			// The payload is visible in my buffer (post-DMA for device
			// kinds): fire the member-side signal now, before forwarding.
			plan.collRemoteLocal()
			for c, ok := range known {
				if ok {
					push(c)
				}
			}
			tryFinish()
		default:
			return collStray(m, "buffer broadcast")
		}
		return nil
	})
	tryFinish() // a root with no children is done
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
	plan := new(cxPlan).initColl(rk, cxs, nil)
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
	e.enter(t, new(collState), machine(func(key collKey, st *collState) {
		e.reduceBuf(t, key, st, addr, nb, hooks, allreduce, plan)
	}))
	return plan.futs
}

func (e *collEngine) reduceBuf(t *Team, key collKey, st *collState, buf collBufAddr, nbytes int, hooks collFoldHooks, allreduce bool, plan *cxPlan) {
	tp := e.treePos(t, 0)
	nchild := len(tp.children)
	childBuf := make([]collBufAddr, nchild)
	landed := make([]bool, nchild) // per child: its partial is in its staging slot
	if nchild > 0 {
		// Rendezvous: allocate one staging slot per child in the operand's
		// own memory kind and tell each child where to push its partial.
		stage := hooks.allocStage(nchild)
		for i, c := range tp.children {
			slot := collBufAddr{kind: stage.kind, dev: stage.dev, off: stage.off + uint64(i*nbytes)}
			e.sendMsg(t, tp.teamRank(c), collMsg{team: key.team, seq: key.seq,
				kind: collAddr, round: collRoundDown, src: uint32(t.me), data: encodeCollAddr(slot)})
		}
	}
	downInflight := 0
	landedSlots := make([]int, 0, nchild)
	var parentSlot *collBufAddr
	// What this member's end waits for: its subtree's partial handled, its
	// push to the parent done (the root has none to make), the result seen
	// (a plain reduction has none coming) and fanned on.
	subtreeHandled, pushDone, resultSeen := false, tp.rr == 0, !allreduce
	tryFinish := func() {
		if subtreeHandled && pushDone && resultSeen && downInflight == 0 {
			hooks.freeStage()
			e.finish(key, st, plan)
		}
	}
	fanDown := func() {
		// The result sits in my buffer (post-DMA for device kinds): signal
		// locally, then forward it to my subtree.
		resultSeen = true
		plan.collRemoteLocal()
		for i, c := range tp.children {
			downInflight++
			land := collMsg{team: key.team, seq: key.seq, kind: collLand, round: collRoundDown, src: uint32(t.me)}
			e.copyTo(t, tp.teamRank(c), buf, childBuf[i], nbytes, land, func() { downInflight--; tryFinish() })
		}
		tryFinish()
	}
	maybeAdvance := func() {
		if subtreeHandled || len(landedSlots) != nchild || (tp.rr != 0 && parentSlot == nil) {
			return
		}
		subtreeHandled = true
		switch {
		case tp.rr != 0:
			// Push my subtree's partial into the parent's staging slot; the
			// landing notice carries my buffer address so an allreduce can
			// fan the result straight back into it.
			up := collMsg{team: key.team, seq: key.seq, kind: collLand, round: collRoundUp,
				src: uint32(t.me), data: encodeCollAddr(buf)}
			e.copyTo(t, tp.parent(), buf, *parentSlot, nbytes, up,
				func() { pushDone = true; tryFinish() })
		case allreduce:
			fanDown()
		default:
			tryFinish()
		}
	}
	st.recv = recvFunc(func(m collMsg) error {
		i := tp.childIndex(m.src)
		switch {
		case m.kind == collAddr && tp.isParent(m.src) && parentSlot == nil:
			a, err := decodeCollAddr(m.data)
			if err != nil {
				return err
			}
			parentSlot = &a
			maybeAdvance()
		case m.kind == collLand && m.round == collRoundUp && i >= 0 && !landed[i]:
			// A child's subtree partial landed in its staging slot (slot i
			// is child i's). Folds are deferred to the round's last landing
			// and run fused: one launch over every landed slot, not one per
			// child.
			a, err := decodeCollAddr(m.data)
			if err != nil {
				return err
			}
			landed[i], childBuf[i] = true, a
			landedSlots = append(landedSlots, i)
			if len(landedSlots) == nchild {
				hooks.foldAll(landedSlots)
			}
			maybeAdvance()
		case m.kind == collLand && m.round == collRoundDown && subtreeHandled && !resultSeen && tp.isParent(m.src):
			fanDown() // the allreduce result, after my partial went up
		default:
			return collStray(m, "buffer reduction")
		}
		return nil
	})
	maybeAdvance()
}
