package main

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"runtime"
	"time"

	"upcxx"
	"upcxx/internal/dht"
	"upcxx/internal/gasnet"
)

// The load shape of every workload: a closed loop on a 2-rank world with
// one initiator. Rank 0 issues the operations; rank 1 is the passive
// target and spends every initiator-driven phase blocked in the library's
// own idle wait (the Barrier that opens the next phase), which is the
// path users get. Only the ping-pong, barrier, task and collective phases
// have rank 1 loop as well.

const (
	segmentSize = 64 << 20
	waitTimeout = 20 * time.Second
	// windowBytes bounds the bytes a flood phase keeps in flight before it
	// fences: the wire conduits queue sends without limit, so an unfenced
	// 64 KiB flood would measure the allocator, not the wire.
	windowBytes = 8 << 20
	batchSize   = 32
)

// peerPtrs is what each rank publishes for its sibling during set-up.
type peerPtrs struct {
	Buf  upcxx.GPtr[byte]   // S-byte RMA target
	Cell upcxx.GPtr[uint64] // fetch-add target
	Slot upcxx.GPtr[byte]   // signaling-put landing slot (S bytes)
	Cnt  upcxx.GPtr[uint64] // signaling-put arrival counter
}

// bench is one rank's view of a run.
type bench struct {
	rk    *upcxx.Rank
	me    upcxx.Intrank
	wl    workload
	S     int
	small bool // S == 8: scalar RPC arguments; otherwise views
	fault bool // self-test: make the RPC oracle wrong on purpose
	rng   *rand.Rand
	tr    *spanRec // harness spans; nil in the untraced run
	raw   *rawAM   // bench-registered conduit AM (trace run)

	mine, peer peerPtrs
	src, dst   []byte
	ad         *upcxx.AtomicU64
	table      *dht.DHT

	amoBase  uint64
	ffBase   ffTotals
	sigBase  uint64
	rpcBase  int64
	tailSum  uint64 // wordSum(src[8:]): the part of a view's checksum the op stamp leaves alone
	samples  []int64
	dhtKeys  []uint64
	eraseFut []upcxx.Future[bool]

	attempted, failed int64
	rereads           int64 // rpc_ff counter reads that found the counter behind
}

// newBench allocates buffers, publishes them and fetches the sibling's:
// the end of this function is the end of set-up.
func newBench(rk *upcxx.Rank, wl workload, seed int64, fault bool) *bench {
	b := &bench{
		rk: rk, me: rk.Me(), wl: wl, S: wl.size, small: wl.size == 8, fault: fault,
		rng: rand.New(rand.NewSource(seed)),
		src: make([]byte, wl.size), dst: make([]byte, wl.size),
		ad:      upcxx.NewAtomicU64(rk),
		samples: make([]int64, 0, 1<<16),
	}
	b.mine = peerPtrs{
		Buf:  upcxx.MustNewArray[byte](rk, b.S),
		Cell: upcxx.MustNewArray[uint64](rk, 1),
		Slot: upcxx.MustNewArray[byte](rk, b.S),
		Cnt:  upcxx.MustNewArray[uint64](rk, 1),
	}
	obj := upcxx.NewDistObject(rk, b.mine)
	mode := dht.RPCOnly
	if b.S > 256 {
		mode = dht.LandingZone
	}
	b.table = dht.New(rk, mode)
	rk.Barrier()
	b.peer = upcxx.FetchDist[peerPtrs](rk, obj.ID(), 1-b.me).Wait()
	b.rpcBase = seed << 20
	b.newPayload()
	return b
}

// newPayload draws fresh payload bytes from the seed stream.
func (b *bench) newPayload() {
	b.rng.Read(b.src)
	b.tailSum = wordSum(b.src[8:])
}

func (b *bench) stamp(i int) { binary.LittleEndian.PutUint64(b.src, uint64(i)) }

// tally counts n checked operations, bad of which returned wrong data.
func (b *bench) tally(n, bad int) {
	b.attempted += int64(n)
	b.failed += int64(bad)
}

// verifyRemote reads the sibling's buffer back and compares it with src.
func (b *bench) verifyRemote() {
	b.dst[0] ^= 0xff
	upcxx.RGet(b.rk, b.peer.Buf, b.dst).Wait()
	bad := 0
	if !bytes.Equal(b.dst, b.src) {
		bad = 1
	}
	b.tally(1, bad)
}

// --- blocking operations ---------------------------------------------------

// blockingOp is one user-visible blocking call split at the boundary the
// trace reports: inject issues the operation and returns its future, wait
// blocks on it. check runs outside the timed span.
type blockingOp struct {
	name   string
	prep   func()
	inject func(i int)
	wait   func()
	check  func(i int) bool
	done   func(n int)
}

type blockStats struct {
	lat           []int64 // per-op ns; aliases bench.samples
	injNS, waitNS int64
	mallocs, heap uint64 // heap objects and bytes allocated by the loop (trace run)
}

func (b *bench) blocking(op *blockingOp, n int) blockStats {
	if op.prep != nil {
		op.prep()
	}
	st := blockStats{lat: b.samples[:0]}
	bad := 0
	var m0, m1 runtime.MemStats
	if b.tr != nil {
		runtime.ReadMemStats(&m0)
	}
	for i := 0; i < n; i++ {
		t0 := time.Now()
		op.inject(i)
		t1 := time.Now()
		op.wait()
		t2 := time.Now()
		st.lat = append(st.lat, int64(t2.Sub(t0)))
		st.injNS += int64(t1.Sub(t0))
		st.waitNS += int64(t2.Sub(t1))
		if b.tr != nil {
			b.tr.blockingOp(op.name, t0, t1, t2)
		}
		if op.check != nil && !op.check(i) {
			bad++
		}
	}
	if b.tr != nil {
		runtime.ReadMemStats(&m1)
		st.mallocs, st.heap = m1.Mallocs-m0.Mallocs, m1.TotalAlloc-m0.TotalAlloc
	}
	b.tally(n, bad)
	if op.done != nil {
		op.done(n)
	}
	return st
}

func (b *bench) rputOp() *blockingOp {
	var f upcxx.Future[upcxx.Unit]
	return &blockingOp{
		name:   "rput",
		prep:   b.newPayload,
		inject: func(int) { f = upcxx.RPut(b.rk, b.src, b.peer.Buf) },
		wait:   func() { f.Wait() },
		done:   func(int) { b.verifyRemote() },
	}
}

func (b *bench) rgetOp() *blockingOp {
	var f upcxx.Future[upcxx.Unit]
	return &blockingOp{
		name:   "rget",
		prep:   func() { upcxx.RPut(b.rk, b.src, b.peer.Buf).Wait() },
		inject: func(int) { f = upcxx.RGet(b.rk, b.peer.Buf, b.dst) },
		wait:   func() { f.Wait() },
		check: func(int) bool {
			ok := bytes.Equal(b.dst, b.src)
			b.dst[0] ^= 0xff // the next get must write it again
			return ok
		},
	}
}

func (b *bench) amoOp() *blockingOp {
	var f upcxx.Future[uint64]
	var old uint64
	return &blockingOp{
		name:   "amo",
		inject: func(int) { f = b.ad.FetchAdd(b.peer.Cell, 1) },
		wait:   func() { old = f.Wait() },
		check:  func(i int) bool { return old == b.amoBase+uint64(i) },
		done:   func(n int) { b.amoBase += uint64(n) },
	}
}

func (b *bench) rpcOp() *blockingOp {
	mask := int64(echoMask)
	if b.fault {
		mask++
	}
	done := func(n int) { b.rpcBase += int64(n) }
	if b.small {
		var f upcxx.Future[int64]
		var got int64
		return &blockingOp{
			name:   "rpc",
			inject: func(i int) { f = upcxx.RPC(b.rk, 1, echoI64, b.rpcBase+int64(i)) },
			wait:   func() { got = f.Wait() },
			check:  func(i int) bool { return got == (b.rpcBase+int64(i))^mask },
			done:   done,
		}
	}
	var f upcxx.Future[uint64]
	var got uint64
	return &blockingOp{
		name: "rpc",
		inject: func(i int) {
			b.stamp(i)
			f = upcxx.RPC(b.rk, 1, echoView, upcxx.MakeView(b.src))
		},
		wait:  func() { got = f.Wait() },
		check: func(i int) bool { return got == b.tailSum+uint64(i)+uint64(mask-echoMask) },
		done:  done,
	}
}

// --- phases ----------------------------------------------------------------

// sample is one metric value of one round, already in the metric's unit.
type sample struct {
	name    string
	value   float64
	tail    float64 // tail latency in the same unit (latency phases)
	tailPct float64 // which percentile tail is
	ops     int
}

// phase is one timed section of a round. run is SPMD: every rank calls it
// with the same n, and rank 0 returns the samples.
type phase struct {
	name  string
	probe int // op count of the first calibration run; 0 marks fixed work
	mult  int // n is kept a multiple of this (batched phases)
	run   func(n int) []sample
}

func latSample(name string, lat []int64, div float64) sample {
	p50, tail, pct := latencySummary(lat)
	return sample{name: name, value: p50 / 1e3 / div, tail: tail / 1e3 / div, tailPct: pct, ops: len(lat)}
}

func rateSample(name string, ops int, d time.Duration, perUnit float64) sample {
	return sample{name: name, value: float64(ops) / d.Seconds() / perUnit, ops: ops}
}

// window is how many S-byte operations a flood phase issues per fence.
func (b *bench) window() int {
	w := windowBytes / b.S
	if w > 1<<14 {
		w = 1 << 14
	}
	return w
}

// initiator wraps a phase only rank 0 works in.
func (b *bench) initiator(fn func(n int) []sample) func(int) []sample {
	return func(n int) []sample {
		if b.me != 0 {
			return nil
		}
		return fn(n)
	}
}

func (b *bench) latencyPhase(metric string, op *blockingOp) phase {
	return phase{name: metric, probe: 64, run: b.initiator(func(n int) []sample {
		return []sample{latSample(metric, b.blocking(op, n).lat, 1)}
	})}
}

// endToEndPhases are the eleven timed user-visible metrics, in round order.
func (b *bench) endToEndPhases() []phase {
	return []phase{
		b.latencyPhase("rput_lat_us", b.rputOp()),
		b.latencyPhase("rget_lat_us", b.rgetOp()),
		b.latencyPhase("amo_lat_us", b.amoOp()),
		b.latencyPhase("rpc_lat_us", b.rpcOp()),
		{name: "sigput_lat_us", probe: 64, run: b.sigput},
		{name: "barrier_lat_us", probe: 64, run: b.barrier},
		{name: "task_rt_lat_us", probe: 32, run: b.taskRoundTrip},
		{name: "rput_flood_mops", probe: 256, run: b.initiator(b.rputFlood)},
		{name: "rpcff_rate_kops", probe: 256, run: b.initiator(func(n int) []sample {
			s, _ := b.rpcffFlood(n)
			return []sample{s}
		})},
		{name: "rpcbatch_rate_kops", probe: 8 * batchSize, mult: batchSize, run: b.initiator(b.rpcBatch)},
		{name: "dht_insert_kops", probe: 64, run: b.initiator(b.dhtInsert)},
	}
}

// awaitSignals parks in the library's idle wait until n signals arrived.
func (b *bench) awaitSignals(cnt []uint64, n uint64) {
	for cnt[0] < n {
		b.rk.ProgressWait(50 * time.Microsecond)
	}
}

// sigput is the signaling-put ping-pong: rank 0 puts S bytes with a remote
// completion that bumps rank 1's counter, rank 1 answers in kind with the
// bytes it received. The reported latency is half the bounce.
func (b *bench) sigput(n int) []sample {
	cnt := upcxx.Local(b.rk, b.mine.Cnt, 1)
	slot := upcxx.Local(b.rk, b.mine.Slot, b.S)
	base := b.sigBase
	b.sigBase += uint64(n)
	if b.me != 0 {
		for i := 0; i < n; i++ {
			b.awaitSignals(cnt, base+uint64(i)+1)
			upcxx.RPutSignal(b.rk, slot, b.peer.Slot, sigBump, b.peer.Cnt).Wait()
		}
		return nil
	}
	lat := b.samples[:0]
	bad := 0
	for i := 0; i < n; i++ {
		b.stamp(i)
		t0 := time.Now()
		upcxx.RPutSignal(b.rk, b.src, b.peer.Slot, sigBump, b.peer.Cnt).Wait()
		b.awaitSignals(cnt, base+uint64(i)+1)
		lat = append(lat, int64(time.Since(t0)))
		if !bytes.Equal(slot, b.src) {
			bad++
		}
		slot[0] ^= 0xff
	}
	b.tally(n, bad)
	return []sample{latSample("sigput_lat_us", lat, 2)}
}

func (b *bench) barrier(n int) []sample {
	lat := b.samples[:0]
	for i := 0; i < n; i++ {
		t0 := time.Now()
		b.rk.Barrier()
		lat = append(lat, int64(time.Since(t0)))
	}
	if b.me != 0 {
		return nil
	}
	b.tally(n, 0)
	return []sample{latSample("barrier_lat_us", lat, 1)}
}

// taskRoundTrip spawns one task at rank 1 and help-waits for its result.
// The task runtime (one worker per rank) lives only for this phase.
func (b *bench) taskRoundTrip(n int) []sample {
	rt := upcxx.NewTaskRuntime(b.rk, upcxx.TaskConfig{Workers: 1})
	defer rt.Stop()
	b.rk.Barrier()
	var out []sample
	if b.me == 0 {
		lat := b.samples[:0]
		bad := 0
		for i := 0; i < n; i++ {
			var ok bool
			t0 := time.Now()
			if b.small {
				x := b.rpcBase + int64(i)
				ok = upcxx.TaskHelpWait(rt, upcxx.AsyncAt(rt, 1, taskI64, x)) == x^echoMask
			} else {
				b.stamp(i)
				ok = upcxx.TaskHelpWait(rt, upcxx.AsyncAt(rt, 1, taskBytes, b.src)) == b.tailSum+uint64(i)
			}
			lat = append(lat, int64(time.Since(t0)))
			if !ok {
				bad++
			}
		}
		b.tally(n, bad)
		out = []sample{latSample("task_rt_lat_us", lat, 1)}
	}
	b.rk.Barrier()
	if err := rt.Finish(); err != nil {
		panic(err)
	}
	return out
}

// rputFlood issues promise-tracked non-blocking puts, progressing every
// ten, and fences once per window.
func (b *bench) rputFlood(n int) []sample {
	b.newPayload()
	w := b.window()
	t0 := time.Now()
	for done := 0; done < n; {
		p := upcxx.NewPromise[upcxx.Unit](b.rk)
		for j := 0; j < w && done < n; j++ {
			upcxx.RPutPromise(b.rk, b.src, b.peer.Buf, p)
			done++
			if done%10 == 0 {
				b.rk.Progress()
			}
		}
		p.Finalize().Wait()
	}
	el := time.Since(t0)
	b.tally(n, 0)
	b.verifyRemote()
	return []sample{rateSample("rput_flood_mops", n, el, 1e6)}
}

// rpcffFlood fires n one-way RPCs; the clock stops when the closing
// round-trip RPC has read the target's counter (per-pair FIFO puts it
// behind every rpc_ff). It also returns the wire counters' deltas.
func (b *bench) rpcffFlood(n int) (sample, wireCounts) {
	w := b.window()
	before := b.wire()
	before.rereads = b.rereads
	t0 := time.Now()
	bad := 0
	for done := 0; done < n; {
		for j := 0; j < w && done < n; j++ {
			if b.small {
				x := b.rpcBase + int64(done)
				upcxx.RPCFF(b.rk, 1, ffI64, x)
				b.ffBase.Sum += uint64(x)
			} else {
				b.stamp(done)
				upcxx.RPCFF(b.rk, 1, ffView, upcxx.MakeView(b.src))
				b.ffBase.Sum += b.tailSum + uint64(done)
			}
			b.ffBase.Count++
			done++
		}
		// Read until the counter has caught up: the shm conduit can let the
		// read overtake rpc_ffs when its ring overflows to the socket.
		got := upcxx.RPC(b.rk, 1, ffRead, uint8(0)).Wait()
		for deadline := time.Now().Add(waitTimeout); got.Count < b.ffBase.Count && time.Now().Before(deadline); {
			b.rereads++
			got = upcxx.RPC(b.rk, 1, ffRead, uint8(0)).Wait()
		}
		if got != b.ffBase {
			bad = n // the counter is the only witness: a mismatch condemns the phase
			b.ffBase = got
		}
	}
	el := time.Since(t0)
	b.tally(n, bad)
	after := b.wire()
	after.rereads = b.rereads
	return rateSample("rpcff_rate_kops", n, el, 1e3), after.sub(before)
}

// rpcBatch ships round-trip RPCs 32 to a wire message.
func (b *bench) rpcBatch(n int) []sample {
	s, _ := b.rpcBatchCounted(n)
	return []sample{s}
}

func (b *bench) rpcBatchCounted(n int) (sample, wireCounts) {
	futI := make([]upcxx.Future[int64], batchSize)
	futV := make([]upcxx.Future[uint64], batchSize)
	b.stamp(0)
	before := b.wire()
	t0 := time.Now()
	bad := 0
	for done := 0; done < n; done += batchSize {
		bt := upcxx.NewBatch(b.rk, 1)
		for j := 0; j < batchSize; j++ {
			if b.small {
				futI[j] = upcxx.BatchRPC(bt, echoI64, b.rpcBase+int64(done+j))
			} else {
				futV[j] = upcxx.BatchRPC(bt, echoView, upcxx.MakeView(b.src))
			}
		}
		bt.Flush()
		for j := 0; j < batchSize; j++ {
			var ok bool
			if b.small {
				ok = futI[j].Wait() == (b.rpcBase+int64(done+j))^echoMask
			} else {
				ok = futV[j].Wait() == b.tailSum
			}
			if !ok {
				bad++
			}
		}
	}
	el := time.Since(t0)
	b.tally(n, bad)
	return rateSample("rpcbatch_rate_kops", n, el, 1e3), b.wire().sub(before)
}

// dhtKey draws a seeded key homed at rank 1, so every insert crosses the
// wire.
func (b *bench) dhtKey() uint64 {
	for {
		if k := b.rng.Uint64(); b.table.Target(k) == 1 {
			return k
		}
	}
}

// dhtInsert is the Fig 4 loop: blocking inserts of S-byte values. Only the
// inserts are timed; each chunk is then spot-checked with Find and erased
// (pipelined) so the segment and the target's map stay the same size in
// every round.
func (b *bench) dhtInsert(n int) []sample {
	chunk := b.window() / 2
	var timed time.Duration
	bad := 0
	for done := 0; done < n; {
		keys := b.dhtKeys[:0]
		for len(keys) < chunk && done+len(keys) < n {
			keys = append(keys, b.dhtKey())
		}
		b.dhtKeys = keys
		t0 := time.Now()
		for _, k := range keys {
			b.table.Insert(k, b.src).Wait()
		}
		timed += time.Since(t0)
		done += len(keys)
		for i := 0; i < len(keys); i += 1 + len(keys)/8 {
			if !bytes.Equal(b.table.Find(keys[i]).Wait(), b.src) {
				bad++
			}
		}
		b.eraseFut = b.eraseFut[:0]
		for _, k := range keys {
			b.eraseFut = append(b.eraseFut, b.table.Erase(k))
		}
		for _, f := range b.eraseFut {
			if !f.Wait() {
				bad++
			}
		}
	}
	b.tally(n, bad)
	return []sample{rateSample("dht_insert_kops", n, timed, 1e3)}
}

// --- conduit counters --------------------------------------------------------

// wireCounts are the conduit's exact counters at the initiator.
type wireCounts struct {
	frames, bytes, ringRecs, ringBells, fallbacks, msgs uint64

	rereads int64 // rpc_ff fence reads that found the counter behind (rpcffFlood only)
}

func (b *bench) wire() wireCounts {
	ci := b.rk.World().Network().ConduitInfo()
	st := b.endpoint().Stats()
	return wireCounts{
		frames: ci.FramesOut + ci.FramesIn, bytes: ci.BytesOut + ci.BytesIn,
		ringRecs: ci.RingRecords, ringBells: ci.RingDoorbells, fallbacks: ci.SocketFallbacks,
		msgs: st.Puts + st.Gets + st.AMs + st.AMOs,
	}
}

func (a wireCounts) sub(o wireCounts) wireCounts {
	return wireCounts{a.frames - o.frames, a.bytes - o.bytes, a.ringRecs - o.ringRecs,
		a.ringBells - o.ringBells, a.fallbacks - o.fallbacks, a.msgs - o.msgs, a.rereads - o.rereads}
}

func (b *bench) endpoint() *gasnet.Endpoint {
	return b.rk.World().Network().Endpoint(b.me)
}

// --- rounds ------------------------------------------------------------------

// seriesOut collects one metric's per-round values.
type seriesOut struct {
	Values  []float64 `json:"values"`        // scaled by the reference clock
	Raw     []float64 `json:"raw,omitempty"` // as measured
	Ref     []float64 `json:"ref,omitempty"` // the reference reading (µs) each value was scaled by
	Tail    float64   `json:"tail,omitempty"`
	TailPct float64   `json:"tail_pct,omitempty"`
	Ops     int       `json:"ops"`
}

// plan is the calibrated op count of every phase, identical on both ranks.
type plan map[string]int

func (b *bench) bcast(n int) int {
	return int(upcxx.Broadcast(b.rk.WorldTeam(), 0, int64(n)).Wait())
}

// runPhase aligns the ranks, runs the phase and returns rank 0's samples
// and wall time. The Barrier that opens the next phase is where rank 1
// waits while rank 0 works.
func (b *bench) runPhase(p *phase, n int) ([]sample, time.Duration) {
	b.rk.Barrier()
	t0 := time.Now()
	out := p.run(n)
	return out, time.Since(t0)
}

func (p *phase) clamp(n int) int {
	if n < p.probe {
		n = p.probe
	}
	if p.mult > 1 {
		n = (n + p.mult - 1) / p.mult * p.mult
	}
	return n
}

// calibrate is the untimed warm-up round. It runs the fixed-work phases
// once to learn what they cost, then sizes every other phase to its time
// slice in two steps (a short probe, then a quarter slice that also warms
// the path) and gives both ranks the same counts, so the measured rounds
// repeat a fixed op count.
func (b *bench) calibrate(phases []phase, budget time.Duration, rounds int) plan {
	var fixed time.Duration
	sized := 0
	for i := range phases {
		if p := &phases[i]; p.probe == 0 {
			_, wall := b.runPhase(p, 0)
			fixed += wall
		} else {
			sized++
		}
	}
	// A round costs the fixed phases (half as much again, to be safe: they
	// are the noisy ones) plus one slice per sized phase; calibration costs
	// about a third of a round.
	slice := (float64(budget)/(float64(rounds)+0.35) - 1.5*float64(fixed)) / float64(max(sized, 1))
	slice = max(slice, float64(time.Millisecond))
	pl := plan{}
	for i := range phases {
		p := &phases[i]
		if p.probe == 0 {
			continue
		}
		n := p.clamp(p.probe)
		for _, share := range []float64{0.25, 1} {
			_, wall := b.runPhase(p, n)
			if b.me == 0 {
				n = p.clamp(int(share * slice / (float64(wall) / float64(n))))
			}
			n = b.bcast(n)
		}
		pl[p.name] = n
	}
	return pl
}

// measure runs the interleaved rounds (phase A…L, then A…L again, so drift
// hits every metric alike) and returns rank 0's per-round values, scaled by
// the reference readings taken around each phase.
func (b *bench) measure(phases []phase, budget time.Duration, rounds int) (map[string]*seriesOut, plan) {
	pl := b.calibrate(phases, budget, rounds)
	out := map[string]*seriesOut{}
	for r := 0; r < rounds; r++ {
		before := b.refReading()
		for i := range phases {
			p := &phases[i]
			samples, _ := b.runPhase(p, pl[p.name])
			after := b.refReading()
			refUS := (before + after) / 2
			before = after
			for _, s := range samples {
				se := out[s.name]
				if se == nil {
					se = &seriesOut{}
					out[s.name] = se
				}
				unit := unitOf[s.name]
				se.Values = append(se.Values, scaled(s.value, unit, refUS))
				se.Raw = append(se.Raw, s.value)
				se.Ref = append(se.Ref, refUS)
				if tail := scaled(s.tail, unit, refUS); tail > se.Tail {
					se.Tail, se.TailPct = tail, s.tailPct
				}
				se.Ops += s.ops
			}
		}
	}
	b.rk.Barrier()
	return out, pl
}

// refReading is rank 0's reading of the reference clock; the other rank
// waits for it in the Barrier that opens the next phase.
func (b *bench) refReading() float64 {
	if b.me != 0 {
		return refNominalUS
	}
	return refReading()
}
