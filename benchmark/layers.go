package main

import (
	"bytes"
	"math"
	"runtime"
	"syscall"
	"time"

	"upcxx"
	"upcxx/internal/dht"
	"upcxx/internal/gasnet"
	"upcxx/internal/matgen"
	"upcxx/internal/mpi"
	"upcxx/internal/obs"
	"upcxx/internal/serial"
	"upcxx/internal/sparse"
)

// Per-layer numbers, produced only by the traced run. Every value is
// measured from outside, by timing or counting around calls into a
// layer's public functions; README.md says which end-to-end metric each
// one should move.

// layerState is what the traced run carries besides the bench itself.
type layerState struct {
	rpcTable *dht.DHT // an RPCOnly table for the pipelined/batched insert loops
	eadd     *sparse.EAddPlan
	eaddWant *sparse.AccumStore
	chol     *sparse.CholPlan
	cholWant []float64 // dense Cholesky oracle, row-major
	cholN    int
	dhtSeed  int64

	rputP50, rpcP50 float64 // this round's traced medians (µs), for the derived metrics
}

// newLayerState builds the traced run's extra inputs. It is collective
// (it creates a table) and deterministic in the seed, so both ranks hold
// the same plans.
func newLayerState(b *bench, seed int64) *layerState {
	ls := &layerState{rpcTable: b.table, dhtSeed: seed}
	if b.table.Mode() != dht.RPCOnly {
		ls.rpcTable = dht.New(b.rk, dht.RPCOnly)
	}
	shift := 0.25 + float64(seed%1000)/2000
	problem := func(d int) (*matgen.SymCSC, *sparse.FrontTree) {
		g := matgen.Grid3D{NX: d, NY: d, NZ: d}
		a := matgen.Permute(matgen.Laplacian3D(g, shift), matgen.NestedDissection(g, 8))
		t := sparse.Amalgamate(sparse.BuildFrontTree(a, 0), 0.3)
		if err := t.Validate(); err != nil {
			panic(err)
		}
		return a, t
	}
	_, te := problem(10)
	ls.eadd = sparse.NewEAddPlan(te, 2, 16)
	ls.eaddWant = sparse.EAddSerial(ls.eadd)
	ac, tc := problem(6)
	ls.chol = sparse.NewCholPlan(ac, tc, 2)
	ls.cholN = ac.N
	ls.cholWant = ac.Dense()
	if err := sparse.DenseCholesky(ls.cholWant, ac.N); err != nil {
		panic(err)
	}
	return ls
}

func per(total int64, n int) float64 { return float64(total) / float64(n) }

func mean(lat []int64) float64 {
	var s int64
	for _, v := range lat {
		s += v
	}
	return per(s, len(lat))
}

// coreOp reports one blocking operation's inject/wait split, its traced
// latency and its allocations.
func (b *bench) coreOp(op *blockingOp, ls *layerState) phase {
	pre := "core." + op.name
	return phase{name: pre, probe: 64, run: b.initiator(func(n int) []sample {
		st := b.blocking(op, n)
		switch op.name {
		case "rput":
			ls.rputP50 = p50us(st.lat)
		case "rpc":
			ls.rpcP50 = p50us(st.lat)
		}
		out := []sample{
			{name: pre + "_inject_ns", value: per(st.injNS, n), ops: n},
			{name: pre + "_wait_ns", value: per(st.waitNS, n), ops: n},
			{name: pre + "_op_ns", value: mean(st.lat), ops: n},
			{name: pre + "_allocs_per_op", value: float64(st.mallocs) / float64(n), ops: n},
		}
		if op.name == "rput" {
			out = append(out, sample{name: "core.rput_heap_B_per_op", value: float64(st.heap) / float64(n), ops: n})
		}
		return out
	})}
}

// countAllocs runs fn between two MemStats reads.
func countAllocs(fn func()) uint64 {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	fn()
	runtime.ReadMemStats(&m1)
	return m1.Mallocs - m0.Mallocs
}

func (b *bench) layerPhases(ls *layerState) []phase {
	rk := b.rk
	team := rk.WorldTeam()
	rpc := b.rpcOp()
	return []phase{
		b.coreOp(b.rputOp(), ls),
		b.coreOp(b.rgetOp(), ls),
		b.coreOp(b.amoOp(), ls),
		b.coreOp(rpc, ls),

		{name: "core.rpcff", probe: 256, run: b.initiator(func(n int) []sample {
			var w wireCounts
			allocs := countAllocs(func() { _, w = b.rpcffFlood(n) })
			f := float64(n)
			fallback := 0.0
			if tries := w.ringRecs + w.fallbacks; tries > 0 {
				fallback = float64(w.fallbacks) / float64(tries)
			}
			return []sample{
				{name: "core.rpcff_allocs_per_op", value: float64(allocs) / f, ops: n},
				{name: "gasnet.frames_per_op", value: float64(w.frames) / f, ops: n},
				{name: "gasnet.wire_B_per_op", value: float64(w.bytes) / f, ops: n},
				{name: "gasnet.ring_records_per_op", value: float64(w.ringRecs) / f, ops: n},
				{name: "gasnet.ring_doorbells_per_op", value: float64(w.ringBells) / f, ops: n},
				{name: "gasnet.socket_fallback_ratio", value: fallback, ops: n},
				{name: "gasnet.msgs_per_op", value: float64(w.msgs) / f, ops: n},
				{name: "gasnet.rpcff_fence_rereads", value: float64(w.rereads), ops: n},
			}
		})},

		{name: "gasnet.rpcbatch", probe: 8 * batchSize, mult: batchSize, run: b.initiator(func(n int) []sample {
			_, w := b.rpcBatchCounted(n)
			return []sample{{name: "gasnet.rpcbatch_msgs_per_op", value: float64(w.msgs) / float64(n), ops: n}}
		})},

		{name: "gasnet.flood", probe: 256, run: b.initiator(func(n int) []sample {
			before := b.wire()
			b.rputFlood(n)
			w := b.wire().sub(before)
			return []sample{{name: "gasnet.flood_wire_B_per_op", value: float64(w.bytes) / float64(n), ops: n}}
		})},

		{name: "core.barrier", probe: 64, run: func(n int) []sample {
			allocs := countAllocs(func() { b.barrier(n) })
			if b.me != 0 {
				return nil
			}
			return []sample{{name: "core.barrier_allocs_per_op", value: float64(allocs) / float64(n), ops: n}}
		}},

		{name: "core.micro", probe: 1024, run: b.initiator(func(n int) []sample {
			loop := func(name string, body func()) sample {
				t0 := time.Now()
				for i := 0; i < n; i++ {
					body()
				}
				return sample{name: name, value: per(int64(time.Since(t0)), n), ops: n}
			}
			rk.Progress() // take in whatever rank 1 sent on its way into the Barrier
			ready := upcxx.ReadyFuture(rk, 1)
			sum, lpcs := 0, 0
			self := rk.CurrentPersona()
			out := []sample{
				loop("core.progress_empty_ns", func() { rk.Progress() }),
				loop("core.future_then_ns", func() {
					sum += upcxx.Then(ready, func(x int) int { return x + 1 }).Result()
				}),
				loop("core.promise_fulfill_ns", func() {
					p := upcxx.NewPromise[upcxx.Unit](rk)
					p.RequireAnonymous(1)
					p.FulfillAnonymous(1)
					p.Finalize().Wait()
				}),
				loop("core.lpc_rt_ns", func() {
					upcxx.LPCTo(self, func() { lpcs++ })
					rk.Progress()
				}),
			}
			bad := 0
			if sum != 2*n || lpcs != n {
				bad = n
			}
			b.tally(n, bad)
			return out
		})},

		{name: "core.coll", probe: 64, run: func(n int) []sample {
			add := func(x, y int64) int64 { return x + y }
			red, bc := b.samples[:0], make([]int64, 0, n)
			bad := 0
			for i := 0; i < n; i++ {
				t0 := time.Now()
				got := upcxx.AllReduce(team, int64(i), add).Wait()
				t1 := time.Now()
				got2 := upcxx.Broadcast(team, 0, int64(i)).Wait()
				bc = append(bc, int64(time.Since(t1)))
				red = append(red, int64(t1.Sub(t0)))
				if got != 2*int64(i) || got2 != int64(i) {
					bad++
				}
			}
			if b.me != 0 {
				return nil
			}
			b.tally(2*n, bad)
			return []sample{
				latSample("core.allreduce_lat_us", red, 1),
				latSample("core.bcast_lat_us", bc, 1),
			}
		}},

		{name: "serial", probe: 256, run: b.initiator(b.serialLayer)},
		{name: "gasnet.raw", probe: 64, run: func(n int) []sample { return b.rawLayer(n, ls) }},

		{name: "gasnet.wake", probe: 64, run: func(n int) []sample {
			// The same RPC loop as core.rpc, but with rank 1 spinning in
			// Progress instead of parked: the difference is what waking
			// the parked target costs.
			if b.me != 0 {
				st := stateOf(rk)
				for !st.spinStop {
					rk.Progress()
					runtime.Gosched() // goroutine ranks share one thread
				}
				st.spinStop = false
				return nil
			}
			tr := b.tr
			b.tr = nil
			st := b.blocking(rpc, n)
			b.tr = tr
			upcxx.RPCFF(rk, 1, stopSpin, uint8(0))
			return []sample{{name: "gasnet.wake_cost_us", value: ls.rpcP50 - p50us(st.lat), ops: n}}
		}},

		{name: "gasnet.seg", probe: 1024, run: b.initiator(func(n int) []sample {
			t0 := time.Now()
			bad := 0
			for i := 0; i < n; i++ {
				p, err := upcxx.NewArray[byte](rk, b.S)
				if err != nil || upcxx.Delete(rk, p) != nil {
					bad++
				}
			}
			b.tally(n, bad)
			return []sample{{name: "gasnet.seg_alloc_free_ns", value: per(int64(time.Since(t0)), n), ops: n}}
		})},

		{name: "task", run: b.taskLayer},
		{name: "dht", run: b.initiator(func(int) []sample { return b.dhtLayer(ls) })},
		{name: "sparse", run: func(int) []sample { return b.sparseLayer(ls) }},
		{name: "mpi", run: b.initiator(func(int) []sample { return b.mpiLayer() })},
	}
}

// dhtArgs has the shape of the RPC-only insert's argument.
type dhtArgs struct {
	ID  upcxx.DistID
	Key uint64
	Val upcxx.View[uint8]
}

// serialLayer times Marshal/Unmarshal on the argument values this
// workload's RPC, task and table phases ship.
func (b *bench) serialLayer(n int) []sample {
	var rpcArg, taskArg any = b.rpcBase, b.rpcBase
	if !b.small {
		rpcArg, taskArg = upcxx.MakeView(b.src), b.src
	}
	args := []any{rpcArg, taskArg, dhtArgs{ID: 1, Key: uint64(b.rpcBase), Val: upcxx.MakeView(b.src)}}
	enc := make([][]byte, len(args))
	bad := 0
	var mNS, uNS int64
	allocs := countAllocs(func() {
		for i := 0; i < n; i++ {
			for j, a := range args {
				t0 := time.Now()
				buf, err := serial.Marshal(a)
				t1 := time.Now()
				mNS += int64(t1.Sub(t0))
				if b.tr != nil {
					b.tr.single("serial.marshal", t0, t1)
				}
				if err != nil {
					bad++
				}
				enc[j] = buf
			}
		}
	})
	for i := 0; i < n; i++ {
		var x int64
		var v upcxx.View[byte]
		var raw []byte
		var d dhtArgs
		ptrs := []any{&x, &x, &d}
		if !b.small {
			ptrs = []any{&v, &raw, &d}
		}
		for j, p := range ptrs {
			t0 := time.Now()
			err := serial.Unmarshal(enc[j], p)
			t1 := time.Now()
			uNS += int64(t1.Sub(t0))
			if b.tr != nil {
				b.tr.single("serial.unmarshal", t0, t1)
			}
			if err != nil {
				bad++
			}
		}
		if !bytes.Equal(d.Val.Elements(), b.src) {
			bad++
		}
	}
	calls := n * len(args)
	b.tally(2*calls, bad)
	return []sample{
		{name: "serial.marshal_ns", value: per(mNS, calls), ops: calls},
		{name: "serial.unmarshal_ns", value: per(uNS, calls), ops: calls},
		{name: "serial.marshal_allocs", value: float64(allocs) / float64(calls), ops: calls},
	}
}

// --- raw conduit -------------------------------------------------------------

// rawAM is the bench's own Active Message: an 8-byte echo plus a stop
// order, registered on the world's network on every rank.
type rawAM struct {
	id   gasnet.HandlerID
	pong [2]bool // per rank: echo reply arrived
	stop [2]bool // per rank: leave the raw-phase service loop
}

const (
	rawPing = iota
	rawPong
	rawStop
)

// registerRawAM must run on every rank right after the world exists and
// before any rank communicates (handler tables are positional).
func registerRawAM(net *gasnet.Network) *rawAM {
	r := &rawAM{}
	r.id = net.RegisterAM(func(ep *gasnet.Endpoint, src gasnet.Rank, payload []byte, _ any) {
		switch payload[0] {
		case rawPing:
			ep.AM(src, r.id, []byte{rawPong, 0, 0, 0, 0, 0, 0, 0}, nil)
		case rawPong:
			r.pong[ep.Rank()] = true
		case rawStop:
			r.stop[ep.Rank()] = true
		}
	})
	return r
}

// rawLayer times the conduit's own operations under the runtime: Put, Get,
// AMO and an AM echo on this world's endpoint, polled until the callback
// fires. Rank 1 serves from the library's progress loop, parked as usual.
func (b *bench) rawLayer(n int, ls *layerState) []sample {
	ep := b.endpoint()
	if b.me != 0 {
		for !b.raw.stop[1] {
			b.rk.ProgressWait(200 * time.Microsecond)
		}
		b.raw.stop[1] = false
		return nil
	}
	b.rk.Quiesce() // nothing of the runtime's may be in flight while we poll the endpoint bare
	// await polls like the runtime's own Wait does: spin, then park in the
	// conduit's notified wait, so the reader thread is not starved on a
	// 2-core host.
	fired := false
	await := func(done *bool) {
		for spins := 0; !*done; spins++ {
			if ep.Poll() == 0 && spins > 128 {
				ep.WaitPending(200 * time.Microsecond)
			}
		}
		*done = false
	}
	timed := func(name string, op func()) sample {
		lat := b.samples[:0]
		for i := 0; i < n; i++ {
			t0 := time.Now()
			op()
			t1 := time.Now()
			lat = append(lat, int64(t1.Sub(t0)))
			if b.tr != nil {
				b.tr.single(name, t0, t1)
			}
		}
		return latSample(name+"_us", lat, 1)
	}
	bad := 0
	b.newPayload()
	put := timed("gasnet.put_rt", func() {
		ep.Put(1, b.peer.Buf.Off, b.src, func() { fired = true })
		await(&fired)
	})
	get := timed("gasnet.get_rt", func() {
		ep.Get(1, b.peer.Buf.Off, b.dst, func() { fired = true })
		await(&fired)
	})
	if !bytes.Equal(b.dst, b.src) {
		bad++
	}
	var old uint64
	amo := timed("gasnet.amo_rt", func() {
		ep.AMO(1, b.peer.Cell.Off, gasnet.AMOAdd, 1, 0, func(o uint64) { old, fired = o, true })
		await(&fired)
	})
	b.amoBase += uint64(n)
	if old != b.amoBase-1 {
		bad++
	}
	ping := []byte{rawPing, 0, 0, 0, 0, 0, 0, 0}
	am := timed("gasnet.am_rt", func() {
		ep.AM(1, b.raw.id, ping, nil)
		await(&b.raw.pong[0])
	})
	ep.AM(1, b.raw.id, []byte{rawStop}, nil)
	b.tally(4*n, bad)
	return []sample{put, get, amo, am,
		{name: "core.self_us", value: ls.rputP50 - put.value, ops: n}}
}

// --- task, dht, sparse, mpi ----------------------------------------------------

// taskLayer times the task runtime's own overheads on a runtime that lives
// only for this phase: an empty Finish, local spawns, and draining 64
// seeded-grain tasks all spawned at rank 0 while rank 1 steals.
func (b *bench) taskLayer(int) []sample {
	const spawns, skewed = 2000, 64
	// Only rank 1 steals: with both ranks stealing at GOMAXPROCS 1 the last
	// few tasks can be stolen back and forth without ever being run (README,
	// "Known gaps").
	rt := upcxx.NewTaskRuntime(b.rk, upcxx.TaskConfig{Workers: 1, NoSteal: b.me == 0})
	defer rt.Stop()
	finish := func() time.Duration {
		b.rk.Barrier()
		t0 := time.Now()
		if err := rt.Finish(); err != nil {
			panic(err)
		}
		return time.Since(t0)
	}
	empty := finish()
	var spawn time.Duration
	if b.me == 0 {
		t0 := time.Now()
		for i := 0; i < spawns; i++ {
			upcxx.AsyncAtFF(rt, 0, nopTask, int64(i))
		}
		spawn = time.Since(t0)
	}
	finish()
	b.rk.Barrier()
	t0 := time.Now()
	if b.me == 0 {
		for i := 0; i < skewed; i++ {
			upcxx.AsyncAtFF(rt, 0, grainTask, 100+b.rng.Int63n(200))
		}
	}
	if err := rt.Finish(); err != nil {
		panic(err)
	}
	drain := time.Since(t0)
	if b.me != 0 {
		return nil
	}
	b.tally(spawns+skewed, 0)
	return []sample{
		{name: "task.finish_empty_ms", value: empty.Seconds() * 1e3, ops: 1},
		{name: "task.spawn_local_us", value: spawn.Seconds() * 1e6 / spawns, ops: spawns},
		{name: "task.steal_drain_ms", value: drain.Seconds() * 1e3, ops: skewed},
	}
}

// dhtLayer times Find and the library's own pipelined, batched and
// serial-map insert loops at this workload's value size.
func (b *bench) dhtLayer(ls *layerState) []sample {
	inserts := min(2000, (4<<20)/b.S)
	keys := b.dhtKeys[:0]
	for i := 0; i < 64; i++ {
		k := b.dhtKey()
		keys = append(keys, k)
		b.table.Insert(k, b.src).Wait()
	}
	lat := b.samples[:0]
	bad := 0
	for _, k := range keys {
		t0 := time.Now()
		got := b.table.Find(k).Wait()
		lat = append(lat, int64(time.Since(t0)))
		if !bytes.Equal(got, b.src) {
			bad++
		}
	}
	for _, k := range keys {
		if !b.table.Erase(k).Wait() {
			bad++
		}
	}
	b.tally(len(keys), bad)
	ls.dhtSeed += 7919 // fresh keys every round: an overwrite is not an insert
	cfg := dht.BenchConfig{ElemSize: b.S, VolumePerRank: inserts * b.S, Seed: ls.dhtSeed}
	kops := func(r dht.BenchResult) float64 { return r.InsertsPerSec() / 1e3 }
	b.tally(3*inserts, 0)
	return []sample{
		latSample("dht.find_lat_us", lat, 1),
		{name: "dht.insert_pipelined_kops", value: kops(dht.RunInsertPipelinedBench(b.rk, ls.rpcTable, cfg)), ops: inserts},
		{name: "dht.batch_insert_kops", value: kops(dht.RunInsertBatchBench(b.rk, ls.rpcTable, cfg, batchSize)), ops: inserts},
		{name: "dht.serial_baseline_kops", value: kops(dht.RunSerialBench(cfg)), ops: inserts},
	}
}

// sparseLayer runs the two application motifs to solution and checks this
// rank's share of the result against the serial / dense oracle.
func (b *bench) sparseLayer(ls *layerState) []sample {
	store, eadd := sparse.EAddUPCXX(b.rk, ls.eadd)
	bad := 0
	for f, m := range store.Data {
		for k, v := range m {
			if w, ok := ls.eaddWant.Data[f][k]; !ok || math.Abs(v-w) > 1e-9 {
				bad++
			}
		}
	}
	entries := upcxx.AllReduce(b.rk.WorldTeam(), int64(store.Entries()), func(x, y int64) int64 { return x + y }).Wait()
	if int(entries) != ls.eaddWant.Entries() {
		bad++
	}
	res := sparse.CholV1(b.rk, ls.chol)
	for _, t := range res.L {
		want := ls.cholWant[int(t[0])*ls.cholN+int(t[1])]
		if math.Abs(want-t[2]) > 1e-8*(1+math.Abs(want)) {
			bad++
		}
	}
	if b.me != 0 {
		return nil
	}
	b.tally(2, min(bad, 2))
	return []sample{
		{name: "sparse.eadd_ms", value: eadd.Seconds() * 1e3, ops: 1},
		{name: "sparse.chol_v1_ms", value: res.Elapsed.Seconds() * 1e3, ops: 1},
	}
}

// mpiLayer is the paper's Fig 3 comparison line: Put+Flush on the MPI-RMA
// model, always on its own in-process 2-rank world inside the initiator's
// process, so it is a fixed reference whatever the workload's backend.
func (b *bench) mpiLayer() []sample {
	const n = 1000
	lat := make([]int64, 0, n)
	ok := false
	mpi.Run(2, func(p *mpi.Proc) {
		win := mpi.CreateWin(p, b.S)
		p.Barrier()
		if p.Rank() == 0 {
			for i := 0; i < n; i++ {
				t0 := time.Now()
				win.Put(b.src, 1, 0)
				win.Flush(1)
				lat = append(lat, int64(time.Since(t0)))
			}
		}
		p.Barrier()
		if p.Rank() == 1 {
			ok = bytes.Equal(win.LocalData(), b.src)
		}
		win.Free()
	})
	bad := 0
	if !ok {
		bad = n
	}
	b.tally(n, bad)
	return []sample{latSample("mpi.put_flush_lat_us", lat, 1)}
}

// --- process and obs numbers ---------------------------------------------------

// procUsage is the initiator process's resource use so far.
type procUsage struct {
	cpu time.Duration
	rss float64 // peak, MB
	gcs uint32
}

func readProc() procUsage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	tv := func(t syscall.Timeval) time.Duration {
		return time.Duration(t.Sec)*time.Second + time.Duration(t.Usec)*time.Microsecond
	}
	return procUsage{cpu: tv(ru.Utime) + tv(ru.Stime), rss: float64(ru.Maxrss) / 1024, gcs: m.NumGC}
}

// rputFor issues blocking puts for d and returns their latencies (ns). The
// traced run calls it from the same place in its plain world and in its
// stats-on world, so the two differ in nothing but Config.Stats.
func (b *bench) rputFor(d time.Duration) []int64 {
	op := b.rputOp()
	lat := []int64{}
	for t0 := time.Now(); time.Since(t0) < d; {
		lat = append(lat, b.blocking(op, 256).lat...)
	}
	return lat
}

// obsLayer runs on a world built with Config.Stats on and the trace armed:
// blocking puts, then the stage means from the runtime's own histograms and
// their sum against the wall clock. On the process conduits the landing hop
// is stamped at the initiator at send time (ROADMAP item 5), so the landing
// stage is reported, not trusted.
func (b *bench) obsLayer(d time.Duration) map[string]float64 {
	lat := b.rputFor(d)
	snap := b.rk.Stats()
	stage := func(which uint8) float64 {
		if n := snap.LatN[which][obs.KindPut]; n > 0 {
			return float64(snap.LatSumNS[which][obs.KindPut]) / float64(n) / 1e3
		}
		return 0
	}
	land, done := stage(obs.HistLand), stage(obs.HistDone)
	return map[string]float64{
		"obs.stage_inject_landing_us":   land,
		"obs.stage_landing_complete_us": done - land,
		"obs.reconcile_ratio":           done / (mean(lat) / 1e3),
		"rput_p50_us":                   p50us(lat),
	}
}
