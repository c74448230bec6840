// Cross-process conduit matrix: every scenario here runs as a real
// multi-process job — the test re-executes its own binary once per rank
// through core.LaunchWorld, and TestMain dispatches the spawned copies
// (which arrive with UPCXX_RANK set) to a worker scenario instead of the
// test runner. Because the workers are the same race-instrumented
// executable, `go test -race ./internal/xproc` extends the race detector
// across every rank process of every scenario.
//
// Scenarios:
//
//	smoke — put, get, rpc, batch-rpc, signaling-put, allreduce, each
//	        verified at the wire's far side; run at 2 and 4 ranks on
//	        both backends.
//	idle  — ranks sit in ProgressWait for 600ms of wall time and assert
//	        (via getrusage) that the idle-wait parks instead of spinning:
//	        CPU burned must stay under a third of the wall time.
//	onep  — every rank runs with GOMAXPROCS=1 and does blocking put, get,
//	        AMO, RPC and barrier rounds: with one P the waiter holds the
//	        processor its own socket reader needs, so every wait has to
//	        park (core's idle rule) for the round to end at all quickly.
//	fifo  — rank 0 floods rank 1 with sequence-numbered fire-and-forget
//	        RPCs, many rings' worth, every hundredth too large for a ring
//	        record, then reads the target's tally back with a round-trip
//	        RPC: per-pair FIFO must hold across a full ring and across
//	        the ring/socket boundary, with default Ps and with one.
//	flood2 — both ranks, one P each, fire round-trip RPC bursts larger
//	        than the ring at each other: both rings fill, injectors park
//	        inside a handler's reply, and it must still finish — in order,
//	        nothing past the ring, and in the time of no park's backstop.
//	pingpong — blocking RPC round trips against a target that sits in
//	        Barrier, counted at the initiator: on shm a round trip is one
//	        ring record each way and (next to) no doorbell and no socket
//	        frame — the waiter is the poller — and on tcp two frames, as
//	        ever; requests too large for a ring record park a one-P target
//	        at their marker instead of yielding its budget out; then the
//	        target is left alone until it parks, and one more round trip
//	        costs exactly one doorbell.
//	bulk  — both ranks, over tcp, flood each other with 64 KiB puts, many
//	        send-queue bounds' worth and nothing fenced, mixed with 64 KiB
//	        gets and sequence-numbered fire-and-forget RPCs: both
//	        injectors park on their full send queues while each reader
//	        must keep acking the other's puts and serving its gets — a
//	        reply that waited for queue room would deadlock the pair. Data,
//	        per-pair order and a ceiling on max RSS (the queue is bounded,
//	        bulk data lands in place) are checked.
//	kill  — one rank vanishes mid-job (os.Exit with no shutdown
//	        handshake); the survivors must observe an error wrapping
//	        gasnet.ErrPeerLost instead of hanging, and prove it by
//	        dropping marker files the parent test asserts on.
//	task  — the async-task runtime across real processes: a skewed
//	        fire-and-forget workload (every task at rank 0) drained by
//	        work stealing, a result-bearing AsyncAt round trip, and a
//	        Finish whose termination count is verified by allreduce.
//	taskrt — the remote-task path: rank 0 interleaves AsyncAt+HelpWait round
//	        trips with RPC round trips to rank 1 (one worker each, stealing
//	        on and off) and both ranks count the AMs they sent: a remote
//	        task must cost one message each way (exactly, with NoSteal; a
//	        quarter more at most with the steal back-off amortised in),
//	        a small multiple of an RPC's time whether or not steal chatter
//	        is there to wake anybody, and no round trip may wait out a park.
//	taskkill — one rank dies before joining the termination detector;
//	        the survivors' Finish must surface ErrPeerLost instead of
//	        spinning detector waves forever, proven by marker files.
package xproc

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"upcxx/internal/gasnet"
	"upcxx/internal/task"

	core "upcxx/internal/core"
)

// Registered RPC bodies for the smoke scenario (cross-process dispatch
// is by function name).

func xprocEcho(trk *core.Rank, x uint64) uint64 { return x + 1 }

func xprocBump(trk *core.Rank, c core.GPtr[uint64]) {
	core.Local(trk, c, 1)[0]++
}

// Task bodies for the task scenarios; xprocTaskRuns counts executions
// in this OS process, whichever rank they were spawned at.

var xprocTaskRuns atomic.Uint64

func xprocTaskWork(trk *core.Rank, us int64) {
	time.Sleep(time.Duration(us) * time.Microsecond)
	xprocTaskRuns.Add(1)
}

func xprocTaskEcho(trk *core.Rank, x uint64) uint64 { return x * 3 }

// The kill scenarios' victim leaves only once every survivor has told it,
// through xprocOut, that it is out of the opening barrier: a survivor
// still inside the barrier when the victim vanishes would meet the loss in
// its own Wait, as a panic, before the scenario proper begins.

var xprocOuts atomic.Int32

func xprocOut(trk *core.Rank, _ core.Unit) { xprocOuts.Add(1) }

// leaveOpeningBarrier ends the kill scenarios' opening barrier: survivors
// report out and return; the victim (rank 1) waits for all of them and
// exits with no shutdown handshake. Exit status 0 keeps the launcher,
// which kills the job on the first non-zero exit, away from the survivors;
// to them the exit is indistinguishable from a crash.
func leaveOpeningBarrier(rk *core.Rank) {
	rk.Barrier()
	if rk.Me() != 1 {
		core.RPCFF(rk, 1, xprocOut, core.Unit{})
		return
	}
	for xprocOuts.Load() < int32(rk.N())-1 {
		rk.ProgressWait(time.Millisecond)
	}
	os.Exit(0)
}

// The fifo scenario's target state. Bodies run on the master persona only.
type fifoTally struct {
	Count    uint64 // bodies run; also the sequence number due next
	Bad      bool   // a body ran out of turn
	Got, Due uint64 // the first one that did, and the number due then
}

var xprocFifo fifoTally

func fifoSee(seq uint64) {
	if f := &xprocFifo; seq != f.Count && !f.Bad {
		f.Bad, f.Got, f.Due = true, seq, f.Count
	}
	xprocFifo.Count++
}

func xprocSeq(trk *core.Rank, seq uint64)              { fifoSee(seq) }
func xprocSeqView(trk *core.Rank, v core.View[uint64]) { fifoSee(v.Elements()[0]) }
func xprocSeqRead(trk *core.Rank, _ uint8) fifoTally   { return xprocFifo }
func xprocSeqEcho(trk *core.Rank, seq uint64) uint64   { fifoSee(seq); return seq + 1 }

func xprocViewLen(trk *core.Rank, v core.View[uint64]) uint64 { return uint64(v.Len()) }

// What pingpong's initiator reads off its target: the ring records it has
// produced, the times a park of its was ended by the doorbell, its idle yields.
func xprocCounts(trk *core.Rank, _ uint8) [3]uint64 {
	st := trk.Stats()
	return [3]uint64{trk.World().Network().ConduitInfo().RingRecords, st.Wakeups, st.IdleYields}
}

func init() {
	core.RegisterRPCFF(xprocSeq)
	core.RegisterRPCFF(xprocSeqView)
	core.RegisterRPC(xprocSeqRead)
	core.RegisterRPC(xprocSeqEcho)
	core.RegisterRPC(xprocCounts)
	core.RegisterRPC(xprocViewLen)
	core.RegisterRPC(xprocEcho)
	core.RegisterRPCFF(xprocBump)
	core.RegisterRPCFF(xprocOut)
	core.RegisterRPCFF(xprocTaskrtStop)
	task.RegisterFF(xprocTaskWork)
	task.Register(xprocTaskEcho)
}

// TestMain dispatches spawned rank processes to their worker scenario;
// the parent invocation (no UPCXX_RANK) runs the normal test binary.
func TestMain(m *testing.M) {
	if scen := os.Getenv("XPROC_SCENARIO"); scen != "" && os.Getenv("UPCXX_RANK") != "" {
		os.Exit(runWorker(scen))
	}
	os.Exit(m.Run())
}

// launch runs this test binary as an n-rank job over backend with the
// given scenario and returns the job's aggregate exit code.
func launch(t *testing.T, backend string, n int, scenario string, extraEnv ...string) int {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatalf("os.Executable: %v", err)
	}
	dir := t.TempDir()
	env := append([]string{"XPROC_SCENARIO=" + scenario}, extraEnv...)
	return core.LaunchWorld(n, backend, dir, exe, nil, env)
}

var backends = []string{"tcp", "shm"}

func TestSmoke(t *testing.T) {
	for _, backend := range backends {
		for _, n := range []int{2, 4} {
			t.Run(fmt.Sprintf("%s/%dranks", backend, n), func(t *testing.T) {
				if code := launch(t, backend, n, "smoke"); code != 0 {
					t.Fatalf("smoke job over %s with %d ranks exited %d", backend, n, code)
				}
			})
		}
	}
}

func TestIdleWaitParks(t *testing.T) {
	for _, backend := range backends {
		t.Run(backend, func(t *testing.T) {
			if code := launch(t, backend, 2, "idle"); code != 0 {
				t.Fatalf("idle job over %s exited %d (idle-wait burned too much CPU?)", backend, code)
			}
		})
	}
}

// TestBlockingOpsOnOneP runs the blocking operations with one P in every
// rank process — the configuration the committed benchmark measures and a
// multi-core CI host otherwise never exercises.
func TestBlockingOpsOnOneP(t *testing.T) {
	for _, backend := range backends {
		t.Run(backend, func(t *testing.T) {
			if code := launch(t, backend, 3, "onep", "GOMAXPROCS=1"); code != 0 {
				t.Fatalf("one-P job over %s exited %d", backend, code)
			}
		})
	}
}

// TestPairFIFOUnderFlood: per-pair order survives a flood many times the
// size of the shm ring with frames too large for a record mixed in — the
// ring-full spill to the socket used to let later messages overtake.
func TestPairFIFOUnderFlood(t *testing.T) {
	for _, backend := range backends {
		bothPs(t, backend, "fifo")
	}
}

// bothPs runs a two-rank scenario over backend with default Ps and with one.
func bothPs(t *testing.T, backend, scenario string) {
	for _, env := range [][]string{nil, {"GOMAXPROCS=1"}} {
		name := backend + "/default"
		if env != nil {
			name = backend + "/oneP"
		}
		t.Run(name, func(t *testing.T) {
			if code := launch(t, backend, 2, scenario, env...); code != 0 {
				t.Fatalf("%s job over %s exited %d", scenario, name, code)
			}
		})
	}
}

// TestFloodBothWaysOnOneP: two one-P ranks flood each other with round-trip
// RPCs; nothing may deadlock when both rings are full at once.
func TestFloodBothWaysOnOneP(t *testing.T) {
	for _, backend := range backends {
		t.Run(backend, func(t *testing.T) {
			if code := launch(t, backend, 2, "flood2", "GOMAXPROCS=1"); code != 0 {
				t.Fatalf("flood2 job over %s exited %d", backend, code)
			}
		})
	}
}

// TestPingPong counts what a blocking round trip costs on each backend, with
// default Ps and with one: the path across processes, by count.
func TestPingPong(t *testing.T) {
	for _, backend := range backends {
		bothPs(t, backend, "pingpong")
	}
}

// TestBulkFloodBothWays: the tcp send queue's bound under a mutual flood of
// bulk puts, with default Ps and with one.
func TestBulkFloodBothWays(t *testing.T) { bothPs(t, "tcp", "bulk") }

func TestKilledRankSurfacesPeerLost(t *testing.T) {
	for _, backend := range backends {
		t.Run(backend, func(t *testing.T) {
			mark := t.TempDir()
			// The victim exits with status 0 so the launcher does not
			// tear the survivors down before they can observe the loss;
			// the assertion is the survivors' marker files, not the
			// job's exit code.
			if code := launch(t, backend, 3, "kill", "XPROC_MARK="+mark); code != 0 {
				t.Fatalf("kill job over %s exited %d (a survivor hung or saw the wrong error)", backend, code)
			}
			for _, r := range []int{0, 2} {
				b, err := os.ReadFile(filepath.Join(mark, fmt.Sprintf("survivor-%d", r)))
				if err != nil {
					t.Fatalf("surviving rank %d left no ErrPeerLost marker: %v", r, err)
				}
				t.Logf("rank %d observed: %s", r, b)
			}
		})
	}
}

func TestTaskRuntimeXProc(t *testing.T) {
	for _, backend := range backends {
		t.Run(backend, func(t *testing.T) {
			if code := launch(t, backend, 4, "task"); code != 0 {
				t.Fatalf("task job over %s exited %d", backend, code)
			}
		})
	}
}

// TestTaskRoundTrip pins what a remote task costs beside an RPC, in messages
// and in time, with stealing on and off: the wake-ups on the path must not
// depend on steal chatter, so the two cells' task ÷ RPC ratios (rank 0 leaves
// its own in XPROC_MARK) stay within 1.5 x of each other. A cell's ratio is
// the median of three jobs': where waits are polled (shm) one job's reading
// moves with which of its four spinning goroutines the OS happens to run next.
func TestTaskRoundTrip(t *testing.T) {
	jobs := 3
	if raceEnabled {
		jobs = 1 // the time rows skip themselves there
	}
	for _, backend := range backends {
		ratio := map[string]float64{}
		for _, steal := range []string{"steal", "nosteal"} {
			t.Run(backend+"/"+steal, func(t *testing.T) {
				var rs []float64
				for range jobs {
					mark := t.TempDir()
					if code := launch(t, backend, 2, "taskrt", "XPROC_STEAL="+steal, "XPROC_MARK="+mark); code != 0 {
						t.Fatalf("taskrt job over %s (%s) exited %d", backend, steal, code)
					}
					b, _ := os.ReadFile(filepath.Join(mark, "ratio"))
					var r float64
					if _, err := fmt.Sscan(string(b), &r); err != nil {
						t.Fatalf("rank 0 left no task/RPC ratio (%q): %v", b, err)
					}
					rs = append(rs, r)
				}
				slices.Sort(rs)
				ratio[steal] = rs[len(rs)/2]
			})
		}
		on, off := ratio["steal"], ratio["nosteal"]
		if !raceEnabled && on > 0 && off > 0 && off > 1.5*on {
			t.Errorf("%s: a task costs %.2f RPCs with NoSteal and %.2f with stealing on: a round trip waits for steal chatter to wake it", backend, off, on)
		}
	}
}

func TestTaskFinishSurfacesPeerLost(t *testing.T) {
	for _, backend := range backends {
		t.Run(backend, func(t *testing.T) {
			mark := t.TempDir()
			if code := launch(t, backend, 3, "taskkill", "XPROC_MARK="+mark); code != 0 {
				t.Fatalf("taskkill job over %s exited %d (a survivor hung in Finish or saw the wrong error)", backend, code)
			}
			for _, r := range []int{0, 2} {
				b, err := os.ReadFile(filepath.Join(mark, fmt.Sprintf("survivor-%d", r)))
				if err != nil {
					t.Fatalf("surviving rank %d's Finish left no ErrPeerLost marker: %v", r, err)
				}
				t.Logf("rank %d Finish returned: %s", r, b)
			}
		})
	}
}

// --- worker side --------------------------------------------------------

func runWorker(scen string) (code int) {
	core.RunConfig(core.Config{SegmentSize: 32 << 20, Stats: scen == "pingpong"}, func(rk *core.Rank) {
		switch scen {
		case "fifo":
			fifoBody(rk)
		case "flood2":
			code = flood2Body(rk)
		case "pingpong":
			code = pingpongBody(rk)
		case "bulk":
			code = bulkBody(rk)
		case "smoke":
			smokeBody(rk)
		case "idle":
			code = idleBody(rk)
		case "onep":
			code = onePBody(rk)
		case "kill":
			killBody(rk) // never returns
		case "task":
			taskBody(rk)
		case "taskrt":
			code = taskRoundTripBody(rk)
		case "taskkill":
			taskKillBody(rk) // never returns
		default:
			fmt.Fprintf(os.Stderr, "xproc: unknown scenario %q\n", scen)
			code = 2
		}
	})
	return code
}

func expect(cond bool, format string, args ...any) {
	if !cond {
		panic("xproc: " + fmt.Sprintf(format, args...))
	}
}

// smokeBody exercises one of each wire operation, verifying payloads at
// the receiving side.
func smokeBody(rk *core.Rank) {
	me, n := rk.Me(), rk.N()
	right, left := (me+1)%n, (me-1+n)%n

	arr := core.MustNewArray[uint64](rk, 8)
	cnt := core.MustNewArray[uint64](rk, 1)
	type slots struct {
		Arr core.GPtr[uint64]
		Cnt core.GPtr[uint64]
	}
	obj := core.NewDistObject(rk, slots{arr, cnt})
	rk.Barrier()
	rs := core.FetchDist[slots](rk, obj.ID(), right).Wait()
	ls := core.FetchDist[slots](rk, obj.ID(), left).Wait()
	loc := core.Local(rk, arr, 8)

	// put: stamp rank-tagged values into the right neighbour's slots.
	src := make([]uint64, 4)
	for i := range src {
		src[i] = uint64(me)*100 + uint64(i) + 1
	}
	core.RPut(rk, src, rs.Arr).Wait()
	rk.Barrier()
	for i := 0; i < 4; i++ {
		expect(loc[i] == uint64(left)*100+uint64(i)+1,
			"put: rank %d slot %d = %d, want from rank %d", me, i, loc[i], left)
	}

	// get: publish locally, then read the left neighbour's upper slots.
	for i := 0; i < 4; i++ {
		loc[4+i] = uint64(me)*1000 + uint64(i)
	}
	rk.Barrier()
	got := make([]uint64, 4)
	core.RGet(rk, ls.Arr.Add(4), got).Wait()
	for i := range got {
		expect(got[i] == uint64(left)*1000+uint64(i),
			"get: rank %d read %d from rank %d slot %d", me, got[i], left, 4+i)
	}

	// rpc: round trip with a registered body.
	r := core.RPC(rk, right, xprocEcho, uint64(me)*7).Wait()
	expect(r == uint64(me)*7+1, "rpc: echo(%d) = %d", me*7, r)

	// batch-rpc: one frame, many calls.
	b := core.NewBatch(rk, right)
	futs := make([]core.Future[uint64], 64)
	for i := range futs {
		futs[i] = core.BatchRPC(b, xprocEcho, uint64(i))
	}
	b.Flush()
	for i, f := range futs {
		expect(f.Wait() == uint64(i)+1, "batch-rpc: call %d", i)
	}

	// signaling-put: payload plus remote-cx notification in one message.
	core.RPutWith(rk, src[:1], rs.Arr, core.OpCxAsFuture(),
		core.RemoteCxAsRPC(xprocBump, rs.Cnt)).Op.Wait()
	myCnt := core.Local(rk, cnt, 1)
	for myCnt[0] < 1 {
		rk.ProgressWait(50 * time.Microsecond)
	}

	// allreduce: the collective's completion doubles as the epoch sync.
	sum := core.AllReduce(rk.WorldTeam(), int64(me)+1,
		func(a, b int64) int64 { return a + b }).Wait()
	expect(sum == int64(n)*(int64(n)+1)/2, "allreduce: sum %d over %d ranks", sum, n)
	rk.Barrier()
}

func tvDur(t syscall.Timeval) time.Duration {
	return time.Duration(t.Sec)*time.Second + time.Duration(t.Usec)*time.Microsecond
}

// idleBody asserts satellite 1: an idle rank parked in ProgressWait must
// not spin. 600ms of idle wall time may cost at most 200ms of CPU (a
// busy-poll loop would burn the full 600ms on its core).
func idleBody(rk *core.Rank) int {
	rk.Barrier() // bootstrap and connection setup excluded from the budget
	var ru0 syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru0)
	deadline := time.Now().Add(600 * time.Millisecond)
	for time.Now().Before(deadline) {
		rk.ProgressWait(5 * time.Millisecond)
	}
	var ru1 syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru1)
	cpu := tvDur(ru1.Utime) + tvDur(ru1.Stime) - tvDur(ru0.Utime) - tvDur(ru0.Stime)
	rk.Barrier()
	if cpu > 200*time.Millisecond {
		fmt.Fprintf(os.Stderr, "xproc idle: rank %d burned %v CPU over 600ms of idle wait\n", rk.Me(), cpu)
		return 1
	}
	return 0
}

// onePBody is rounds of blocking put, get, fetch-add, RPC and barrier
// against the right neighbour with one P in the process. Each wait can
// only end through this process's own reader goroutine; the budget below
// is what 5 x 200 waits cost when each one parks at once (tens of
// microseconds each) with two orders of magnitude to spare, and far less
// than they cost when a waiter holds the P until the scheduler preempts it.
func onePBody(rk *core.Rank) int {
	expect(runtime.GOMAXPROCS(0) == 1, "onep: GOMAXPROCS = %d, want 1", runtime.GOMAXPROCS(0))
	me, n := rk.Me(), rk.N()
	right := (me + 1) % n
	type slots struct {
		Val core.GPtr[uint64]
		Ctr core.GPtr[uint64]
	}
	mine := slots{core.MustNewArray[uint64](rk, 1), core.MustNewArray[uint64](rk, 1)}
	obj := core.NewDistObject(rk, mine)
	rk.Barrier()
	rs := core.FetchDist[slots](rk, obj.ID(), right).Wait()
	ad := core.NewAtomicU64(rk)

	const rounds = 200
	t0 := time.Now()
	src, got := make([]uint64, 1), make([]uint64, 1)
	for i := uint64(1); i <= rounds; i++ {
		src[0] = uint64(me)<<32 | i
		core.RPut(rk, src, rs.Val).Wait()
		core.RGet(rk, rs.Val, got).Wait()
		expect(got[0] == src[0], "onep: rank %d round %d read back %#x, put %#x", me, i, got[0], src[0])
		old := ad.FetchAdd(rs.Ctr, 1).Wait()
		expect(old == i-1, "onep: rank %d round %d fetch-add saw %d", me, i, old)
		r := core.RPC(rk, right, xprocEcho, i).Wait()
		expect(r == i+1, "onep: rank %d round %d echo = %d", me, i, r)
		rk.Barrier()
	}
	if el := time.Since(t0); el > 5*time.Second {
		fmt.Fprintf(os.Stderr, "xproc onep: rank %d took %v for %d rounds of blocking ops\n", me, el, rounds)
		return 1
	}
	return 0
}

// fifoBody: rank 0's flood is one stream of sequence numbers through two
// registered bodies, the small one riding ring records and the view one (a
// frame over ringMaxRec) taking the socket; nothing fences it, so it runs
// many rings ahead of the target. The closing RPC is ordered behind all of
// it and reads the tally.
func fifoBody(rk *core.Rank) {
	const N, every = 60000, 100
	rk.Barrier()
	if rk.Me() == 0 {
		big := make([]uint64, 600) // 4800 B: no ring record holds it
		for i := uint64(0); i < N; i++ {
			if i%every == every-1 {
				big[0] = i
				core.RPCFF(rk, 1, xprocSeqView, core.MakeView(big))
			} else {
				core.RPCFF(rk, 1, xprocSeq, i)
			}
		}
		got := core.RPC(rk, 1, xprocSeqRead, uint8(0)).Wait()
		expect(!got.Bad, "fifo: body %d ran when %d was due", got.Got, got.Due)
		expect(got.Count == N, "fifo: the closing RPC found %d of %d bodies run", got.Count, N)
		// On shm only the frames that cannot ride a record may take the socket.
		ci, viaSocket := rk.World().Network().ConduitInfo(), uint64(0)
		if ci.Backend == "shm" {
			viaSocket = N / every
		}
		expect(ci.SocketFallbacks == viaSocket, "fifo: %d frames took the socket past the ring, want %d", ci.SocketFallbacks, viaSocket)
	}
	rk.Barrier()
}

// flood2Body: each rank sends the other bursts of round-trip RPCs whose
// requests alone are several rings' worth, then waits for the replies —
// which the peer injects from inside its handlers, into a ring this rank is
// filling from its side too. Both injectors block on a full ring with unread
// records in their own: the block drains inbound first (gasnet's
// TestRingBothFullOneP counts the waits the backstop ended: none), so the
// bursts take the time of their round trips, not of four 100 ms backstops.
// The requests are numbered: each rank's bodies must run in the peer's order.
func flood2Body(rk *core.Rank) int {
	expect(runtime.GOMAXPROCS(0) == 1, "flood2: GOMAXPROCS = %d, want 1", runtime.GOMAXPROCS(0))
	const bursts, K = 4, 4000
	peer := 1 - rk.Me()
	rk.Barrier()
	t0 := time.Now()
	futs := make([]core.Future[uint64], K)
	for b := uint64(0); b < bursts; b++ {
		for i := range futs {
			futs[i] = core.RPC(rk, peer, xprocSeqEcho, b*K+uint64(i))
		}
		for i, f := range futs {
			expect(f.Wait() == b*K+uint64(i)+1, "flood2: rank %d burst %d call %d", rk.Me(), b, i)
		}
	}
	el := time.Since(t0)
	rk.Barrier()
	expect(!xprocFifo.Bad, "flood2: rank %d ran body %d when %d was due", rk.Me(), xprocFifo.Got, xprocFifo.Due)
	expect(xprocFifo.Count == bursts*K, "flood2: rank %d ran %d of %d bodies", rk.Me(), xprocFifo.Count, bursts*K)
	ci := rk.World().Network().ConduitInfo()
	expect(ci.SocketFallbacks == 0, "flood2: rank %d: %d ring-eligible frames took the socket", rk.Me(), ci.SocketFallbacks)
	fmt.Fprintf(os.Stderr, "xproc flood2: rank %d: %d bursts of %d round trips in %v, %d ring doorbells\n", rk.Me(), bursts, K, el, ci.RingDoorbells)
	if limit := 2 * time.Second; !raceEnabled && el > limit {
		fmt.Fprintf(os.Stderr, "xproc flood2: rank %d took %v for %d bursts of %d round trips, want under %v\n", rk.Me(), el, bursts, K, limit)
		return 1
	}
	return 0
}

// pingpongBody: rank 0 waits for one RPC at a time while rank 1 serves them
// from inside Barrier's wait, and reads its own conduit counters around 2000
// of them. On shm the waiter is the poller: each side finds the other's
// record in its ring by itself, so a round trip is one record each way and
// sends no doorbell and no socket frame (a twentieth and a tenth allowed for
// the park a scheduler hiccup causes); on tcp it is one frame each way. 500
// requests of 16 KiB follow, each a marker in the ring and a frame on the
// socket: rank 1's idle yields are counted around them. Then
// rank 0 leaves rank 1 alone until a round trip finds it parked — rank 1's
// count of doorbell wake-ups says so, not a clock — and that round trip must
// have cost exactly one doorbell: the parked state still works.
func pingpongBody(rk *core.Rank) int {
	const warm, rounds, bigRounds = 200, 2000, 500
	rk.Barrier()
	if rk.Me() == 0 {
		info := func() gasnet.ConduitInfo { return rk.World().Network().ConduitInfo() }
		for i := uint64(0); i < warm; i++ {
			core.RPC(rk, 1, xprocEcho, i).Wait()
		}
		theirs := core.RPC(rk, 1, xprocCounts, uint8(0)).Wait()
		c0 := info()
		for i := uint64(0); i < rounds; i++ {
			expect(core.RPC(rk, 1, xprocEcho, i).Wait() == i+1, "pingpong: round %d", i)
		}
		c1 := info()
		theirs1 := core.RPC(rk, 1, xprocCounts, uint8(0)).Wait()
		bells, frames := c1.RingDoorbells-c0.RingDoorbells, c1.FramesOut+c1.FramesIn-c0.FramesOut-c0.FramesIn
		fmt.Fprintf(os.Stderr, "xproc pingpong (%s, %d P): per round trip %.4f doorbells, %.4f socket frames, %.4f records out, %.4f back\n",
			c0.Backend, runtime.GOMAXPROCS(0), float64(bells)/rounds, float64(frames)/rounds,
			float64(c1.RingRecords-c0.RingRecords)/rounds, float64(theirs1[0]-theirs[0])/rounds)
		if c0.Backend == "shm" {
			expect(bells*20 <= rounds, "pingpong: %d doorbells for %d round trips, want at most a twentieth", bells, rounds)
			expect(frames*10 <= rounds, "pingpong: %d socket frames for %d round trips, want at most a tenth", frames, rounds)
			expect(c1.RingRecords-c0.RingRecords == rounds, "pingpong: %d ring records out for %d requests", c1.RingRecords-c0.RingRecords, rounds)
			// Between the two readings rank 1 answered the first and every round.
			expect(theirs1[0]-theirs[0] == rounds+1, "pingpong: %d ring records back for %d replies", theirs1[0]-theirs[0]-1, rounds)
		} else {
			expect(frames == 2*rounds, "pingpong: %d socket frames for %d round trips over %s, want one each way", frames, rounds, c0.Backend)
		}
		// Requests too large for a record: a marker in the ring, the frame on the
		// socket. The target's pass meets the marker and no yield of its will see
		// what the marker stands for — on one P its socket reader runs only once
		// the waiter blocks — so it parks at once instead of yielding its budget out.
		big, t0 := make([]uint64, 2048), time.Now()
		for i := 0; i < bigRounds; i++ {
			expect(core.RPC(rk, 1, xprocViewLen, core.MakeView(big)).Wait() == uint64(len(big)), "pingpong: oversize round %d", i)
		}
		el, theirs2, c2 := time.Since(t0), core.RPC(rk, 1, xprocCounts, uint8(0)).Wait(), info()
		fmt.Fprintf(os.Stderr, "xproc pingpong (%s, %d P): 16 KiB requests: %v a round trip, %.1f idle yields at the target, %.3f frames past the ring\n",
			c0.Backend, runtime.GOMAXPROCS(0), el/bigRounds, float64(theirs2[2]-theirs1[2])/bigRounds, float64(c2.SocketFallbacks-c1.SocketFallbacks)/bigRounds)
		if yields := theirs2[2] - theirs1[2]; c0.Backend == "shm" {
			expect(c2.SocketFallbacks-c1.SocketFallbacks == bigRounds, "pingpong: %d of %d oversize requests took the socket", c2.SocketFallbacks-c1.SocketFallbacks, bigRounds)
			// Yielded out, the budget is 128 a round trip (and was). What is left is the yields
			// before the marker came: one where the ranks share a CPU — a count — and as many
			// as the initiator takes to send where they do not, so only the first is pinned.
			expect(raceEnabled || runtime.NumCPU() > 1 || yields <= 16*bigRounds, "pingpong: the target yielded %d times over %d oversize requests on a shared CPU: it yields at a marker only its reader can pass", yields, bigRounds)
		}
		theirs1 = theirs2
		for try, woken := 0, theirs1[1]; ; try++ {
			expect(try < 100, "pingpong: rank 1 was never found parked")
			// Past rank 1's spin budget, on its own CPU or on ours: yields, then parks.
			for i := 0; i < 512; i++ {
				rk.ProgressWait(50 * time.Microsecond)
			}
			b0 := info().RingDoorbells
			w := core.RPC(rk, 1, xprocCounts, uint8(0)).Wait()[1]
			rung := info().RingDoorbells - b0
			expect(rung <= 1, "pingpong: %d doorbells for one request", rung)
			if w > woken && (rung == 1 || c0.Backend != "shm") {
				fmt.Fprintf(os.Stderr, "xproc pingpong (%s): try %d found rank 1 parked: %d doorbell\n", c0.Backend, try, rung)
				break // it was parked, and the request's one doorbell (tcp: its frame) woke it
			}
			woken = w // it met the request polling, or on its way into the park
		}
	}
	rk.Barrier()
	return 0
}

// bulkBody: each rank keeps bulkPuts 64 KiB puts (64 MiB, 64 send-queue
// bounds) in flight at the other, cycling over a few landing slots so that the
// last put to a slot must be the last to land, with every 32nd followed by a
// 64 KiB get of the peer's fixed pattern and every put by a numbered rpc_ff.
// Nothing is waited for until all of it is injected: the sockets fill both
// ways and both injectors park, so whatever completes does so through acks
// and get replies the readers send past the bound.
func bulkBody(rk *core.Rank) int {
	const S, slots, bulkPuts, getEvery = 64 << 10, 8, 1024, 32
	me, peer := int(rk.Me()), 1-rk.Me()
	type areas struct{ Land, Fixed core.GPtr[byte] }
	mine := areas{core.MustNewArray[byte](rk, slots*S), core.MustNewArray[byte](rk, S)}
	fill := func(b []byte, rank, seq int) {
		for i := range b {
			b[i] = byte(rank*131 + seq*7 + i + i>>8)
		}
	}
	fill(core.Local(rk, mine.Fixed, S), me, -1)
	obj := core.NewDistObject(rk, mine)
	rk.Barrier()
	theirs := core.FetchDist[areas](rk, obj.ID(), peer).Wait()
	go func() { // a deadlocked pair must fail the job, not hang it
		time.Sleep(60 * time.Second)
		fmt.Fprintf(os.Stderr, "xproc bulk: rank %d still flooding after a minute\n", me)
		os.Exit(1)
	}()

	src, got := make([]byte, S), make([][]byte, 0, bulkPuts/getEvery)
	all := core.NewPromise[core.Unit](rk)
	for i := 0; i < bulkPuts; i++ {
		fill(src, me, i)
		core.RPutWith(rk, src, theirs.Land.Add(i%slots*S), core.OpCxAsPromise(all)) // src is reusable on return
		core.RPCFF(rk, peer, xprocSeq, uint64(i))
		if i%getEvery == 0 {
			got = append(got, make([]byte, S))
			core.RGetWith(rk, theirs.Fixed, got[len(got)-1], core.OpCxAsPromise(all))
		}
		if i%16 == 0 {
			rk.Progress()
		}
	}
	all.Finalize().Wait()
	tally := core.RPC(rk, peer, xprocSeqRead, uint8(0)).Wait()
	expect(!tally.Bad, "bulk: at rank %d body %d ran when %d was due", peer, tally.Got, tally.Due)
	expect(tally.Count == bulkPuts, "bulk: rank %d ran %d of %d bodies", peer, tally.Count, bulkPuts)
	rk.Barrier() // the peer's puts have all been acked, so they are all here

	want := make([]byte, S)
	fill(want, int(peer), -1)
	for g, b := range got {
		expect(string(b) == string(want), "bulk: rank %d get %d returned the wrong bytes", me, g)
	}
	land := core.Local(rk, mine.Land, slots*S)
	for s := 0; s < slots; s++ {
		fill(want, int(peer), bulkPuts-slots+s)
		expect(string(land[s*S:(s+1)*S]) == string(want), "bulk: rank %d slot %d does not hold the last put aimed at it", me, s)
	}
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	fmt.Fprintf(os.Stderr, "xproc bulk: rank %d max RSS %d MiB\n", me, ru.Maxrss>>10)
	if !raceEnabled && ru.Maxrss>>10 > bulkMaxRSSMiB {
		fmt.Fprintf(os.Stderr, "xproc bulk: rank %d max RSS %d MiB, ceiling %d: the send queue is not bounded\n", me, ru.Maxrss>>10, bulkMaxRSSMiB)
		return 1
	}
	rk.Barrier()
	return 0
}

// bulkMaxRSSMiB is what a rank of the bulk scenario may reach: runtime, the
// touched part of its segment and two bounded queues fit well under it, 64 MiB
// of queued frames and the garbage they leave do not.
const bulkMaxRSSMiB = 40

// taskBody runs the async-task runtime across real rank processes: a
// result-bearing AsyncAt round trip, then a skewed fire-and-forget
// workload — every task spawned at rank 0 with a sleep grain — that only
// drains in reasonable time if idle ranks steal across the wire. Finish
// certifies global quiescence; the allreduced execution count certifies
// no task was lost or duplicated in migration.
func taskBody(rk *core.Rank) {
	me, n := rk.Me(), rk.N()
	rt := task.New(rk, task.Config{Workers: 2, StealBatch: 4})
	defer rt.Stop()
	rk.Barrier()

	// Result-bearing round trip: the result leg crosses the wire back.
	r := task.HelpWait(rt, task.AsyncAt(rt, (me+1)%n, xprocTaskEcho, uint64(me)*5+1))
	expect(r == (uint64(me)*5+1)*3, "task: echo at rank %d returned %d", me, r)

	const total = 64
	if me == 0 {
		for i := 0; i < total; i++ {
			task.AsyncAtFF(rt, 0, xprocTaskWork, 500)
		}
	}
	if err := rt.Finish(); err != nil {
		panic(fmt.Sprintf("xproc task: rank %d Finish: %v", me, err))
	}
	sum := core.AllReduce(rk.WorldTeam(), xprocTaskRuns.Load(),
		func(a, b uint64) uint64 { return a + b }).Wait()
	expect(sum == total, "task: %d executions across ranks, want %d", sum, total)
	rk.Barrier()
}

// xprocTaskrtDone tells rank 1 that rank 0's round trips are over.
var xprocTaskrtDone atomic.Bool

func xprocTaskrtStop(*core.Rank, core.Unit) { xprocTaskrtDone.Store(true) }

// taskRoundTripBody: rank 0 alternates a remote AsyncAt+HelpWait with an RPC
// to the same rank, timing each; rank 1 serves both from a ProgressWait loop,
// its one worker running the tasks. Each rank counts the AMs it sent — beside
// the RPCs' own, a task round trip may add one at each end, plus the steal
// requests and replies the back-off lets through. The time rows compare
// medians taken in the same run and skip under the race detector.
func taskRoundTripBody(rk *core.Rank) int {
	const rounds, warm = 2000, 100
	steal := os.Getenv("XPROC_STEAL") == "steal"
	rt := task.New(rk, task.Config{Workers: 1, NoSteal: !steal})
	defer rt.Stop()
	ep := rk.World().Network().Endpoint(gasnet.Rank(rk.Me()))
	rk.Barrier()
	sent := ep.Stats().AMs
	var taskNS, rpcNS []time.Duration
	if rk.Me() == 0 {
		for i := uint64(0); i < rounds; i++ {
			t0 := time.Now()
			r := task.HelpWait(rt, task.AsyncAt(rt, 1, xprocTaskEcho, i))
			t1 := time.Now()
			e := core.RPC(rk, 1, xprocEcho, i).Wait()
			t2 := time.Now()
			expect(r == i*3 && e == i+1, "taskrt: round %d returned task %d, rpc %d", i, r, e)
			if i >= warm {
				taskNS, rpcNS = append(taskNS, t1.Sub(t0)), append(rpcNS, t2.Sub(t1))
			}
		}
	} else {
		for !xprocTaskrtDone.Load() {
			rk.ProgressWait(time.Millisecond)
		}
	}
	// Per task round trip: what this rank sent beyond the RPCs' one each.
	perTask := float64(ep.Stats().AMs-sent-rounds) / rounds
	if rk.Me() == 0 {
		core.RPCFF(rk, 1, xprocTaskrtStop, core.Unit{})
	}
	bad := 0
	check := func(ok bool, format string, args ...any) {
		if !ok {
			bad = 1
			fmt.Fprintf(os.Stderr, "xproc taskrt (steal %v): rank %d: %s\n", steal, rk.Me(), fmt.Sprintf(format, args...))
		}
	}
	if steal {
		check(perTask >= 1 && perTask <= 1.25, "%.3f AMs sent per task round trip, want 1 to 1.25", perTask)
	} else {
		check(perTask == 1, "%.3f AMs sent per task round trip with NoSteal, want exactly 1", perTask)
	}
	if rk.Me() == 0 {
		slices.Sort(taskNS)
		slices.Sort(rpcNS)
		med, p90 := len(taskNS)/2, len(taskNS)*9/10
		ratio := float64(taskNS[med]) / float64(rpcNS[med])
		fmt.Fprintf(os.Stderr, "xproc taskrt (steal %v): task median %v p90 %v, rpc median %v p90 %v, ratio %.2f, %.3f AMs out per task\n",
			steal, taskNS[med], taskNS[p90], rpcNS[med], rpcNS[p90], ratio, perTask)
		err := os.WriteFile(filepath.Join(os.Getenv("XPROC_MARK"), "ratio"), fmt.Appendf(nil, "%.3f", ratio), 0o644)
		check(err == nil, "leaving the ratio for the test: %v", err)
		if !raceEnabled {
			check(taskNS[med] <= 6*rpcNS[med], "task round trip %v is more than 6 x the RPC's %v", taskNS[med], rpcNS[med])
			// A round trip that waited out a worker's park is a park bound
			// (200 us) slower than one that was woken; the RPCs' own tail
			// says how much of a slow tenth is the host's doing.
			check(taskNS[p90] <= 3*rpcNS[p90]+200*time.Microsecond, "a tenth of the task round trips took %v or more beside %v for the RPCs: a task sat in the deque through a park", taskNS[p90], rpcNS[p90])
		}
	}
	rk.Barrier()
	return bad
}

// taskKillBody kills rank 1 before it joins the termination detector;
// the survivors' Finish must fail fast with ErrPeerLost rather than
// waiting forever on a detector wave the dead rank will never join.
// Like killBody, every path exits the process directly.
func taskKillBody(rk *core.Rank) {
	rt := task.New(rk, task.Config{Workers: 1})
	leaveOpeningBarrier(rk) // rank 1 never returns
	// Watchdog: a hung Finish must fail the job, not stall it.
	go func() {
		time.Sleep(20 * time.Second)
		fmt.Fprintf(os.Stderr, "xproc taskkill: rank %d Finish never returned\n", rk.Me())
		os.Exit(1)
	}()
	for i := 0; i < 4; i++ {
		task.AsyncAtFF(rt, rk.Me(), xprocTaskWork, 100)
	}
	err := rt.Finish()
	if !errors.Is(err, gasnet.ErrPeerLost) {
		fmt.Fprintf(os.Stderr, "xproc taskkill: rank %d Finish returned %v, want ErrPeerLost\n", rk.Me(), err)
		os.Exit(1)
	}
	mark := filepath.Join(os.Getenv("XPROC_MARK"), fmt.Sprintf("survivor-%d", rk.Me()))
	if werr := os.WriteFile(mark, []byte(err.Error()), 0o666); werr != nil {
		fmt.Fprintf(os.Stderr, "xproc taskkill: rank %d marker: %v\n", rk.Me(), werr)
		os.Exit(1)
	}
	os.Exit(0)
}

// killBody makes rank 1 vanish mid-job; the survivors poll the conduit's
// failure state (plain progress passes — blocking waits would turn the
// loss into a panic) and prove they saw ErrPeerLost via marker files.
// Every path exits the process directly: with a rank gone there is no
// final barrier to return to.
func killBody(rk *core.Rank) {
	leaveOpeningBarrier(rk) // every conduit connection is up before the loss; rank 1 never returns
	deadline := time.Now().Add(15 * time.Second)
	for rk.World().Failed() == nil {
		if time.Now().After(deadline) {
			fmt.Fprintf(os.Stderr, "xproc kill: rank %d never observed the lost peer\n", rk.Me())
			os.Exit(1)
		}
		rk.ProgressWait(time.Millisecond)
	}
	err := rk.World().Failed()
	if !errors.Is(err, gasnet.ErrPeerLost) {
		fmt.Fprintf(os.Stderr, "xproc kill: rank %d saw %v, want ErrPeerLost\n", rk.Me(), err)
		os.Exit(1)
	}
	mark := filepath.Join(os.Getenv("XPROC_MARK"), fmt.Sprintf("survivor-%d", rk.Me()))
	if werr := os.WriteFile(mark, []byte(err.Error()), 0o666); werr != nil {
		fmt.Fprintf(os.Stderr, "xproc kill: rank %d marker: %v\n", rk.Me(), werr)
		os.Exit(1)
	}
	os.Exit(0)
}
