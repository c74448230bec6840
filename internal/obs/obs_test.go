package obs

import (
	"bytes"
	"encoding/json"
	"sync"
	"testing"
)

// TestCountersConcurrent hammers one rank's counters from many
// goroutines (as many personas would) and checks the totals are exact.
// Run under -race this also pins the recording paths as race-clean.
func TestCountersConcurrent(t *testing.T) {
	ob := New(2, Options{})
	ro := ob.Rank(0)
	const workers = 8
	const per = 1000
	var wg sync.WaitGroup
	pcs := make([]*PersonaCount, workers)
	for i := range pcs {
		pcs[i] = ro.Persona("worker")
	}
	for i := 0; i < workers; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < per; j++ {
				tag := ro.OpStart(KindPut, 8)
				ro.OpDone(tag, 8)
				tag.Landing(1, 8)
				ro.Completion(EvOp, ViaFuture)
				ro.Pass(j%2 == 0)
				ro.DMA(DMAH2D, 16)
				pcs[i].Enq.Add(1)
				pcs[i].Exec.Add(1)
			}
		}()
	}
	wg.Wait()
	s := ro.Snapshot()
	total := uint64(workers * per)
	if s.Ops[KindPut] != total {
		t.Errorf("Ops[put] = %d, want %d", s.Ops[KindPut], total)
	}
	if s.TxBytes[KindPut] != 8*total {
		t.Errorf("TxBytes[put] = %d, want %d", s.TxBytes[KindPut], 8*total)
	}
	if s.Cx[EvOp][ViaFuture] != total {
		t.Errorf("Cx[op][future] = %d, want %d", s.Cx[EvOp][ViaFuture], total)
	}
	if s.ProgressPasses != total || s.EmptyPasses != total/2 {
		t.Errorf("passes = %d/%d empty, want %d/%d", s.ProgressPasses, s.EmptyPasses, total, total/2)
	}
	if s.DMA[DMAH2D] != total || s.DMABytes[DMAH2D] != 16*total {
		t.Errorf("DMA[h2d] = %d/%d B, want %d/%d B", s.DMA[DMAH2D], s.DMABytes[DMAH2D], total, 16*total)
	}
	// Landings were recorded at rank 1; its rx bytes carry the total.
	s1 := ob.Rank(1).Snapshot()
	if s1.RxBytes[KindPut] != 8*total {
		t.Errorf("rank 1 RxBytes[put] = %d, want %d", s1.RxBytes[KindPut], 8*total)
	}
	// The same-name persona counters aggregate into one snapshot line.
	if len(s.Personas) != 1 || s.Personas[0].Enq != total || s.Personas[0].Exec != total {
		t.Errorf("personas = %+v, want one 'worker' line with %d/%d", s.Personas, total, total)
	}
	// Exact means: every sample latency is tiny but nonzero; the count
	// must be exact in both histograms.
	if got := s.HistCount(HistDone, KindPut); got != total {
		t.Errorf("HistCount(done, put) = %d, want %d", got, total)
	}
	if got := s.HistCount(HistLand, KindPut); got != total {
		t.Errorf("HistCount(land, put) = %d, want %d", got, total)
	}
}

// TestTraceRingWraparound fills a small ring past capacity and checks
// events() returns the newest depth events oldest-first with the
// overwritten ones counted as dropped.
func TestTraceRingWraparound(t *testing.T) {
	r := newRing(8)
	for i := 0; i < 20; i++ {
		r.record(Event{ID: uint64(i + 1), T: int64(i)})
	}
	evs := r.events()
	if len(evs) != 8 {
		t.Fatalf("len(events) = %d, want 8", len(evs))
	}
	for i, ev := range evs {
		if want := uint64(12 + i + 1); ev.ID != want {
			t.Errorf("events[%d].ID = %d, want %d", i, ev.ID, want)
		}
	}
	if got := r.dropped(); got != 12 {
		t.Errorf("dropped = %d, want 12", got)
	}
	r.reset()
	if len(r.events()) != 0 || r.dropped() != 0 {
		t.Errorf("reset ring not empty: %d events, %d dropped", len(r.events()), r.dropped())
	}
}

// TestTraceSampling arms tracing with a 1-in-3 sampler and checks only
// every third operation carries a trace ID.
func TestTraceSampling(t *testing.T) {
	ob := New(1, Options{TraceDepth: 64, TraceSample: 3})
	ro := ob.Rank(0)
	traced := 0
	for i := 0; i < 9; i++ {
		tag := ro.OpStart(KindRPC, 0)
		if tag.ID != 0 {
			traced++
		}
		ro.OpDone(tag, 0)
	}
	if traced != 3 {
		t.Errorf("traced %d of 9 ops at 1-in-3 sampling, want 3", traced)
	}
	s := ro.Snapshot()
	if ids := s.TracedOps(); len(ids) != 3 {
		t.Errorf("TracedOps = %v, want 3 distinct ids", ids)
	}
}

// TestHistogramMerge records distinct latency profiles on two ranks and
// checks the merged snapshot sums cells and keeps the mean exact.
func TestHistogramMerge(t *testing.T) {
	ob := New(2, Options{})
	r0, r1 := ob.Rank(0), ob.Rank(1)
	r0.histDone.Record(KindPut, 8, 1000)
	r0.histDone.Record(KindPut, 8, 3000)
	r1.histDone.Record(KindPut, 8, 5000)
	r1.histDone.Record(KindGet, 1<<20, 7000)
	m := ob.Merged()
	if m.Rank != -1 || m.Ranks != 2 {
		t.Errorf("merged identity = rank %d over %d, want -1 over 2", m.Rank, m.Ranks)
	}
	if got := m.HistCount(HistDone, KindPut); got != 3 {
		t.Errorf("merged HistCount(done, put) = %d, want 3", got)
	}
	if got := m.HistMean(HistDone, KindPut); got != 3000 {
		t.Errorf("merged HistMean(done, put) = %v ns, want exactly 3000", got)
	}
	if got := m.HistCount(HistDone, KindGet); got != 1 {
		t.Errorf("merged HistCount(done, get) = %d, want 1", got)
	}
	// Quantiles come from the buckets: the p100 of the puts must sit in
	// the bucket holding 5000ns.
	if q := m.HistQuantile(HistDone, KindPut, 1.0); q < 4096 || q > 8192 {
		t.Errorf("merged p100 = %v ns, want within the 5000ns bucket", q)
	}
}

// TestMergeQualifiesTraceIDs pins the cross-rank merge rule: per-rank
// trace sequence numbers collide across ranks (both ranks' first traced
// op is ID 1), so Merge must qualify every event ID by its originating
// rank. A merged timeline looked up by a qualified ID must contain only
// that one rank's events, and the source snapshots must keep their raw
// IDs.
func TestMergeQualifiesTraceIDs(t *testing.T) {
	ob := New(2, Options{TraceDepth: 64})
	r0, r1 := ob.Rank(0), ob.Rank(1)
	// One traced op per rank: identical per-rank IDs, distinct payloads.
	t0 := r0.OpStart(KindRPC, 100)
	r0.OpDone(t0, 100)
	t1 := r1.OpStart(KindPut, 200)
	r1.OpDone(t1, 200)
	if t0.ID != 1 || t1.ID != 1 {
		t.Fatalf("per-rank trace IDs = %d/%d, want the colliding 1/1", t0.ID, t1.ID)
	}

	s0, s1 := r0.Snapshot(), r1.Snapshot()
	m := ob.Merged()
	ids := m.TracedOps()
	if len(ids) != 2 {
		t.Fatalf("merged TracedOps = %v, want 2 distinct ids", ids)
	}
	for rank, tag := range []OpTag{t0, t1} {
		qid := QualifyTraceID(int32(rank), tag.ID)
		tl := m.Timeline(qid)
		if len(tl) == 0 {
			t.Fatalf("merged Timeline(QualifyTraceID(%d, %d)) is empty", rank, tag.ID)
		}
		for _, ev := range tl {
			if ev.Kind != tag.Kind {
				t.Errorf("rank %d timeline interleaved foreign events: got kind %v, want %v",
					rank, ev.Kind, tag.Kind)
			}
		}
	}
	// Merge must not rewrite the per-rank snapshots it read from.
	for i, s := range []Snapshot{s0, s1} {
		if tl := s.Timeline(1); len(tl) == 0 {
			t.Errorf("rank %d snapshot lost its raw trace ID 1", i)
		}
	}
	// Merging an already-merged snapshot must not re-qualify.
	before := append([]Event(nil), m.Trace...)
	var extra Snapshot
	extra.Rank = 2
	m.Merge(&extra)
	for i, ev := range m.Trace {
		if ev.ID != before[i].ID {
			t.Errorf("re-merge changed event %d ID %d -> %d", i, before[i].ID, ev.ID)
		}
	}
}

// TestSnapshotDeltaAndJSON checks counter deltas and the JSON round
// trip of a snapshot.
func TestSnapshotDeltaAndJSON(t *testing.T) {
	ob := New(1, Options{})
	ro := ob.Rank(0)
	for i := 0; i < 5; i++ {
		ro.OpDone(ro.OpStart(KindAM, 32), 32)
	}
	before := ro.Snapshot()
	for i := 0; i < 3; i++ {
		ro.OpDone(ro.OpStart(KindAM, 32), 32)
	}
	d := ro.Snapshot().Delta(before)
	if d.Ops[KindAM] != 3 || d.TxBytes[KindAM] != 96 {
		t.Errorf("delta ops/bytes = %d/%d, want 3/96", d.Ops[KindAM], d.TxBytes[KindAM])
	}
	buf, err := ro.Snapshot().JSON()
	if err != nil {
		t.Fatalf("JSON: %v", err)
	}
	var back Snapshot
	if err := json.Unmarshal(buf, &back); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if back.Ops[KindAM] != 8 || back.LatN[HistDone][KindAM] != 8 {
		t.Errorf("round-tripped ops/latN = %d/%d, want 8/8", back.Ops[KindAM], back.LatN[HistDone][KindAM])
	}
}

// TestSizeClassesAndBuckets pins the histogram key boundaries.
func TestSizeClassesAndBuckets(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want int
	}{{0, 0}, {64, 0}, {65, 1}, {512, 1}, {4 << 10, 2}, {32 << 10, 3}, {256 << 10, 4}, {2 << 20, 5}, {2<<20 + 1, 6}} {
		if got := SizeClass(tc.n); got != tc.want {
			t.Errorf("SizeClass(%d) = %d, want %d", tc.n, got, tc.want)
		}
	}
	for _, tc := range []struct {
		ns   int64
		want int
	}{{0, 0}, {1, 1}, {2, 2}, {3, 2}, {1 << 42, NumLatBuckets - 1}, {1 << 50, NumLatBuckets - 1}} {
		if got := latBucket(tc.ns); got != tc.want {
			t.Errorf("latBucket(%d) = %d, want %d", tc.ns, got, tc.want)
		}
	}
}

// TestArmedConcurrentTracing records sampled ops from several goroutines
// while armed; under -race this pins the mutex-guarded ring.
func TestArmedConcurrentTracing(t *testing.T) {
	ob := New(1, Options{TraceDepth: 32})
	ro := ob.Rank(0)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				tag := ro.OpStart(KindCopy, 256)
				tag.Hop(StageCapture, 0, 256)
				tag.Landing(0, 256)
				ro.OpDone(tag, 256)
			}
		}()
	}
	wg.Wait()
	s := ro.Snapshot()
	if s.Ops[KindCopy] != 400 {
		t.Errorf("Ops[copy] = %d, want 400", s.Ops[KindCopy])
	}
	if len(s.Trace) == 0 {
		t.Error("armed tracing buffered no events")
	}
	if s.TraceDropped == 0 {
		t.Error("expected drops from a 32-deep ring under 1600 events")
	}
}

// TestTaskCountersZeroValueOmission pins the task counters' back-compat
// contract: a rank that never touched the task runtime marshals with no
// "tasks" field at all (so pre-task-runtime decoders and Merge peers see
// exactly the shape they always did), while a rank that did records a
// dense TaskStat-indexed vector that Merge and Delta fold elementwise.
func TestTaskCountersZeroValueOmission(t *testing.T) {
	ob := New(2, Options{})
	idle := ob.Rank(0).Snapshot()
	b, err := json.Marshal(idle)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(b, []byte(`"tasks"`)) {
		t.Fatalf("idle snapshot leaked a tasks field: %s", b)
	}
	var back Snapshot
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back.Tasks != nil {
		t.Fatalf("decoded idle snapshot grew Tasks = %v", back.Tasks)
	}

	busy := ob.Rank(1)
	busy.CountTask(TaskSpawned, 3)
	busy.CountTask(TaskExecuted, 2)
	busy.CountTask(TaskStealFails, 1)
	bs := busy.Snapshot()
	if len(bs.Tasks) != int(NumTaskStats) || bs.Tasks[TaskSpawned] != 3 || bs.Tasks[TaskStealFails] != 1 {
		t.Fatalf("busy snapshot tasks = %v", bs.Tasks)
	}

	// Merging idle (no field) into busy and busy into idle both work.
	m := idle
	m.Merge(&bs)
	if m.Tasks[TaskExecuted] != 2 {
		t.Fatalf("merge idle←busy tasks = %v", m.Tasks)
	}
	m2 := bs
	m2.Merge(&idle)
	if m2.Tasks[TaskSpawned] != 3 {
		t.Fatalf("merge busy←idle tasks = %v", m2.Tasks)
	}

	busy.CountTask(TaskSpawned, 4)
	d := busy.Snapshot().Delta(bs)
	if d.Tasks[TaskSpawned] != 4 || d.Tasks[TaskExecuted] != 0 {
		t.Fatalf("delta tasks = %v", d.Tasks)
	}
}

// TestTaskTraceTimeline pins the task-lifecycle trace: a sampled task's
// spawn/enqueue/steal/execute/complete hops — recorded from two
// different ranks — reassemble into one timeline in the home rank's
// ring.
func TestTaskTraceTimeline(t *testing.T) {
	ob := New(2, Options{TraceDepth: 64})
	home, thief := ob.Rank(0), ob.Rank(1)
	id := home.TaskStart()
	if id == 0 {
		t.Fatal("armed tracing did not sample the task")
	}
	home.TaskHop(0, StageTaskEnq, id, 16)
	thief.TaskHop(0, StageTaskSteal, id, 16)
	thief.TaskHop(0, StageTaskExec, id, 16)
	thief.TaskHop(0, StageTaskDone, id, 0)
	tl := home.Snapshot().Timeline(id)
	want := []Stage{StageTaskSpawn, StageTaskEnq, StageTaskSteal, StageTaskExec, StageTaskDone}
	if len(tl) != len(want) {
		t.Fatalf("timeline has %d events, want %d: %v", len(tl), len(want), tl)
	}
	for i, ev := range tl {
		if ev.Stage != want[i] || ev.Kind != KindTask {
			t.Fatalf("event %d = %+v, want stage %s", i, ev, want[i])
		}
	}
	if tl[2].At != 1 {
		t.Fatalf("steal hop recorded at rank %d, want 1", tl[2].At)
	}
	// Hops recorded against an out-of-process home rank are dropped, not
	// misfiled.
	thief.TaskHop(7, StageTaskExec, id, 0)
}
