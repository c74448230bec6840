package obs

import (
	"encoding/json"
	"strings"
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
				ro.Add(EvOp.Via(ViaFuture), 1)
				ro.Add(ProgressPasses, 1)
				if j%2 == 0 {
					ro.Add(EmptyPasses, 1)
				}
				ro.Add(DMAH2D.Descriptors(), 1)
				ro.Add(DMAH2D.Bytes(), 16)
				pcs[i].Enq.Add(1)
				pcs[i].Exec.Add(1)
			}
		}()
	}
	wg.Wait()
	s := ro.Snapshot()
	total := uint64(workers * per)
	for c, want := range map[Counter]uint64{
		KindPut.Ops(): total, KindPut.TxBytes(): 8 * total, EvOp.Via(ViaFuture): total,
		ProgressPasses: total, EmptyPasses: total / 2, DMAH2D.Descriptors(): total, DMAH2D.Bytes(): 16 * total,
	} {
		if s.Counters[c] != want {
			t.Errorf("%s = %d, want %d", c, s.Counters[c], want)
		}
	}
	// Landings were recorded at rank 1; its rx bytes carry the total.
	s1 := ob.Rank(1).Snapshot()
	if got := s1.Counters[KindPut.RxBytes()]; got != 8*total {
		t.Errorf("rank 1 rx_bytes.put = %d, want %d", got, 8*total)
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
// overwritten ones counted as dropped; no ring reads as empty.
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
	var none *ring // a job without a trace depth
	if len(none.events()) != 0 || none.dropped() != 0 {
		t.Errorf("no ring: %d events, %d dropped", len(none.events()), none.dropped())
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
	m := Merged([]Snapshot{r0.Snapshot(), r1.Snapshot()})
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
	m := Merged([]Snapshot{r0.Snapshot(), r1.Snapshot()})
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

// TestSnapshotDeltaAndJSON checks what a snapshot carries besides its
// counters (TestCounterTable has those): the exact latency totals survive
// the JSON round trip, and Delta carries them from the later snapshot.
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
	if d := ro.Snapshot().Delta(before); d.LatN[HistDone][KindAM] != 8 || d.HistCount(HistDone, KindAM) != 8 {
		t.Errorf("delta latN/hist = %d/%d, want both carried at 8", d.LatN[HistDone][KindAM], d.HistCount(HistDone, KindAM))
	}
	buf, err := ro.Snapshot().JSON()
	if err != nil {
		t.Fatalf("JSON: %v", err)
	}
	var back Snapshot
	if err := json.Unmarshal(buf, &back); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if back.Counters[KindAM.Ops()] != 8 || back.LatN[HistDone][KindAM] != 8 {
		t.Errorf("round-tripped ops/latN = %d/%d, want 8/8", back.Counters[KindAM.Ops()], back.LatN[HistDone][KindAM])
	}
}

// TestCounterTable is the table's property test: for every Counter, its
// name is unique and "group.key"; a snapshot holding only that counter
// round-trips through JSON, which names it and omits every zero; Merge sums
// it, Delta takes the merge back; Fprint names it under its group.
func TestCounterTable(t *testing.T) {
	seen := map[string]bool{}
	for c := range NumCounters {
		name := c.String()
		group, key, ok := strings.Cut(name, ".")
		if !ok || group == "" || key == "" || seen[name] {
			t.Fatalf("counter %d: name %q is not a unique group.key", c, name)
		}
		seen[name] = true

		var one, two Snapshot
		one.Counters[c], two.Counters[c] = 7, 5
		b, err := json.Marshal(one)
		if err != nil {
			t.Fatal(err)
		}
		var back Snapshot
		if err := json.Unmarshal(b, &back); err != nil || back.Counters != one.Counters {
			t.Errorf("%s: JSON round trip = %v (%v), want only it at 7", name, back.Counters, err)
		}
		var raw struct{ Counters map[string]uint64 }
		if json.Unmarshal(b, &raw); len(raw.Counters) != 1 || raw.Counters[name] != 7 {
			t.Errorf("%s: JSON counters %v, want {%q: 7} and the zeros omitted", name, raw.Counters, name)
		}

		m := one
		m.Merge(&two)
		var sum Values
		sum[c] = 12
		if m.Counters != sum {
			t.Errorf("%s: Merge = %v, want only it at 12", name, m.Counters)
		}
		if d := m.Delta(two); d.Counters != one.Counters {
			t.Errorf("%s: Delta(Merge) = %v, want the snapshot merged into", name, d.Counters)
		}

		if out := one.String(); !strings.Contains(out, "\n"+group+":") || !strings.Contains(out, " "+key+"=7") {
			t.Errorf("%s: Fprint does not name it:\n%s", name, out)
		}
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

// TestArmedConcurrentTracing records traced ops from several goroutines
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
	if n := s.Counters[KindCopy.Ops()]; n != 400 {
		t.Errorf("ops.copy = %d, want 400", n)
	}
	if len(s.Trace) == 0 {
		t.Error("armed tracing buffered no events")
	}
	if s.TraceDropped == 0 {
		t.Error("expected drops from a 32-deep ring under 1600 events")
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
		t.Fatal("armed tracing did not trace the task")
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
