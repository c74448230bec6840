package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
)

// PersonaStat is one persona's LPC totals in a snapshot, aggregated by
// persona name (a rank may create many default personas, one per
// goroutine; they report as one line).
type PersonaStat struct {
	Name string `json:"name"`
	Enq  uint64 `json:"enq"`
	Exec uint64 `json:"exec"`
}

// PeerWire is one peer's wire traffic totals as seen from a snapshot's
// rank.
type PeerWire struct {
	Peer    int32  `json:"peer"`
	TxMsgs  uint64 `json:"tx_msgs"`
	TxBytes uint64 `json:"tx_bytes"`
	RxMsgs  uint64 `json:"rx_msgs"`
	RxBytes uint64 `json:"rx_bytes"`
}

// Snapshot is a point-in-time copy of one rank's observability state
// (or, after Merge, of several ranks'). It is a plain value: JSON-
// encodable, mergeable, and safe to hold after the world closes.
type Snapshot struct {
	// Rank is the snapshot's rank, or -1 after a merge.
	Rank int32 `json:"rank"`
	// Ranks is how many ranks' state this snapshot aggregates.
	Ranks int `json:"ranks"`

	Ops     [NumOpKinds]uint64 `json:"ops"`
	TxBytes [NumOpKinds]uint64 `json:"tx_bytes"`
	RxBytes [NumOpKinds]uint64 `json:"rx_bytes"`

	Cx [NumCxEvents][NumCxVias]uint64 `json:"cx"`

	Personas []PersonaStat `json:"personas,omitempty"`

	ProgressPasses uint64 `json:"progress_passes"`
	EmptyPasses    uint64 `json:"empty_passes"`
	Wakeups        uint64 `json:"wakeups"`
	IdleYields     uint64 `json:"idle_yields,omitempty"`
	DoorbellRings  uint64 `json:"doorbell_rings"`

	DMA      [NumDMAKinds]uint64 `json:"dma"`
	DMABytes [NumDMAKinds]uint64 `json:"dma_bytes"`

	// Fused reduction folds: device kernel launches that folded a whole
	// tree round's landed children at once, and the child operands they
	// consumed. Decoders of pre-split snapshots see zeros (omitempty).
	FusedFolds    uint64 `json:"fused_folds,omitempty"`
	FusedChildren uint64 `json:"fused_fold_children,omitempty"`

	// Tasks is the distributed task runtime's counters indexed by
	// TaskStat, present only when the rank ran tasks: a rank (or a
	// pre-task-runtime snapshot) that never touched the runtime omits the
	// field entirely, so decoders and Merge peers of either vintage
	// interoperate (the zero-value omission test pins this).
	Tasks []uint64 `json:"tasks,omitempty"`

	Wire []PeerWire `json:"wire,omitempty"`

	Hist []HistCell `json:"hist,omitempty"`

	// Exact latency totals per histogram (HistDone, HistLand) × kind,
	// backing quantization-free means; see Hist.
	LatSumNS [2][NumOpKinds]uint64 `json:"lat_sum_ns"`
	LatN     [2][NumOpKinds]uint64 `json:"lat_n"`

	Trace        []Event `json:"trace,omitempty"`
	TraceDropped uint64  `json:"trace_dropped,omitempty"`
}

// Snapshot captures the rank's current state, including a copy of the
// trace ring.
func (ro *RankObs) Snapshot() Snapshot {
	s := Snapshot{Rank: ro.rank, Ranks: 1}
	for k := range s.Ops {
		s.Ops[k] = ro.ops[k].Load()
		s.TxBytes[k] = ro.txBytes[k].Load()
		s.RxBytes[k] = ro.rxBytes[k].Load()
	}
	for e := range s.Cx {
		for v := range s.Cx[e] {
			s.Cx[e][v] = ro.cx[e][v].Load()
		}
	}
	s.ProgressPasses = ro.passes.Load()
	s.EmptyPasses = ro.empties.Load()
	s.Wakeups = ro.wakeups.Load()
	s.IdleYields = ro.yields.Load()
	s.DoorbellRings = ro.rings.Load()
	for k := range s.DMA {
		s.DMA[k] = ro.dma[k].Load()
		s.DMABytes[k] = ro.dmaBytes[k].Load()
	}
	s.FusedFolds = ro.fusedFolds.Load()
	s.FusedChildren = ro.fusedChildren.Load()
	for st := TaskStat(0); st < NumTaskStats; st++ {
		if v := ro.tasks[st].Load(); v != 0 {
			if s.Tasks == nil {
				s.Tasks = make([]uint64, NumTaskStats)
			}
			s.Tasks[st] = v
		}
	}
	for p := range ro.wireTxMsgs {
		pw := PeerWire{
			Peer:    int32(p),
			TxMsgs:  ro.wireTxMsgs[p].Load(),
			TxBytes: ro.wireTxBytes[p].Load(),
			RxMsgs:  ro.wireRxMsgs[p].Load(),
			RxBytes: ro.wireRxBytes[p].Load(),
		}
		if pw.TxMsgs != 0 || pw.RxMsgs != 0 {
			s.Wire = append(s.Wire, pw)
		}
	}
	byName := map[string]*PersonaStat{}
	ro.pmu.Lock()
	pcs := append([]*PersonaCount(nil), ro.personas...)
	ro.pmu.Unlock()
	for _, pc := range pcs {
		ps := byName[pc.Name]
		if ps == nil {
			s.Personas = append(s.Personas, PersonaStat{Name: pc.Name})
			ps = &s.Personas[len(s.Personas)-1]
			byName[pc.Name] = ps
		}
		ps.Enq += pc.Enq.Load()
		ps.Exec += pc.Exec.Load()
	}
	s.Hist = ro.histDone.snapshot(HistDone, s.Hist)
	s.Hist = ro.histLand.snapshot(HistLand, s.Hist)
	ro.histDone.totalsInto(&s.LatSumNS[HistDone], &s.LatN[HistDone])
	ro.histLand.totalsInto(&s.LatSumNS[HistLand], &s.LatN[HistLand])
	s.Trace = ro.ring.events()
	s.TraceDropped = ro.ring.dropped()
	return s
}

// SnapshotAll captures every rank.
func (ob *Obs) SnapshotAll() []Snapshot {
	out := make([]Snapshot, len(ob.ranks))
	for i, ro := range ob.ranks {
		out[i] = ro.Snapshot()
	}
	return out
}

// Merged captures every rank and merges them into one job-wide snapshot.
func (ob *Obs) Merged() Snapshot {
	var m Snapshot
	first := true
	for _, ro := range ob.ranks {
		s := ro.Snapshot()
		if first {
			m = s
			first = false
			continue
		}
		m.Merge(&s)
	}
	if len(ob.ranks) != 1 {
		m.Rank = -1
	}
	return m
}

// QualifyTraceID maps a per-rank trace ID to a job-wide one. Trace IDs
// are per-rank sequence numbers, so two ranks' op #1 collide when their
// traces are concatenated; Merge rewrites every event ID through this
// mapping so merged timelines stay per-op. Callers that recorded an ID
// on a single rank (OpTag.ID) use this to look the op up in a merged
// snapshot's Timeline.
func QualifyTraceID(rank int32, id uint64) uint64 {
	return (uint64(rank)+1)<<40 | (id & (1<<40 - 1))
}

// qualifyTrace rewrites s's event IDs with QualifyTraceID when s still
// holds a single rank's unqualified trace (Rank >= 0). Merged snapshots
// (Rank == -1) are already qualified and pass through unchanged.
func (s *Snapshot) qualifyTrace() {
	if s.Rank < 0 {
		return
	}
	for i := range s.Trace {
		if s.Trace[i].ID != 0 {
			s.Trace[i].ID = QualifyTraceID(s.Rank, s.Trace[i].ID)
		}
	}
}

// Merge folds o into s: counters and histogram cells sum, per-peer wire
// and persona lines aggregate, traces concatenate in time order with
// every trace ID qualified by its originating rank (so per-rank sequence
// numbers from different ranks never collide in the merged timeline).
// Both snapshots are left usable; s becomes the merge.
func (s *Snapshot) Merge(o *Snapshot) {
	s.qualifyTrace()
	s.Rank = -1
	s.Ranks += o.Ranks
	for k := range s.Ops {
		s.Ops[k] += o.Ops[k]
		s.TxBytes[k] += o.TxBytes[k]
		s.RxBytes[k] += o.RxBytes[k]
	}
	for e := range s.Cx {
		for v := range s.Cx[e] {
			s.Cx[e][v] += o.Cx[e][v]
		}
	}
	s.ProgressPasses += o.ProgressPasses
	s.EmptyPasses += o.EmptyPasses
	s.Wakeups += o.Wakeups
	s.IdleYields += o.IdleYields
	s.DoorbellRings += o.DoorbellRings
	for k := range s.DMA {
		s.DMA[k] += o.DMA[k]
		s.DMABytes[k] += o.DMABytes[k]
	}
	s.FusedFolds += o.FusedFolds
	s.FusedChildren += o.FusedChildren
	if len(o.Tasks) > 0 {
		if len(s.Tasks) < len(o.Tasks) {
			s.Tasks = append(s.Tasks, make([]uint64, len(o.Tasks)-len(s.Tasks))...)
		}
		for st, v := range o.Tasks {
			s.Tasks[st] += v
		}
	}
	wire := map[int32]*PeerWire{}
	for i := range s.Wire {
		wire[s.Wire[i].Peer] = &s.Wire[i]
	}
	for _, pw := range o.Wire {
		if have := wire[pw.Peer]; have != nil {
			have.TxMsgs += pw.TxMsgs
			have.TxBytes += pw.TxBytes
			have.RxMsgs += pw.RxMsgs
			have.RxBytes += pw.RxBytes
		} else {
			s.Wire = append(s.Wire, pw)
		}
	}
	sort.Slice(s.Wire, func(i, j int) bool { return s.Wire[i].Peer < s.Wire[j].Peer })
	pers := map[string]*PersonaStat{}
	for i := range s.Personas {
		pers[s.Personas[i].Name] = &s.Personas[i]
	}
	for _, ps := range o.Personas {
		if have := pers[ps.Name]; have != nil {
			have.Enq += ps.Enq
			have.Exec += ps.Exec
		} else {
			s.Personas = append(s.Personas, ps)
		}
	}
	cells := map[HistCell]uint64{}
	for _, c := range s.Hist {
		key := c
		key.N = 0
		cells[key] += c.N
	}
	for _, c := range o.Hist {
		key := c
		key.N = 0
		cells[key] += c.N
	}
	s.Hist = s.Hist[:0]
	for key, n := range cells {
		key.N = n
		s.Hist = append(s.Hist, key)
	}
	sort.Slice(s.Hist, func(i, j int) bool {
		a, b := s.Hist[i], s.Hist[j]
		if a.Which != b.Which {
			return a.Which < b.Which
		}
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		if a.Class != b.Class {
			return a.Class < b.Class
		}
		return a.Bucket < b.Bucket
	})
	for w := range s.LatSumNS {
		for k := range s.LatSumNS[w] {
			s.LatSumNS[w][k] += o.LatSumNS[w][k]
			s.LatN[w][k] += o.LatN[w][k]
		}
	}
	ot := o.Trace
	if o.Rank >= 0 && len(ot) > 0 {
		// Qualify a copy: o must stay usable with its own raw IDs.
		q := make([]Event, len(ot))
		copy(q, ot)
		for i := range q {
			if q[i].ID != 0 {
				q[i].ID = QualifyTraceID(o.Rank, q[i].ID)
			}
		}
		ot = q
	}
	s.Trace = append(s.Trace, ot...)
	sort.SliceStable(s.Trace, func(i, j int) bool { return s.Trace[i].T < s.Trace[j].T })
	s.TraceDropped += o.TraceDropped
}

// Delta returns s minus prev over the monotone counters (ops, bytes,
// completions, progress, DMA, wire, personas). Histograms and traces are
// carried from s unchanged: deltas of sparse cells are rarely what a
// caller wants, and traces are already windowed by the ring.
func (s Snapshot) Delta(prev Snapshot) Snapshot {
	d := s
	for k := range d.Ops {
		d.Ops[k] -= prev.Ops[k]
		d.TxBytes[k] -= prev.TxBytes[k]
		d.RxBytes[k] -= prev.RxBytes[k]
	}
	for e := range d.Cx {
		for v := range d.Cx[e] {
			d.Cx[e][v] -= prev.Cx[e][v]
		}
	}
	d.ProgressPasses -= prev.ProgressPasses
	d.EmptyPasses -= prev.EmptyPasses
	d.Wakeups -= prev.Wakeups
	d.IdleYields -= prev.IdleYields
	d.DoorbellRings -= prev.DoorbellRings
	for k := range d.DMA {
		d.DMA[k] -= prev.DMA[k]
		d.DMABytes[k] -= prev.DMABytes[k]
	}
	d.FusedFolds -= prev.FusedFolds
	d.FusedChildren -= prev.FusedChildren
	if len(s.Tasks) > 0 {
		d.Tasks = append([]uint64(nil), s.Tasks...)
		for st := range d.Tasks {
			if st < len(prev.Tasks) {
				d.Tasks[st] -= prev.Tasks[st]
			}
		}
	}
	d.Wire = append([]PeerWire(nil), s.Wire...)
	for i := range d.Wire {
		for _, pw := range prev.Wire {
			if pw.Peer == d.Wire[i].Peer {
				d.Wire[i].TxMsgs -= pw.TxMsgs
				d.Wire[i].TxBytes -= pw.TxBytes
				d.Wire[i].RxMsgs -= pw.RxMsgs
				d.Wire[i].RxBytes -= pw.RxBytes
			}
		}
	}
	d.Personas = append([]PersonaStat(nil), s.Personas...)
	for i := range d.Personas {
		for _, ps := range prev.Personas {
			if ps.Name == d.Personas[i].Name {
				d.Personas[i].Enq -= ps.Enq
				d.Personas[i].Exec -= ps.Exec
			}
		}
	}
	return d
}

// Timeline returns the causal timeline of one traced operation: all
// buffered events carrying id, in time order.
func (s Snapshot) Timeline(id uint64) []Event {
	var out []Event
	for _, ev := range s.Trace {
		if ev.ID == id {
			out = append(out, ev)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].T < out[j].T })
	return out
}

// TracedOps returns the distinct traced op IDs in the snapshot, in
// first-appearance order.
func (s Snapshot) TracedOps() []uint64 {
	seen := map[uint64]bool{}
	var out []uint64
	for _, ev := range s.Trace {
		if !seen[ev.ID] {
			seen[ev.ID] = true
			out = append(out, ev.ID)
		}
	}
	return out
}

// HistCount returns the number of observations in histogram `which`
// (HistDone or HistLand) for kind k, summed over size classes.
func (s Snapshot) HistCount(which uint8, k OpKind) uint64 {
	var n uint64
	for _, c := range s.Hist {
		if c.Which == which && c.Kind == k {
			n += c.N
		}
	}
	return n
}

// HistMean returns the mean latency in nanoseconds of histogram `which`
// for kind k (all size classes), or NaN if empty. The mean comes from
// the exact per-kind totals, not the bucket mids, so it carries no
// quantization error.
func (s Snapshot) HistMean(which uint8, k OpKind) float64 {
	n := s.LatN[which][k]
	if n == 0 {
		return math.NaN()
	}
	return float64(s.LatSumNS[which][k]) / float64(n)
}

// HistQuantile returns the estimated q-quantile (0..1) latency in
// nanoseconds of histogram `which` for kind k, or NaN if empty.
func (s Snapshot) HistQuantile(which uint8, k OpKind, q float64) float64 {
	var cells []HistCell
	var total uint64
	for _, c := range s.Hist {
		if c.Which == which && c.Kind == k {
			cells = append(cells, c)
			total += c.N
		}
	}
	if total == 0 {
		return math.NaN()
	}
	sort.Slice(cells, func(i, j int) bool { return cells[i].Bucket < cells[j].Bucket })
	target := uint64(math.Ceil(q * float64(total)))
	if target == 0 {
		target = 1
	}
	var cum uint64
	for _, c := range cells {
		cum += c.N
		if cum >= target {
			return BucketMid(int(c.Bucket))
		}
	}
	return BucketMid(int(cells[len(cells)-1].Bucket))
}

// JSON returns the snapshot as indented JSON.
func (s Snapshot) JSON() ([]byte, error) { return json.MarshalIndent(s, "", "  ") }

// String renders the snapshot with Fprint.
func (s Snapshot) String() string {
	var b []byte
	w := &sliceWriter{&b}
	Fprint(w, s)
	return string(b)
}

type sliceWriter struct{ b *[]byte }

func (w *sliceWriter) Write(p []byte) (int, error) {
	*w.b = append(*w.b, p...)
	return len(p), nil
}

// Fprint writes a human-readable dump of the snapshot: counters that are
// nonzero, completion matrix, per-persona LPCs, wire traffic, histogram
// summaries, and (when tracing was armed) a sample causal timeline.
func Fprint(w io.Writer, s Snapshot) {
	if s.Rank >= 0 {
		fmt.Fprintf(w, "== obs: rank %d ==\n", s.Rank)
	} else {
		fmt.Fprintf(w, "== obs: %d ranks merged ==\n", s.Ranks)
	}
	fmt.Fprintf(w, "ops injected:")
	any := false
	for k := OpKind(0); k < NumOpKinds; k++ {
		if s.Ops[k] != 0 {
			fmt.Fprintf(w, " %s=%d", k, s.Ops[k])
			any = true
		}
	}
	if !any {
		fmt.Fprintf(w, " none")
	}
	fmt.Fprintln(w)
	for k := OpKind(0); k < NumOpKinds; k++ {
		if s.TxBytes[k] != 0 || s.RxBytes[k] != 0 {
			fmt.Fprintf(w, "bytes %-10s tx=%-10d rx=%d\n", k.String(), s.TxBytes[k], s.RxBytes[k])
		}
	}
	for e := CxEvent(0); e < NumCxEvents; e++ {
		for v := CxVia(0); v < NumCxVias; v++ {
			if s.Cx[e][v] != 0 {
				fmt.Fprintf(w, "cx %s×%s: %d\n", e, v, s.Cx[e][v])
			}
		}
	}
	for _, ps := range s.Personas {
		if ps.Enq != 0 || ps.Exec != 0 {
			fmt.Fprintf(w, "persona %-12s lpc enq=%-8d exec=%d\n", ps.Name, ps.Enq, ps.Exec)
		}
	}
	if s.ProgressPasses != 0 {
		fmt.Fprintf(w, "progress: passes=%d empty=%d yields=%d wakeups=%d rings=%d\n",
			s.ProgressPasses, s.EmptyPasses, s.IdleYields, s.Wakeups, s.DoorbellRings)
	}
	for k := DMAKind(0); k < NumDMAKinds; k++ {
		if s.DMA[k] != 0 {
			fmt.Fprintf(w, "dma %s: descriptors=%d bytes=%d\n", k, s.DMA[k], s.DMABytes[k])
		}
	}
	if s.FusedFolds != 0 {
		fmt.Fprintf(w, "dma fused-folds: launches=%d children=%d\n", s.FusedFolds, s.FusedChildren)
	}
	if len(s.Tasks) > 0 {
		task := func(st TaskStat) uint64 {
			if int(st) < len(s.Tasks) {
				return s.Tasks[st]
			}
			return 0
		}
		fmt.Fprintf(w, "tasks: spawned=%d executed=%d stolen=%d migrated=%d\n",
			task(TaskSpawned), task(TaskExecuted), task(TaskStolen), task(TaskMigrated))
		fmt.Fprintf(w, "steals: reqs=%d fails=%d detector-rounds=%d\n",
			task(TaskStealReqs), task(TaskStealFails), task(TaskDetectRounds))
	}
	for _, pw := range s.Wire {
		fmt.Fprintf(w, "wire peer %-3d tx=%d msgs/%d B  rx=%d msgs/%d B\n",
			pw.Peer, pw.TxMsgs, pw.TxBytes, pw.RxMsgs, pw.RxBytes)
	}
	for _, which := range []uint8{HistDone, HistLand} {
		name := "inject→complete"
		if which == HistLand {
			name = "inject→landing "
		}
		for k := OpKind(0); k < NumOpKinds; k++ {
			n := s.HistCount(which, k)
			if n == 0 {
				continue
			}
			fmt.Fprintf(w, "lat %s %-10s n=%-8d mean=%s p50=%s p99=%s\n",
				name, k, n,
				fmtNS(s.HistMean(which, k)),
				fmtNS(s.HistQuantile(which, k, 0.5)),
				fmtNS(s.HistQuantile(which, k, 0.99)))
		}
	}
	if len(s.Trace) > 0 {
		fmt.Fprintf(w, "trace: %d events buffered (%d dropped), %d ops\n",
			len(s.Trace), s.TraceDropped, len(s.TracedOps()))
		if ids := s.TracedOps(); len(ids) > 0 {
			tl := s.Timeline(ids[0])
			fmt.Fprintf(w, "sample op timeline (%d events): op %d %s\n", len(tl), ids[0], tl[0].Kind)
			t0 := tl[0].T
			for _, ev := range tl {
				fmt.Fprintf(w, "  +%-12s %-9s at rank %-3d %d B\n",
					fmtNS(float64(ev.T-t0)), ev.Stage, ev.At, ev.Bytes)
			}
		}
	}
}

// fmtNS renders nanoseconds with an adaptive unit.
func fmtNS(ns float64) string {
	switch {
	case math.IsNaN(ns):
		return "-"
	case ns >= 1e9:
		return fmt.Sprintf("%.3gs", ns/1e9)
	case ns >= 1e6:
		return fmt.Sprintf("%.3gms", ns/1e6)
	case ns >= 1e3:
		return fmt.Sprintf("%.3gµs", ns/1e3)
	default:
		return fmt.Sprintf("%.0fns", ns)
	}
}
