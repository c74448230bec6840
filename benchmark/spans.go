package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// Harness spans: recorded by the benchmark around its calls into each
// layer (nothing is recorded inside the runtime). Spans of one operation
// share an op id; a child names its parent span, so a layer's self time
// is its span minus the part its children cover.

type span struct {
	name       string
	op, parent int64 // op id; parent span index+1, 0 for a root
	start, end int64 // ns since the recorder's epoch
}

type spanRec struct {
	epoch   time.Time
	spans   []span
	dropped int64
	nextOp  int64
}

// maxSpans bounds the in-memory trace; later spans are counted, not kept.
const maxSpans = 1 << 18

func newSpanRec() *spanRec {
	return &spanRec{epoch: time.Now(), spans: make([]span, 0, maxSpans)}
}

// add records one span and returns its index+1 for use as a parent.
func (r *spanRec) add(name string, op, parent int64, t0, t1 time.Time) int64 {
	if len(r.spans) == cap(r.spans) {
		r.dropped++
		return 0
	}
	r.spans = append(r.spans, span{name, op, parent, int64(t0.Sub(r.epoch)), int64(t1.Sub(r.epoch))})
	return int64(len(r.spans))
}

// blockingOp records op ⊃ {core.inject, core.wait} for one blocking call.
func (r *spanRec) blockingOp(name string, t0, t1, t2 time.Time) {
	r.nextOp++
	root := r.add(name, r.nextOp, 0, t0, t2)
	r.add("core.inject", r.nextOp, root, t0, t1)
	r.add("core.wait", r.nextOp, root, t1, t2)
}

// single records a one-span operation (raw conduit calls, serial calls).
func (r *spanRec) single(name string, t0, t1 time.Time) {
	r.nextOp++
	r.add(name, r.nextOp, 0, t0, t1)
}

// traceEvent is one Chrome trace-event "complete" record.
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`  // µs
	Dur  float64        `json:"dur"` // µs
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// write emits the spans as Chrome trace-event JSON (chrome://tracing,
// Perfetto).
func (r *spanRec) write(path, workload string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o777); err != nil {
		return err
	}
	evs := make([]traceEvent, len(r.spans))
	for i, s := range r.spans {
		evs[i] = traceEvent{
			Name: s.name, Ph: "X",
			Ts: float64(s.start) / 1e3, Dur: float64(s.end-s.start) / 1e3,
			Pid: 0, Tid: 0,
			Args: map[string]any{"op": s.op, "span": i + 1, "parent": s.parent},
		}
	}
	doc := map[string]any{
		"traceEvents":     evs,
		"displayTimeUnit": "ns",
		"otherData": map[string]any{
			"workload": workload,
			"dropped":  r.dropped,
			"note":     "harness spans of rank 0; args.parent is the args.span of the enclosing span",
		},
	}
	b, err := json.Marshal(doc)
	if err != nil {
		return fmt.Errorf("trace %s: %w", path, err)
	}
	return os.WriteFile(path, b, 0o666)
}
