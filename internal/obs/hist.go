package obs

import (
	"math"
	"math/bits"
	"sync/atomic"
)

// Latency histograms: fixed log₂ buckets over nanoseconds, keyed by op
// kind and payload size class. Recording is one atomic add into a flat
// array — no allocation, no lock — and the bucket layout is identical on
// every rank, so histograms merge across ranks by summing cells.

// NumSizeClasses partitions payload sizes into log-spaced classes; see
// SizeClass for the boundaries.
const NumSizeClasses = 7

// NumLatBuckets is the number of log₂ latency buckets: bucket b holds
// latencies in [2^(b-1), 2^b) ns, with bucket 0 holding sub-ns and the
// last bucket open-ended (≈ 2.3 hours and beyond).
const NumLatBuckets = 44

// SizeClass maps a payload byte count to its size class index.
func SizeClass(n int) int {
	switch {
	case n <= 64:
		return 0
	case n <= 512:
		return 1
	case n <= 4<<10:
		return 2
	case n <= 32<<10:
		return 3
	case n <= 256<<10:
		return 4
	case n <= 2<<20:
		return 5
	default:
		return 6
	}
}

// latBucket maps a latency in nanoseconds to its bucket index.
func latBucket(ns int64) int {
	if ns <= 0 {
		return 0
	}
	b := bits.Len64(uint64(ns))
	if b >= NumLatBuckets {
		b = NumLatBuckets - 1
	}
	return b
}

// BucketMid returns a representative latency (ns) for bucket b: the
// geometric-ish midpoint 1.5·2^(b-1) of its [2^(b-1), 2^b) range.
func BucketMid(b int) float64 {
	if b <= 0 {
		return 0.5
	}
	return 1.5 * math.Exp2(float64(b-1))
}

// Hist is one set of latency histograms: kind × size class × latency
// bucket. Cells are plain atomics (not padded: the array is large and
// adjacent cells are rarely contended).
type Hist struct {
	cells [NumOpKinds][NumSizeClasses][NumLatBuckets]atomic.Uint64

	// Exact per-kind totals recorded alongside the bucketed cells: the
	// buckets answer quantile queries, these answer mean queries without
	// the log₂ quantization error (which can reach ±40% when latencies
	// cluster inside one bucket). Still allocation-free atomic adds.
	sumNS [NumOpKinds]atomic.Uint64
	n     [NumOpKinds]atomic.Uint64
}

// Record adds one latency observation for kind k with an n-byte payload.
func (h *Hist) Record(k OpKind, n int, ns int64) {
	h.cells[k][SizeClass(n)][latBucket(ns)].Add(1)
	if ns > 0 {
		h.sumNS[k].Add(uint64(ns))
	}
	h.n[k].Add(1)
}

// totalsInto copies the exact per-kind sums and counts into the given
// snapshot arrays.
func (h *Hist) totalsInto(sum, n *[NumOpKinds]uint64) {
	for k := 0; k < int(NumOpKinds); k++ {
		sum[k] = h.sumNS[k].Load()
		n[k] = h.n[k].Load()
	}
}

// snapshot appends the non-zero cells to dst and returns it.
func (h *Hist) snapshot(which uint8, dst []HistCell) []HistCell {
	for k := 0; k < int(NumOpKinds); k++ {
		for c := 0; c < NumSizeClasses; c++ {
			for b := 0; b < NumLatBuckets; b++ {
				if n := h.cells[k][c][b].Load(); n != 0 {
					dst = append(dst, HistCell{
						Which: which, Kind: OpKind(k), Class: uint8(c), Bucket: uint8(b), N: n,
					})
				}
			}
		}
	}
	return dst
}

// Histogram identity for snapshot cells: HistDone is inject→operation-
// complete, HistLand is inject→remote-landing.
const (
	HistDone = uint8(0)
	HistLand = uint8(1)
)

// HistCell is one non-zero histogram cell in a Snapshot: sparse,
// value-typed, and mergeable by summing N across equal keys.
type HistCell struct {
	Which  uint8  `json:"which"` // HistDone or HistLand
	Kind   OpKind `json:"kind"`
	Class  uint8  `json:"class"` // size class index
	Bucket uint8  `json:"bucket"`
	N      uint64 `json:"n"`
}
