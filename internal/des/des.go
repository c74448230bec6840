// Package des is a small deterministic discrete-event simulator used to
// evaluate the paper's experiments at scales a single machine cannot host
// (up to 34816 processes in Fig 4, 2048 in Figs 8–9). The experiment
// models in internal/expmodel run the real structural code (trees,
// mappings, message matrices) and charge calibrated costs inside this
// simulator; small-process-count points are cross-checked against real
// runs on the in-process runtime (see EXPERIMENTS.md).
//
// Virtual time is in seconds. Determinism: ties are broken by scheduling
// order, and the only randomness comes from the caller's seeded RNG.
package des

import "container/heap"

type event struct {
	t   float64
	seq uint64
	fn  func()
}

type eventHeap []event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].t != h[j].t {
		return h[i].t < h[j].t
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

// Sim is one simulation instance.
type Sim struct {
	now    float64
	events eventHeap
	seq    uint64
	count  int
}

// NewSim returns a simulator at time 0.
func NewSim() *Sim { return &Sim{} }

// Now returns the current virtual time in seconds.
func (s *Sim) Now() float64 { return s.now }

// At schedules fn at absolute time t (clamped to now).
func (s *Sim) At(t float64, fn func()) {
	if t < s.now {
		t = s.now
	}
	s.seq++
	heap.Push(&s.events, event{t: t, seq: s.seq, fn: fn})
}

// After schedules fn d seconds from now.
func (s *Sim) After(d float64, fn func()) { s.At(s.now+d, fn) }

// Run processes events until none remain, returning the number executed.
func (s *Sim) Run() int {
	for len(s.events) > 0 {
		e := heap.Pop(&s.events).(event)
		s.now = e.t
		s.count++
		e.fn()
	}
	return s.count
}

// Resource is a serially-reusable facility (a rank's CPU, a NIC) with
// implicit FIFO queueing: work acquires the resource no earlier than both
// its ready time and the resource's free time.
type Resource struct {
	free float64
}

// Acquire books dur seconds starting no earlier than at, returning the
// booked interval.
func (r *Resource) Acquire(at, dur float64) (start, end float64) {
	start = at
	if r.free > start {
		start = r.free
	}
	end = start + dur
	r.free = end
	return start, end
}

// FreeAt returns the time the resource next becomes available.
func (r *Resource) FreeAt() float64 { return r.free }

// AdvanceTo moves the free time forward to t if it is earlier.
func (r *Resource) AdvanceTo(t float64) {
	if r.free < t {
		r.free = t
	}
}

// SplitMix64 is a tiny deterministic RNG for the models.
type SplitMix64 struct{ state uint64 }

// NewRNG seeds a SplitMix64.
func NewRNG(seed uint64) *SplitMix64 { return &SplitMix64{state: seed} }

// Next returns the next 64-bit value.
func (r *SplitMix64) Next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Intn returns a value in [0, n).
func (r *SplitMix64) Intn(n int) int {
	return int(r.Next() % uint64(n))
}
