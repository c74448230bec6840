package gasnet

import "cmp"

// Model time. Both consumers of the calibrated Aries model run it through
// the two types below: the loggp backend, whose ranks each keep a model
// clock (time.Duration since the network was made) and receive their
// completions and Active Messages through a Queue stamped with landing
// times, and internal/expmodel, which simulates the paper's at-scale
// experiments in float64 seconds. Neither reads the wall clock: what they
// measure depends on the model, not on the host.

// Queue is a deterministic timed event queue: events run in time order,
// ties in the order they were scheduled. The zero value is an empty queue
// at time zero. It is not safe for concurrent use.
type Queue[T cmp.Ordered] struct {
	now    T
	events []event[T] // a binary min-heap on (t, seq)
	seq    uint64
}

type event[T cmp.Ordered] struct {
	t   T
	seq uint64
	fn  func()
}

func (e *event[T]) before(o *event[T]) bool {
	if e.t != o.t {
		return e.t < o.t
	}
	return e.seq < o.seq
}

// Now is the time of the event running, or of the last one run.
func (q *Queue[T]) Now() T { return q.now }

// Len is the number of events waiting.
func (q *Queue[T]) Len() int { return len(q.events) }

// Next is the time of the earliest waiting event; ok is false when none waits.
func (q *Queue[T]) Next() (t T, ok bool) {
	if len(q.events) == 0 {
		return t, false
	}
	return q.events[0].t, true
}

// At schedules fn at time t, clamped to Now: time never runs backwards.
func (q *Queue[T]) At(t T, fn func()) {
	if t < q.now {
		t = q.now
	}
	q.seq++
	q.events = append(q.events, event[T]{t: t, seq: q.seq, fn: fn})
	h := q.events
	for i := len(h) - 1; i > 0; {
		up := (i - 1) / 2
		if !h[i].before(&h[up]) {
			break
		}
		h[i], h[up] = h[up], h[i]
		i = up
	}
}

// Run runs events until none remain, returning how many ran.
func (q *Queue[T]) Run() int {
	n := 0
	for len(q.events) > 0 {
		q.pop()
		n++
	}
	return n
}

// RunUntil runs the events due at or before t, returning how many ran.
func (q *Queue[T]) RunUntil(t T) int {
	n := 0
	for len(q.events) > 0 && q.events[0].t <= t {
		q.pop()
		n++
	}
	return n
}

// pop removes the earliest event, moves Now to it and runs it.
func (q *Queue[T]) pop() {
	h := q.events
	e := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h[last] = event[T]{}
	h = h[:last]
	for i := 0; ; {
		min, l, r := i, 2*i+1, 2*i+2
		if l < len(h) && h[l].before(&h[min]) {
			min = l
		}
		if r < len(h) && h[r].before(&h[min]) {
			min = r
		}
		if min == i {
			break
		}
		h[i], h[min] = h[min], h[i]
		i = min
	}
	q.events = h
	q.now = e.t
	e.fn()
}

// Channel is a serially reused facility — a NIC, a device copy engine, a
// rank's CPU — with implicit FIFO queueing: a booking starts no earlier
// than its ready time and the end of the channel's previous booking.
type Channel[T cmp.Ordered] struct{ free T }

// Book occupies the channel for dur from no earlier than at, returning when
// the booking ends.
func (c *Channel[T]) Book(at, dur T) (end T) {
	c.free = max(at, c.free) + dur
	return c.free
}
