package gasnet

import (
	"container/heap"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// engine is the real-time delivery engine: the simulated collection of
// NICs and wires. Operations are injected with a per-source-NIC
// serialization constraint (the LogGP gap) and delivered by a dedicated
// goroutine when their due time arrives, with spin-wait precision for the
// sub-microsecond delays an Aries-class network exhibits.
//
// The engine goroutine performs the actual data movement (segment writes)
// at delivery time, playing the role of the target NIC's DMA engine:
// transfers complete without any initiator or target CPU attentiveness,
// matching GASNet-EX semantics described in the paper (§III).
type engine struct {
	mu      sync.Mutex
	cond    *sync.Cond
	events  eventHeap
	seq     uint64
	nicFree []time.Time // per-rank NIC next-available time
	dmaFree []time.Time // per-rank device DMA engine next-available time
	done    bool
	version atomic.Uint64 // bumped on insert so the spin loop re-plans
	// wake is a 1-slot doorbell rung on every insert. The delivery loop's
	// long sleep selects on it so an event injected mid-wait with a sooner
	// due time interrupts the sleep instead of being delivered late.
	wake chan struct{}
}

type event struct {
	due time.Time
	seq uint64 // FIFO tiebreak
	run func(at time.Time)
}

type eventHeap []event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if !h[i].due.Equal(h[j].due) {
		return h[i].due.Before(h[j].due)
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() any     { old := *h; n := len(old); e := old[n-1]; *h = old[:n-1]; return e }

func newEngine(ranks int) *engine {
	e := &engine{
		nicFree: make([]time.Time, ranks),
		dmaFree: make([]time.Time, ranks),
		wake:    make(chan struct{}, 1),
	}
	e.cond = sync.NewCond(&e.mu)
	go e.loop()
	return e
}

// schedule queues run at the absolute time due.
func (e *engine) schedule(due time.Time, run func(at time.Time)) {
	e.mu.Lock()
	e.push(due, run)
	e.mu.Unlock()
	e.ring()
}

// push queues an event; the caller holds e.mu and rings afterwards.
func (e *engine) push(due time.Time, run func(at time.Time)) {
	e.seq++
	heap.Push(&e.events, event{due: due, seq: e.seq, run: run})
	e.version.Add(1)
	e.cond.Signal()
}

// injectOn models channel idx of free — a rank's NIC (nicFree) or its
// device copy engine (dmaFree) — accepting an operation no earlier than
// earliest (a chained hop passes the previous hop's landing time): the
// channel is occupied for gap (operations serialize, the LogGP gap) and
// the operation lands lat later, when deliver runs. NIC and DMA engine
// are independent channels: a rank can stream over the wire and across
// PCIe concurrently.
func (e *engine) injectOn(free []time.Time, idx int, earliest time.Time, gap, lat time.Duration, deliver func(at time.Time)) {
	e.mu.Lock()
	start := earliest
	if now := time.Now(); now.After(start) {
		start = now
	}
	if free[idx].After(start) {
		start = free[idx]
	}
	free[idx] = start.Add(gap)
	e.push(start.Add(gap+lat), deliver)
	e.mu.Unlock()
	e.ring()
}

// ring deposits a wakeup token; a no-op if one is already pending.
func (e *engine) ring() {
	select {
	case e.wake <- struct{}{}:
	default:
	}
}

func (e *engine) stop() {
	e.mu.Lock()
	e.done = true
	e.cond.Broadcast()
	e.mu.Unlock()
}

func (e *engine) loop() {
	for {
		e.mu.Lock()
		if len(e.events) == 0 && !e.done {
			// Spin briefly before sleeping: benchmarks issue operations
			// back-to-back, and a condvar wakeup costs microseconds —
			// far more than the sub-microsecond latencies being modeled.
			v := e.version.Load()
			e.mu.Unlock()
			spinDeadline := time.Now().Add(200 * time.Microsecond)
			for e.version.Load() == v && time.Now().Before(spinDeadline) {
				// Yield so injectors aren't starved on few-core hosts;
				// on an idle P this is nearly free.
				runtime.Gosched()
			}
			e.mu.Lock()
		}
		for len(e.events) == 0 && !e.done {
			e.cond.Wait()
		}
		if e.done {
			e.mu.Unlock()
			return
		}
		next := e.events[0].due
		now := time.Now()
		if now.Before(next) {
			v := e.version.Load()
			e.mu.Unlock()
			e.waitUntil(next, v)
			continue
		}
		ev := heap.Pop(&e.events).(event)
		e.mu.Unlock()
		ev.run(ev.due)
	}
}

// waitUntil blocks until t or until a new event is inserted (version bump),
// whichever comes first. For waits beyond ~100µs it parks on a timer that
// the wake doorbell can interrupt — a plain time.Sleep here would delay a
// sooner-due event injected mid-sleep until the full sleep elapsed — then
// spins for the final stretch to hit sub-microsecond accuracy.
func (e *engine) waitUntil(t time.Time, version uint64) {
	const spinWindow = 100 * time.Microsecond
	for {
		if e.version.Load() != version {
			return
		}
		remain := time.Until(t)
		if remain <= 0 {
			return
		}
		if remain > spinWindow {
			// A stale doorbell token (from an insert we already observed)
			// at worst costs one extra loop iteration; a token deposited
			// after the version check above ends the select immediately,
			// so a concurrent insert is never slept through.
			tm := time.NewTimer(remain - spinWindow)
			select {
			case <-e.wake:
				tm.Stop()
			case <-tm.C:
			}
			continue
		}
		// Spin for the final stretch, yielding so a single-core host can
		// still run the goroutines whose deliveries we are timing.
		for time.Until(t) > 0 {
			if e.version.Load() != version {
				return
			}
			runtime.Gosched()
		}
		return
	}
}
