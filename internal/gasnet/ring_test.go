package gasnet

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"upcxx/internal/obs"
)

// drainRing empties r the way the wire does — span by span, records decoded
// from the private copy, the span released behind them — and reports how many
// spans said the producer waits.
func drainRing(t *testing.T, r *shmRing, fn func(body []byte)) (wakes int) {
	t.Helper()
	for {
		span, pos, err := r.take()
		if err == nil {
			_, err = ringRecords(span, pos, func(b []byte) bool { fn(b); return true })
		}
		if err != nil {
			t.Fatalf("drain: %v", err)
		}
		if span == nil {
			return wakes
		}
		if r.release(len(span)) {
			wakes++
		}
	}
}

func TestRingRoundTrip(t *testing.T) {
	r := mapRing(make([]byte, ringBytes))
	var got [][]byte
	// Fill/drain repeatedly so the cursor wraps several times.
	rec := make([]byte, 1000)
	for i := 0; i < 500; i++ {
		rec[0] = byte(i)
		if pushed, _ := r.push([][]byte{rec[:400], nil, rec[400:]}); !pushed {
			t.Fatalf("push %d failed with empty consumer backlog", i)
		}
		if i%3 == 2 {
			drainRing(t, r, func(b []byte) { got = append(got, b) })
		}
	}
	drainRing(t, r, func(b []byte) { got = append(got, b) })
	if len(got) != 500 {
		t.Fatalf("drained %d records, want 500", len(got))
	}
	for i, b := range got {
		if len(b) != 1000 || b[0] != byte(i) {
			t.Fatalf("record %d corrupt (len %d, head %d)", i, len(b), b[0])
		}
	}
}

// TestRingFullSetsWaiting: a full ring refuses the push and leaves the
// waiting flag set; the drain that frees the space reports it exactly once.
func TestRingFullSetsWaiting(t *testing.T) {
	r := mapRing(make([]byte, ringBytes))
	rec := [][]byte{make([]byte, ringMaxRec)}
	n := 0
	for {
		if pushed, _ := r.push(rec); !pushed {
			break
		}
		if atomic.LoadUint32(r.waiting) != 0 {
			t.Fatal("waiting set by a push that found room")
		}
		if n++; n > ringCap {
			t.Fatal("ring never filled")
		}
	}
	if n == 0 || atomic.LoadUint32(r.waiting) != 1 {
		t.Fatalf("ring took %d records, waiting = %d after the refused push", n, *r.waiting)
	}
	drained := 0
	if wakes := drainRing(t, r, func([]byte) { drained++ }); drained != n || wakes != 1 {
		t.Fatalf("drained %d of %d records, %d spans reported a waiting producer (want 1)", drained, n, wakes)
	}
	if pushed, _ := r.push(rec); !pushed {
		t.Fatal("push after drain failed")
	}
	if wakes := drainRing(t, r, func([]byte) {}); wakes != 0 {
		t.Fatal("a producer that found room was reported waiting")
	}
}

// TestRingDoorbellOnIdle: the data doorbell is a fact, not a guess. A push
// rings for a consumer that published parked, once, and for nobody else —
// not for an empty ring, not for a consumer that caught up.
func TestRingDoorbellOnIdle(t *testing.T) {
	r := mapRing(make([]byte, ringBytes))
	one := func(s string) [][]byte { return [][]byte{[]byte(s)} }
	if _, bell := r.push(one("x")); bell {
		t.Fatal("doorbell for a consumer that never said it blocks (the ring was empty: the old guess)")
	}
	drainRing(t, r, func([]byte) {})
	if _, bell := r.push(one("y")); bell {
		t.Fatal("doorbell for a consumer that caught up and polls on")
	}
	r.arm() // a goroutine of the consumer is about to block
	if _, bell := r.push(one("z")); !bell {
		t.Fatal("no doorbell for a consumer that published parked")
	}
	if atomic.LoadUint32(r.parked) != 0 {
		t.Fatal("the producer left parked set: every push of the burst would ring")
	}
	if _, bell := r.push(one("w")); bell {
		t.Fatal("a second doorbell for one park")
	}
	r.arm()
	r.arm() // re-arming an armed word is no second park
	drainRing(t, r, func([]byte) {})
	if _, bell := r.push(one("v")); !bell {
		t.Fatal("no doorbell after the consumer armed again")
	}
}

// TestRingModel drives seeded random record sizes and push/drain
// interleavings against a slice FIFO: what push accepts, refuses and rings
// for is predicted from the cursors and the parked word, and every span must
// hand back exactly the records pushed since the last one, in order — also
// when the drain stops short of a record, as a poller does at a marker, and
// releases only what it consumed. Each seed must meet every shape of the
// layout: a wrap marker, a pad too small for one, a full ring, a span that
// crosses the wrap, a drain that stops short.
func TestRingModel(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		r := mapRing(make([]byte, ringBytes))
		var model [][]byte
		var marks, smallPads, fulls, wakes, wrapped, bells, shorts int
		for step := 0; step < 12000; step++ {
			// Stretches where the consumer keeps up alternate with floods.
			if drainOneIn := 4 + step/400%2*60; rng.Intn(drainOneIn) > 0 {
				n := 1 + rng.Intn(ringMaxRec)
				if rng.Intn(3) == 0 {
					n = 1 + rng.Intn(48)
				}
				avail := ringCap - int(*r.head%ringCap)
				if k := avail - 4 - (1 + rng.Intn(3)); rng.Intn(6) == 0 && k >= 1 && k <= ringMaxRec {
					n = k // ends 1..3 bytes short of the wrap
				}
				rec := bytes.Repeat([]byte{byte(step)}, n)
				rec[0], rec[n-1] = byte(step>>8), byte(n)
				a, b := rng.Intn(n+1), rng.Intn(n+1)
				parts := [][]byte{rec[:min(a, b)], nil, rec[min(a, b):max(a, b)], rec[max(a, b):]}
				pad := 0
				if avail < 4+n {
					pad = avail
				}
				if rng.Intn(5) == 0 {
					r.arm()
				}
				fits, armed := ringCap-int(*r.head-*r.tail) >= pad+4+n, *r.parked != 0
				pushed, bell := r.push(parts)
				if pushed != fits || bell != (pushed && armed) || (*r.parked != 0) != (armed && !pushed) {
					t.Fatalf("seed %d step %d: push(%d bytes) = (%v, %v) with parked %v before and %d after; room predicted %v", seed, step, n, pushed, bell, armed, *r.parked, fits)
				}
				if bell {
					bells++
				}
				if !pushed {
					if fulls++; atomic.LoadUint32(r.waiting) != 1 {
						t.Fatalf("seed %d step %d: refused push left waiting clear", seed, step)
					}
					continue
				}
				model = append(model, rec)
				if pad >= 4 {
					marks++
				} else if pad > 0 {
					smallPads++
				}
				continue
			}
			flagged := atomic.LoadUint32(r.waiting) == 1
			span, pos, err := r.take()
			if err != nil || (span == nil) != (len(model) == 0) {
				t.Fatalf("seed %d step %d: take = (%d bytes, %v) with %d records unread", seed, step, len(span), err, len(model))
			}
			if span == nil {
				continue
			}
			if pos+len(span) > ringCap {
				wrapped++
			}
			stop := len(model) // the record the drain refuses, if any
			if rng.Intn(4) == 0 {
				stop = rng.Intn(len(model))
				shorts++
			}
			i := 0
			used, err := ringRecords(span, pos, func(body []byte) bool {
				if i >= len(model) || !bytes.Equal(body, model[i]) {
					t.Fatalf("seed %d step %d: record %d of the span differs from the model's", seed, step, i)
				}
				if i == stop {
					return false
				}
				i++
				return true
			})
			if err != nil || i != stop || (used == len(span)) != (stop == len(model)) {
				t.Fatalf("seed %d step %d: span gave %d of %d records (stop at %d), used %d of %d bytes: %v", seed, step, i, len(model), stop, used, len(span), err)
			}
			if wake := r.release(used); wake != flagged || atomic.LoadUint32(r.waiting) != 0 {
				t.Fatalf("seed %d step %d: release reported wake %v, waiting was %v", seed, step, wake, flagged)
			} else if wake {
				wakes++
			}
			model = model[stop:]
		}
		if marks == 0 || smallPads == 0 || fulls == 0 || wakes == 0 || wrapped == 0 || bells == 0 || shorts == 0 {
			t.Errorf("seed %d never met a case: %d wrap markers, %d small pads, %d full, %d wakes, %d wrapped spans, %d doorbells, %d short drains", seed, marks, smallPads, fulls, wakes, wrapped, bells, shorts)
		}
	}
}

// TestRingModelConcurrent runs the two doorbell protocols for real: a
// producer that sleeps on a refused push until the consumer's wake, a
// consumer that polls an empty ring a few times and then blocks the way a
// waiter does — arm, look once more, sleep until the producer's bell, disarm.
// A lost wakeup in either direction is a hang (the test binary's timeout); a
// bell for a consumer that was not parked is counted and refused.
func TestRingModelConcurrent(t *testing.T) {
	const N, polls = 60000, 2
	r := mapRing(make([]byte, ringBytes))
	space, data := make(chan struct{}, 1), make(chan struct{}, 1)
	ring := func(c chan struct{}) {
		select {
		case c <- struct{}{}:
		default:
		}
	}
	var sleeps, bells, parks atomic.Int32
	size := func(i int) int { return 1 + (i*2654435761)%997 }
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		rec := make([]byte, 1000)
		for i := 0; i < N; i++ {
			rec[0], rec[1], rec[2] = byte(i), byte(i>>8), byte(i>>16)
			for {
				pushed, bell := r.push([][]byte{rec[:size(i)]})
				if bell {
					bells.Add(1)
					ring(data)
				}
				if pushed {
					break
				}
				sleeps.Add(1)
				<-space
			}
		}
	}()
	for got, empty := 0, 0; got < N; {
		span, pos, err := r.take()
		if err == nil {
			_, err = ringRecords(span, pos, func(b []byte) bool {
				if want := size(got); len(b) != want || b[0] != byte(got) || want > 2 && (b[1] != byte(got>>8) || b[2] != byte(got>>16)) {
					t.Fatalf("record %d: %d bytes starting %x, want %d", got, len(b), b[:min(3, len(b))], want)
				}
				got++
				return true
			})
		}
		if err != nil {
			t.Fatal(err)
		}
		if span != nil {
			if empty = 0; r.release(len(span)) {
				ring(space)
			}
			continue
		}
		if empty++; empty < polls {
			runtime.Gosched()
			continue
		}
		parks.Add(1)
		if r.arm(); !r.unread() { // the look behind the armed word
			sleeps.Add(1)
			<-data
		}
		atomic.StoreUint32(r.parked, 0)
	}
	wg.Wait()
	if b, p := bells.Load(), parks.Load(); b > p {
		t.Errorf("%d doorbells for %d parks: a producer rang for a consumer that did not block", b, p)
	}
	t.Logf("%d records, %d sleeps on a full or an empty ring, %d parks, %d doorbells", N, sleeps.Load(), parks.Load(), bells.Load())
}

// bellModel is the state the data doorbell's steps act on: the ring's own
// words, and what the wire keeps beside them.
type bellModel struct {
	r       *shmRing
	parkers int32    // wire.parkers
	n       [3]int32 // each actor's reading of parkers (poll's n)
	bells   int      // fRing frames in flight: the reader will drain
	blocked [3]bool  // the actor blocked, having seen nothing
	quiet   uint64   // records below this cursor enqueue nothing: their drain wakes nobody
}

type bellStep func(m *bellModel, self int)

// TestRingDoorbellInterleavings runs every interleaving of the data
// doorbell's steps — each one atomic access, in program order per goroutine —
// on a real ring's words and asserts the one invariant at the end of each:
// never "a record is unread, a goroutine of the consumer is blocked, and no
// bell is in flight" (whoever did not block has looked and is gone; a later
// progress pass is nobody's to count on). The actors are the producer's push
// (store head, swap parked), a goroutine parking (poll(+1): count, arm, look —
// and, if it saw the record instead of blocking, its poll(-1)) and a woken
// goroutine leaving (poll(-1): uncount, clear if last, look at the count again,
// re-arm if not last, look). A leaver that does not re-arm must be caught: the
// model can tell. So must a reader whose look is not armed (drainRing's loop:
// arm if anybody blocks, look, drain, again until a look finds nothing): the
// record a bell brought it for may enqueue nothing — a get served out of a
// device segment, an ack nobody waits on — so its drain wakes nobody, the word
// the bell swapped out stays down, and the next push rings for no one.
func TestRingDoorbellInterleavings(t *testing.T) {
	look := func(m *bellModel, self int, blocks bool) {
		if m.r.unread() {
			h := atomic.LoadUint64(m.r.head)
			atomic.StoreUint64(m.r.tail, h)
			if h > m.quiet { // drained: enqueueAM rings whoever is blocked
				m.blocked = [3]bool{}
			}
		} else if blocks {
			m.blocked[self] = true
		}
	}
	producer := []bellStep{
		func(m *bellModel, _ int) { atomic.AddUint64(m.r.head, 8) },
		func(m *bellModel, _ int) {
			if m.r.bell() {
				m.bells++
			}
		},
	}
	leave := func(rearm bool) []bellStep {
		awake := func(f bellStep) bellStep { // a goroutine that blocked runs no further step
			return func(m *bellModel, self int) {
				if !m.blocked[self] {
					f(m, self)
				}
			}
		}
		return []bellStep{
			awake(func(m *bellModel, self int) { m.parkers--; m.n[self] = m.parkers }),
			awake(func(m *bellModel, self int) {
				if m.n[self] == 0 {
					atomic.StoreUint32(m.r.parked, 0)
				}
			}),
			awake(func(m *bellModel, self int) {
				if m.n[self] == 0 {
					m.n[self] = m.parkers
				}
			}),
			awake(func(m *bellModel, self int) {
				if m.n[self] > 0 && rearm {
					m.r.arm()
				}
			}),
			awake(func(m *bellModel, self int) { look(m, self, false) }),
		}
	}
	reader := func(arms bool) []bellStep {
		arm := func(m *bellModel, _ int) {
			if arms && m.parkers > 0 {
				m.r.arm()
			}
		}
		drain := func(m *bellModel, self int) { look(m, self, false) }
		return []bellStep{arm, drain, arm, drain}
	}
	// One goroutine blocked, the word swapped out by the bell that brought the
	// reader, and the record it rang for one that enqueues nothing.
	belledQuiet := func(m *bellModel) {
		m.parkers, m.blocked[1], m.quiet = 1, true, 8
		atomic.StoreUint64(m.r.head, 8)
	}
	park := append([]bellStep{
		func(m *bellModel, _ int) { m.parkers++ },
		func(m *bellModel, _ int) { m.r.arm() },
		func(m *bellModel, self int) { look(m, self, true) },
	}, leave(true)...)

	region := make([]byte, ringBytes)
	var run func(actors [][]bellStep, init func(*bellModel), at []int, order []int, visit func(*bellModel, []int))
	run = func(actors [][]bellStep, init func(*bellModel), at []int, order []int, visit func(*bellModel, []int)) {
		done := true
		for a := range actors {
			if at[a] < len(actors[a]) {
				done = false
				at[a]++
				run(actors, init, at, append(order, a), visit)
				at[a]--
			}
		}
		if !done {
			return
		}
		clear(region[:ringHdr])
		m := &bellModel{r: mapRing(region)}
		init(m)
		next := make([]int, len(actors))
		for _, a := range order {
			actors[a][next[a]](m, a)
			next[a]++
		}
		visit(m, order)
	}
	stranded := func(m *bellModel) bool {
		return m.r.unread() && m.bells == 0 && (m.blocked[0] || m.blocked[1] || m.blocked[2])
	}
	for _, tc := range []struct {
		name   string
		actors [][]bellStep
		init   func(m *bellModel)
		broken bool // the invariant must fail on some schedule
	}{
		{"push x park", [][]bellStep{producer, park}, func(*bellModel) {}, false},
		{"push x park x leave, woken by a bell", [][]bellStep{producer, park, leave(true)},
			func(m *bellModel) { m.parkers = 1 }, false},
		{"push x park x leave, woken by an LPC", [][]bellStep{producer, park, leave(true)},
			func(m *bellModel) { m.parkers = 1; m.r.arm() }, false},
		{"push x leave with a second goroutine parked, word swapped out", [][]bellStep{producer, nil, leave(true)},
			func(m *bellModel) { m.parkers = 2; m.blocked[1] = true }, false},
		{"push x leave with a second goroutine parked, word standing", [][]bellStep{producer, nil, leave(true)},
			func(m *bellModel) { m.parkers = 2; m.blocked[1] = true; m.r.arm() }, false},
		{"a leaver that does not re-arm strands the second", [][]bellStep{producer, nil, leave(false)},
			func(m *bellModel) { m.parkers = 2; m.blocked[1] = true }, true},
		{"push x a belled drain that wakes nobody", [][]bellStep{producer, nil, reader(true)}, belledQuiet, false},
		{"a reader whose look is not armed strands the waiter", [][]bellStep{producer, nil, reader(false)}, belledQuiet, true},
	} {
		schedules, bad := 0, 0
		run(tc.actors, tc.init, make([]int, len(tc.actors)), nil, func(m *bellModel, order []int) {
			schedules++
			if stranded(m) {
				if bad++; !tc.broken && bad == 1 {
					t.Errorf("%s: schedule %v leaves a record unread, a goroutine blocked and no bell in flight", tc.name, order)
				}
			}
		})
		if tc.broken && bad == 0 {
			t.Errorf("%s: none of %d schedules strands it: the model cannot tell", tc.name, schedules)
		}
		t.Logf("%s: %d schedules, %d stranded", tc.name, schedules, bad)
	}
}

// wirePair boots a two-rank job over a real backend inside the test process.
func wirePair(t *testing.T, backend string) ([]*Network, []*wire) {
	return wirePairSeg(t, backend, 1<<12)
}

func wirePairSeg(t *testing.T, backend string, segSize int) (nets []*Network, wires []*wire) {
	dir := t.TempDir()
	nets, wires = make([]*Network, 2), make([]*wire, 2)
	var wg sync.WaitGroup
	for r := range nets {
		wg.Add(1)
		go func() {
			defer wg.Done()
			nets[r] = NewNetwork(Config{Ranks: 2, SegmentSize: segSize, Aux: intAux{},
				Real: &RealConduit{Backend: backend, Rank: r, BootDir: dir, Timeout: 20 * time.Second}})
			wires[r] = nets[r].be.(*wire)
		}()
	}
	wg.Wait()
	return nets, wires
}

func shmPair(t *testing.T) ([]*Network, []*wire) { return wirePair(t, "shm") }

func closeAll(nets []*Network) {
	var wg sync.WaitGroup
	for _, n := range nets {
		wg.Add(1)
		go func() { defer wg.Done(); n.Close() }() // peers wait for each other's bye
	}
	wg.Wait()
}

// TestRingCorruptRecordFailsPeer writes what no producer writes into rank
// 0's inbound ring and has it drained, by the reader (its doorbell is rung
// and nobody polls) and by a progress pass (no doorbell). The ring is the
// peer's memory: each case must fail the peer whoever drains it — Failed()
// wraps ErrPeerLost, the endpoint doorbell rings — where the old drain jumped
// tail to head and said nothing. The last rows are well-formed records of a
// type no producer puts in a ring: a control frame there is refused, not
// obeyed (bye stays unset).
func TestRingCorruptRecordFailsPeer(t *testing.T) {
	const at = 5*ringCap - 16 // 16 bytes short of a wrap
	u32 := func(v uint32) []byte { b := make([]byte, 4); binary.LittleEndian.PutUint32(b, v); return b }
	cases := []struct {
		name  string
		bytes []byte // written at ring position ringCap-16, wrapping
		head  uint64 // bytes published
	}{
		{"zero length", u32(0), 8},
		{"length over ringMaxRec", u32(ringMaxRec + 1), 8},
		{"length past the span", append(u32(9), "12345678"...), 12},
		{"length past the wrap", append(u32(13), "1234567890123"...), 17},
		{"truncated length word", u32(1), 3},
		{"wrap marker ending the span", u32(wrapMark), 16},
		{"bad bytes after a wrap marker", append(append(u32(wrapMark), make([]byte, 12)...), u32(0)...), 24},
		{"head out of range", nil, ringCap + 1},
		{"fBye record", append(u32(1), fBye), 5},
		{"fRing record", append(u32(1), fRing), 5},
		{"fHello record", append(u32(10), appendHello(nil, 1, 2)...), 14},
	}
	for _, tc := range cases {
		for _, drainer := range []string{"progress pass", "reader"} {
			name := tc.name + ", drained by the " + drainer
			nets, wires := shmPair(t) // a pair each: a drain that is still on its way out meets no next case
			from := wires[0].peers[1]
			atomic.StoreUint64(from.in.tail, at)
			for i, b := range tc.bytes {
				from.in.data[(at+i)%ringCap] = b
			}
			atomic.StoreUint64(from.in.head, at+tc.head)
			if drainer == "reader" { // its doorbell is rung and nobody polls
				wires[1].sockSend(wires[1].peers[0], false, []byte{fRing})
				<-wires[0].ep.notify // the failure rings; a reader that never drains is the test's timeout
				from.dmu.Lock()      // and the drain it rang from is over
				from.dmu.Unlock()
			} else {
				wires[0].ep.PollCompletions()
			}
			if err := nets[0].Failed(); !errors.Is(err, ErrPeerLost) {
				t.Errorf("%s: Failed() = %v, want an ErrPeerLost-wrapped error", name, err)
			} else {
				t.Logf("%s: %v", name, err)
			}
			if h, tl := atomic.LoadUint64(from.in.head), atomic.LoadUint64(from.in.tail); h != tl {
				t.Errorf("%s: span not handed back (head %d, tail %d)", name, h, tl)
			}
			if from.bye.Load() {
				t.Errorf("%s: the record was taken for the peer's shutdown notice", name)
			}
			wires[0].failErr.Store(nil)
			closeAll(nets)
		}
	}
}

// TestRingByeRecordKeepsPeerLoss: a one-byte fBye record, pushed and belled
// the way a producer pushes data, and then the producer's end of the socket
// goes away. Obeyed, the record sets bye and the reader swallows the socket
// error that follows — a dead peer reads as a clean shutdown. It must not be:
// Failed() wraps ErrPeerLost, and teardown leaves no goroutine behind.
func TestRingByeRecordKeepsPeerLoss(t *testing.T) {
	before := runtime.NumGoroutine()
	nets, wires := shmPair(t)
	in, to0 := wires[0].peers[1].in, wires[1].peers[0]
	if pushed, _ := to0.ring.push([][]byte{{fBye}}); !pushed {
		t.Fatal("push into an empty ring failed")
	}
	wires[1].sockSend(to0, false, []byte{fRing})
	// The reader that takes the span dispatches its record before it reads
	// the socket again, so the close below cannot overtake the record.
	for deadline := time.Now().Add(10 * time.Second); atomic.LoadUint64(in.tail) != atomic.LoadUint64(in.head); {
		if time.Now().After(deadline) {
			t.Fatal("the record was never drained")
		}
		runtime.Gosched()
	}
	to0.conn.Close() // the producer dies
	for deadline := time.Now().Add(10 * time.Second); nets[0].Failed() == nil && time.Now().Before(deadline); {
		wires[0].ep.WaitPending(time.Second)
	}
	if err := nets[0].Failed(); !errors.Is(err, ErrPeerLost) {
		t.Errorf("Failed() = %v, want an ErrPeerLost-wrapped error: the peer's loss was swallowed", err)
	}
	if wires[0].peers[1].bye.Load() {
		t.Error("the record was taken for the peer's shutdown notice")
	}
	closeAll(nets)
	waitGoroutines(t, before)
}

// TestRingQuietDrainKeepsDoorbell: rank 0 blocks in WaitPending, and the first
// record rank 1 sends it is a get out of a device segment — its bell takes the
// parked word, the reader serves it, and nothing is enqueued, so nobody is
// woken. The word must stand again once that drain is over, or the AM that
// follows rings for no one and the waiter sleeps out its bound (the test's
// timeout, were it to: the AM's doorbell is counted first).
func TestRingQuietDrainKeepsDoorbell(t *testing.T) {
	nets, wires := shmPair(t)
	defer closeAll(nets)
	got := 0
	for _, n := range nets {
		n.RegisterAM(func(*Endpoint, Rank, []byte, any) { got++ })
	}
	ep0, ep1, in0 := nets[0].Endpoint(0), nets[1].Endpoint(1), wires[0].peers[1].in
	dev := ep0.AddDeviceSegment(64)
	woken := make(chan bool)
	select {
	case <-ep0.notify: // whatever start-up rang is not this wait's
	default:
	}
	go func() { woken <- ep0.WaitPending(time.Hour) }()
	standing := func(what string) {
		for deadline := time.Now().Add(20 * time.Second); atomic.LoadUint32(in0.parked) == 0; runtime.Gosched() {
			if time.Now().After(deadline) {
				t.Fatalf("parked is down %s: the next push rings for no one", what)
			}
		}
	}
	standing("with a goroutine in WaitPending")
	landed, bells := false, wires[1].ringBells.Load()
	ep1.GetSegTag(0, dev, 0, make([]byte, 8), func() { landed = true }, obs.OpTag{})
	for deadline := time.Now().Add(20 * time.Second); !landed; ep1.Poll() {
		if time.Now().After(deadline) {
			t.Fatal("the get was never served")
		}
	}
	if b := wires[1].ringBells.Load() - bells; b != 1 {
		t.Fatalf("%d doorbells for a get sent to a parked rank, want 1", b)
	}
	select {
	case <-woken:
		t.Fatal("a served get woke the waiter: the row needs a drain that enqueues nothing")
	default:
	}
	standing("after a belled drain that woke nobody, its waiter still blocked")
	ep1.AM(0, 0, []byte{1}, nil)
	if b := wires[1].ringBells.Load() - bells; b != 2 {
		t.Fatalf("%d doorbells for a get and an AM sent to a parked rank, want 2", b)
	}
	if !<-woken || ep0.Poll() != 1 || got != 1 {
		t.Fatalf("the waiter came back to %d AMs", got)
	}
}

// TestRingKillUnderFlood: the consumer stops draining (its reader is held at
// the endpoint queue lock), the producer floods until it parks on the full
// ring, and then the consumer's end of the socket goes away without a bye.
// The parked injector must come back and the rest of its flood must not park
// again: Failed() wraps ErrPeerLost in bounded time, and teardown leaves no
// goroutine behind.
func TestRingKillUnderFlood(t *testing.T) {
	before := runtime.NumGoroutine()
	nets, wires := shmPair(t)
	for _, n := range nets {
		n.RegisterAM(func(*Endpoint, Rank, []byte, any) {})
	}
	held, release := make(chan struct{}), make(chan struct{})
	go nets[1].Endpoint(1).syncDirect(func() { close(held); <-release })
	<-held
	flooded := make(chan struct{})
	go func() {
		defer close(flooded)
		payload := make([]byte, 64)
		for i := 0; i < 20000; i++ { // ~1.5 MB through a 64 KiB ring
			nets[0].Endpoint(0).AM(1, 0, payload, nil)
		}
	}()
	out := wires[0].peers[1].ring
	for deadline := time.Now().Add(20 * time.Second); atomic.LoadUint32(out.waiting) == 0; {
		if time.Now().After(deadline) {
			t.Fatal("the flood never filled the ring")
		}
		runtime.Gosched()
	}
	select {
	case <-flooded:
		t.Fatal("the flood finished against a consumer that does not drain: nothing bounded it")
	default:
	}
	wires[1].peers[0].conn.Close() // the consumer dies
	select {
	case <-flooded:
	case <-time.After(20 * time.Second):
		t.Fatal("injector still parked on the dead peer's ring")
	}
	if err := nets[0].Failed(); !errors.Is(err, ErrPeerLost) {
		t.Errorf("producer's Failed() = %v, want an ErrPeerLost-wrapped error", err)
	}
	if ci := nets[0].ConduitInfo(); ci.SocketFallbacks != 0 {
		t.Errorf("%d ring-eligible frames took the socket", ci.SocketFallbacks)
	}
	close(release)
	closeAll(nets)
	for deadline := time.Now().Add(10 * time.Second); runtime.NumGoroutine() > before; {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines before, %d after teardown:\n%s", before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		runtime.Gosched()
	}
}

// TestRingBothFullOneP: two ranks on one P fill each other's ring from inside
// injection — neither polls until its whole burst, several rings' worth, is
// out — so both block in ringSend with unread records in their own rings and
// no reader that anybody belled. The block is a park: each drains its inbound
// ring before it waits, which sends the other the space doorbell. Every AM
// arrives in order, and no wait is ended by the 100 ms backstop.
func TestRingBothFullOneP(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const N = 8000 // x 84-byte records: some ten rings each way
	nets, wires := shmPair(t)
	defer closeAll(nets)
	var next [2]int
	for r, n := range nets {
		n.RegisterAM(func(_ *Endpoint, _ Rank, p []byte, _ any) {
			if seq := int(binary.LittleEndian.Uint32(p)); seq != next[r] {
				t.Errorf("rank %d: AM %d arrived when %d was due", r, seq, next[r])
			}
			next[r]++
		})
	}
	var wg sync.WaitGroup
	for r := range nets {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ep, msg := nets[r].Endpoint(Rank(r)), make([]byte, 64)
			for i := 0; i < N; i++ {
				binary.LittleEndian.PutUint32(msg, uint32(i))
				ep.AM(Rank(1-r), 0, msg, nil)
			}
			for next[r] < N && nets[r].Failed() == nil {
				if ep.Poll() == 0 {
					ep.WaitPending(time.Millisecond)
				}
			}
		}()
	}
	wg.Wait()
	for r, w := range wires {
		if n := w.ringTimeouts.Load(); n != 0 || next[r] != N || nets[r].Failed() != nil {
			t.Errorf("rank %d: %d of %d AMs, %d waits on a full ring ended by the backstop (want 0), failed: %v", r, next[r], N, n, nets[r].Failed())
		}
		if ci := w.info(); ci.SocketFallbacks != 0 {
			t.Errorf("rank %d: %d ring-eligible frames took the socket", r, ci.SocketFallbacks)
		}
	}
}

// TestShmEmptyPollAllocs pins what a progress pass costs a shm rank whose
// rings are empty: no heap object, and no lock — every lock of the datapath is
// held here, so a pass that took one would not come back. The same of a ring
// whose next record is a marker a pass has met: it is the reader's, and no
// later pass copies the span behind it again. (Named so that the race gate's
// Ring pattern leaves it to `make alloc-pins`.)
func TestShmEmptyPollAllocs(t *testing.T) {
	nets, wires := shmPair(t)
	defer closeAll(nets)
	p, ep := wires[0].peers[1], nets[0].Endpoint(0)
	for _, front := range []string{"empty rings", "a marker in front"} {
		if front != "empty rings" { // the frame it stands for never comes: nothing passes it
			wires[1].peers[0].ring.push([][]byte{{fSock}})
			wires[1].peers[0].ring.push([][]byte{make([]byte, ringMaxRec)})
			ep.PollCompletions()
		}
		p.dmu.Lock()
		p.rmu.Lock()
		p.wmu.Lock()
		a := testing.AllocsPerRun(1000, func() { ep.PollCompletions(); ep.PollAMs() })
		p.wmu.Unlock()
		p.rmu.Unlock()
		p.dmu.Unlock()
		if a != 0 {
			t.Errorf("a progress pass over %s: %v allocs, want 0", front, a)
		}
	}
	atomic.StoreUint64(p.in.tail, atomic.LoadUint64(p.in.head)) // nothing for teardown's drain to wait on
}

// TestShmAMAllocs pins the ring datapath's heap objects: an 8-byte AM is
// gathered from its parts straight into the record — none at the sender —
// and a drain's one object is the private copy of the span, which every
// payload of the span aliases. (Named so that the race gate's Ring pattern
// leaves it to `make alloc-pins`.)
func TestShmAMAllocs(t *testing.T) {
	n := NewNetwork(Config{Ranks: 2, SegmentSize: 1 << 12})
	defer n.Close()
	got := 0
	h := n.RegisterAM(func(_ *Endpoint, _ Rank, p []byte, _ any) { got += len(p) })
	region := make([]byte, ringBytes)
	newPeer := func(rank Rank, ring *shmRing) *peerConn {
		p := &peerConn{rank: rank, ring: ring, wclosed: true} // doorbells go nowhere
		p.rcnd = sync.NewCond(&p.rmu)
		return p
	}
	src := &wire{self: 0, n: 2, peers: []*peerConn{nil, newPeer(1, mapRing(region))}}
	from := newPeer(0, nil)
	from.in = mapRing(region)
	dst := &wire{self: 1, n: 2, ep: n.Endpoint(1), peers: []*peerConn{from, nil}}
	const N = 50
	payload := make([]byte, 8)
	sent := uint64(0)
	send := func() {
		sent += N
		for i := 0; i < N; i++ {
			src.am(nil, 1, h, payload[:3], [][]byte{payload[3:]}, nil, obs.OpTag{})
		}
	}
	recv := func() {
		dst.drainRing(from, true)
		n.Endpoint(1).PollAMs()
	}
	send()
	recv() // the batch and the endpoint's queues grow once
	send()
	recv()
	if a := testing.AllocsPerRun(20, send); a != 0 { // 21 × 50 records of 20 bytes: well inside the ring
		t.Errorf("%d ring AMs of 8 bytes: %v allocs at the sender, want 0", N, a)
	}
	recv()
	if a := testing.AllocsPerRun(100, func() { send(); recv() }); a != 1 || uint64(got) != 8*sent {
		t.Errorf("a drain of %d records: %v allocs (want 1, the span), %d bytes delivered (want %d)", N, a, got, 8*sent)
	}
	if ci := src.info(); ci.RingRecords != sent || ci.SocketFallbacks != 0 {
		t.Errorf("%d ring records, %d socket fallbacks; want %d and 0", ci.RingRecords, ci.SocketFallbacks, sent)
	}
}

// TestRingOversizeAndLocalFIFO crosses every kind of frame on one ring pair
// at once, each rank driven by its own goroutine: both ranks flood each other
// with sequence-numbered AMs, every eighth too large for a record (a marker
// in the ring, the frame on the socket), while rank 0 also pulls 8 KiB gets
// out of rank 1's device segment — replies rank 1's *reader* sends, too large
// for a record, into a ring rank 1's own flood keeps full, so they wait on
// the local FIFO for a doorbell. Every stream must arrive whole and in order.
func TestRingOversizeAndLocalFIFO(t *testing.T) {
	const N, gets, getN = 12000, 48, 8 << 10
	nets, wires := shmPair(t)
	defer closeAll(nets)
	var next [2]int // per receiving rank: the sequence number due
	for r, n := range nets {
		n.RegisterAM(func(_ *Endpoint, _ Rank, p []byte, _ any) {
			if seq := int(binary.LittleEndian.Uint32(p)); seq != next[r] {
				t.Errorf("rank %d: AM %d arrived when %d was due", r, seq, next[r])
			}
			next[r]++
		})
	}
	// The row a poller meets: record, marker, record in rank 0's inbound ring,
	// the frame the marker stands for still unsent. A progress pass delivers
	// the first and leaves the marker where it is, however often it looks; the
	// reader, once the doorbell and the frame are on the socket, delivers the
	// rest, in order.
	to0, in0, ep0 := wires[1].peers[0], wires[0].peers[1].in, nets[0].Endpoint(0)
	am := func(seq uint32, n int) []byte {
		b := make([]byte, n)
		binary.LittleEndian.PutUint32(b, seq)
		return encodeAM(1, 0, nil, b, nil)[4:]
	}
	for _, rec := range [][]byte{am(0, 16), {fSock}, am(2, 16)} {
		if pushed, bell := to0.ring.push([][]byte{rec}); !pushed || bell {
			t.Fatalf("push into an empty ring of a polling consumer = (%v, %v)", pushed, bell)
		}
	}
	for i := 0; i < 3; i++ {
		ep0.Poll()
	}
	if tail := atomic.LoadUint64(in0.tail); next[0] != 1 || tail != uint64(4+len(am(0, 16))) {
		t.Fatalf("a progress pass that met a marker delivered %d AMs and left tail at %d: want 1 and the marker's position", next[0], tail)
	}
	if ep0.Yield() {
		t.Fatal("a waiter was let yield at a marker: no yield sees the frame behind it, only its reader")
	}
	wires[1].sockSend(to0, false, []byte{fRing})
	wires[1].sockSend(to0, false, am(1, 5000))
	for deadline := time.Now().Add(20 * time.Second); next[0] < 3; ep0.Poll() {
		if time.Now().After(deadline) {
			t.Fatalf("%d of 3 AMs around a marker arrived", next[0])
		}
	}
	if !ep0.Yield() {
		t.Fatal("a waiter is refused its yield with the marker gone")
	}
	next[0] = 0

	dev := nets[1].Endpoint(1).AddDeviceSegment(gets * getN)
	src := nets[1].Endpoint(1).SegByID(dev).Bytes(0, gets*getN)
	for i := range src {
		src[i] = byte(i/getN + i)
	}
	nets[1].Endpoint(1).Pending() // publish the pattern to rank 1's reader (syncDirect's lock)
	got, landed := make([][]byte, gets), 0
	var wg sync.WaitGroup
	for r := range nets {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ep, peer := nets[r].Endpoint(Rank(r)), Rank(1-r)
			small, big := make([]byte, 16), make([]byte, 5000)
			for i := 0; i < N; i++ {
				msg := small
				if i%8 == 7 {
					msg = big
				}
				binary.LittleEndian.PutUint32(msg, uint32(i))
				ep.AM(peer, 0, msg, nil)
				if r == 0 && i%(N/gets) == 0 {
					g := i / (N / gets)
					got[g] = make([]byte, getN)
					ep.GetSegTag(1, dev, uint64(g*getN), got[g], func() { landed++ }, obs.OpTag{})
				}
				if i%64 == 0 {
					ep.Poll()
				}
			}
			for deadline := time.Now().Add(30 * time.Second); next[r] < N || r == 0 && landed < gets; ep.Poll() {
				if time.Now().After(deadline) {
					t.Errorf("rank %d: %d of %d AMs, %d of %d gets", r, next[r], N, landed, gets)
					return
				}
			}
		}()
	}
	wg.Wait()
	for g, b := range got {
		if !bytes.Equal(b, src[g*getN:(g+1)*getN]) {
			t.Errorf("get %d returned the wrong bytes", g)
		}
	}
	for r, w := range wires {
		want := uint64(N / 8)
		if r == 1 {
			want += gets
		}
		if ci := w.info(); ci.SocketFallbacks != want || ci.RingRecords == 0 {
			t.Errorf("rank %d: %d frames took the socket (want %d: the oversize ones), %d ring records", r, ci.SocketFallbacks, want, ci.RingRecords)
		}
	}
}
