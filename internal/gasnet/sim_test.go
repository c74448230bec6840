package gasnet

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestQueueOrdering(t *testing.T) {
	var q Queue[float64]
	var order []int
	q.At(3, func() { order = append(order, 3) })
	q.At(1, func() { order = append(order, 1) })
	q.At(2, func() { order = append(order, 2) })
	if n := q.Run(); n != 3 {
		t.Fatalf("ran %d events", n)
	}
	if order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v", order)
	}
	if q.Now() != 3 {
		t.Fatalf("now = %v", q.Now())
	}
}

func TestQueueTiesFIFOBySchedulingOrder(t *testing.T) {
	var q Queue[float64]
	var order []int
	for i := 0; i < 10; i++ {
		q.At(1, func() { order = append(order, i) })
	}
	q.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("tie order = %v", order)
		}
	}
}

func TestQueueNestedScheduling(t *testing.T) {
	var q Queue[float64]
	var times []float64
	q.At(1, func() {
		times = append(times, q.Now())
		q.At(q.Now()+2, func() { times = append(times, q.Now()) })
		// Scheduling in the past clamps to now, never moves time back.
		q.At(0, func() { times = append(times, q.Now()) })
	})
	q.Run()
	want := []float64{1, 1, 3}
	for i := range want {
		if times[i] != want[i] {
			t.Fatalf("times = %v, want %v", times, want)
		}
	}
}

// TestQueueRunUntil: what the loggp backend's harvest relies on — only the
// events due by the given time run, Next names the earliest left, and an
// empty queue has none.
func TestQueueRunUntil(t *testing.T) {
	var q Queue[int64]
	ran := 0
	for _, at := range []int64{5, 1, 9, 5} {
		q.At(at, func() { ran++ })
	}
	if n := q.RunUntil(4); n != 1 || ran != 1 {
		t.Fatalf("RunUntil(4) ran %d (%d), want 1", n, ran)
	}
	if next, ok := q.Next(); !ok || next != 5 {
		t.Fatalf("Next = %v, %v; want 5", next, ok)
	}
	if n := q.RunUntil(5); n != 2 || q.Len() != 1 || q.Now() != 5 {
		t.Fatalf("RunUntil(5) ran %d, left %d at %v; want 2, 1 at 5", n, q.Len(), q.Now())
	}
	q.Run()
	if _, ok := q.Next(); ok || q.Len() != 0 {
		t.Fatal("Next on an empty queue reported an event")
	}
}

func TestChannelSerializes(t *testing.T) {
	var c Channel[float64]
	if e := c.Book(0, 5); e != 5 {
		t.Fatalf("first booking ends at %v, want 5", e)
	}
	// A second job ready at time 2 must queue behind the first.
	if e := c.Book(2, 3); e != 8 {
		t.Fatalf("second booking ends at %v, want 8", e)
	}
	// A job ready after the channel frees starts at once.
	if e := c.Book(10, 1); e != 11 {
		t.Fatalf("third booking ends at %v, want 11", e)
	}
}

// Property: time never decreases across an arbitrary random event storm,
// and every event runs exactly once.
func TestQuickQueueMonotoneTime(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var q Queue[float64]
		ran := 0
		var last float64
		monotone := true
		n := 50 + rng.Intn(100)
		for i := 0; i < n; i++ {
			q.At(rng.Float64()*100, func() {
				ran++
				if q.Now() < last {
					monotone = false
				}
				last = q.Now()
				// Sometimes cascade.
				if rng.Intn(4) == 0 {
					q.At(q.Now()+rng.Float64(), func() { ran++ })
				}
			})
		}
		total := q.Run()
		return monotone && ran == total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: bookings on one channel never overlap, and its busy time is the
// sum of their durations whatever the arrival pattern.
func TestQuickChannelConservation(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var c Channel[float64]
		type iv struct{ s, e float64 }
		var ivs []iv
		total := 0.0
		ready := 0.0
		for i := 0; i < 50; i++ {
			ready += rng.Float64() // non-decreasing ready times
			d := rng.Float64()
			e := c.Book(ready, d)
			ivs = append(ivs, iv{e - d, e})
			total += d
		}
		sort.Slice(ivs, func(i, j int) bool { return ivs[i].s < ivs[j].s })
		sum := 0.0
		for i, v := range ivs {
			sum += v.e - v.s
			if i > 0 && v.s < ivs[i-1].e-1e-12 {
				return false
			}
		}
		return sum > total-1e-9 && sum < total+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
