package dht

import (
	"fmt"
	"sync"
	"testing"

	"upcxx"
)

// The paper's DHT motif under the persona/progress-thread model: each
// rank runs several user goroutines issuing inserts and finds
// concurrently while a dedicated progress thread keeps the rank
// attentive. Every goroutine's completions are delivered to its own
// persona; run with -race to validate the cross-thread delivery paths.
func testDHTConcurrentUsers(t *testing.T, mode Mode) {
	const (
		ranks = 2
		users = 4
		keys  = 40
	)
	upcxx.RunConfig(upcxx.Config{Ranks: ranks, ProgressThread: true, SegmentSize: 16 << 20}, func(rk *upcxx.Rank) {
		d := New(rk, mode)
		rk.Barrier()

		var wg sync.WaitGroup
		for u := 0; u < users; u++ {
			u := u
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer upcxx.DetachDefaultPersonas()
				base := uint64(rk.Me())*1_000_000 + uint64(u)*10_000
				for i := 0; i < keys; i++ {
					key := base + uint64(i)
					val := []byte(fmt.Sprintf("rank%d-user%d-key%d", rk.Me(), u, i))
					d.Insert(key, val).Wait()
					got := d.Find(key).Wait()
					if string(got) != string(val) {
						t.Errorf("find(%d) = %q want %q", key, got, val)
					}
				}
			}()
		}
		wg.Wait()
		rk.Barrier()

		// Cross-check: every rank reads every other rank's keys.
		for r := upcxx.Intrank(0); r < rk.N(); r++ {
			for u := 0; u < users; u++ {
				key := uint64(r)*1_000_000 + uint64(u)*10_000
				want := fmt.Sprintf("rank%d-user%d-key0", r, u)
				if got := d.Find(key).Wait(); string(got) != want {
					t.Errorf("cross find(%d) = %q want %q", key, got, want)
				}
			}
		}
		rk.Barrier()

		// All entries landed somewhere: the job-wide count matches.
		total := upcxx.AllReduce(rk.WorldTeam(), int64(d.LocalLen()),
			func(a, b int64) int64 { return a + b }).Wait()
		if total != int64(ranks*users*keys) {
			t.Errorf("job-wide entries = %d want %d", total, ranks*users*keys)
		}
		rk.Barrier()
	})
}

func TestDHTConcurrentUsersRPCOnly(t *testing.T)     { testDHTConcurrentUsers(t, RPCOnly) }
func TestDHTConcurrentUsersLandingZone(t *testing.T) { testDHTConcurrentUsers(t, LandingZone) }
func TestDHTConcurrentUsersSignalingPut(t *testing.T) {
	testDHTConcurrentUsers(t, SignalingPut)
}
