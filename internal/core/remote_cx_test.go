package upcxx

import (
	"testing"
)

// rcxSpan names n words at Dst; rcxSum sums them where they live and
// publishes the sum at Flag — a registered body, as a multi-process world
// requires of every RPC.
type rcxSpan struct {
	Dst, Flag GPtr[uint64]
	N         int
}

func rcxSum(trk *Rank, s rcxSpan) uint64 {
	sum := uint64(0)
	for _, v := range Local(trk, s.Dst, s.N) {
		sum += v
	}
	Local(trk, s.Flag, 1)[0] = sum
	return sum
}

var _ = RegisterRPC(rcxSum)

// TestRemoteCxThenRPCSeesData: a put's remote completion, then an RPC of a
// registered function to the put's target — the notification that reports
// back once it has run — finds the put's data there.
func TestRemoteCxThenRPCSeesData(t *testing.T) {
	Run(2, func(rk *Rank) {
		p := MustNewArray[uint64](rk, 4)
		flag := MustNewArray[uint64](rk, 1)
		_ = NewDistObject(rk, p)
		_ = NewDistObject(rk, flag)
		rk.Barrier()
		if rk.Me() == 0 {
			span := rcxSpan{
				Dst:  FetchDist[GPtr[uint64]](rk, 0, 1).Wait(),
				Flag: FetchDist[GPtr[uint64]](rk, 1, 1).Wait(),
				N:    4,
			}
			RPutWith(rk, []uint64{7, 8, 9, 10}, span.Dst, RemoteCxAsFuture()).Remote.Wait()
			if sum := RPC(rk, span.Dst.Owner, rcxSum, span).Wait(); sum != 34 {
				t.Errorf("notification saw sum %d, want 34", sum)
			}
			// The reply implies the notification already executed.
			if got := GetValue(rk, span.Flag).Wait(); got != 34 {
				t.Errorf("flag = %d", got)
			}
		}
		rk.Barrier()
	})
}

func TestRPutSignalFireAndForget(t *testing.T) {
	Run(2, func(rk *Rank) {
		p := MustNewArray[uint64](rk, 1)
		done := MustNewArray[uint64](rk, 1)
		_ = NewDistObject(rk, p)
		_ = NewDistObject(rk, done)
		rk.Barrier()
		if rk.Me() == 0 {
			dst := FetchDist[GPtr[uint64]](rk, 0, 1).Wait()
			remoteDone := FetchDist[GPtr[uint64]](rk, 1, 1).Wait()
			RPutSignal(rk, []uint64{42}, dst, func(trk *Rank, _ struct{}) {
				Local(trk, remoteDone, 1)[0] = Local(trk, dst, 1)[0]
			}, struct{}{}).Wait()
		}
		if rk.Me() == 1 {
			for Local(rk, done, 1)[0] != 42 {
				rk.Progress()
			}
		}
		rk.Barrier()
	})
}

func TestGatherAllGather(t *testing.T) {
	Run(6, func(rk *Rank) {
		team := rk.WorldTeam()
		vals := Gather(team, 2, int64(rk.Me())*10).Wait()
		if rk.Me() == 2 {
			if len(vals) != 6 {
				t.Fatalf("gather len = %d", len(vals))
			}
			for r, v := range vals {
				if v != int64(r)*10 {
					t.Errorf("gather[%d] = %d", r, v)
				}
			}
		} else if vals != nil {
			t.Errorf("non-root gather = %v", vals)
		}
		rk.Barrier()

		all := AllGather(team, int64(rk.Me())+100).Wait()
		if len(all) != 6 {
			t.Fatalf("allgather len = %d", len(all))
		}
		for r, v := range all {
			if v != int64(r)+100 {
				t.Errorf("allgather[%d] = %d", r, v)
			}
		}
		rk.Barrier()
	})
}

func TestGatherSubteam(t *testing.T) {
	Run(4, func(rk *Rank) {
		sub := rk.WorldTeam().Split(int(rk.Me())%2, int(rk.Me()))
		all := AllGather(sub, rk.Me()).Wait()
		if len(all) != 2 {
			t.Fatalf("subteam allgather len = %d", len(all))
		}
		// Members of a color share parity.
		if all[0]%2 != all[1]%2 {
			t.Errorf("mixed parities: %v", all)
		}
		rk.Barrier()
	})
}
