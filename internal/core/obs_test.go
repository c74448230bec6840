package upcxx

import (
	"testing"

	"upcxx/internal/gasnet"
	"upcxx/internal/obs"
)

// Observability conformance: the counters the introspection layer
// reports must match the operations the program injected, exactly —
// across {put,get,copy,atomic,rpc,collective} × {host,device} ×
// {self,cross} and across the completion-via matrix. The file runs
// under -race in CI (obs-smoke), pinning the recording paths as
// race-clean against real runtime concurrency.

const obsN = 3  // ops per matrix cell
const obsB = 64 // payload bytes per RMA op (16 × int32)

func TestObsConformanceMatrix(t *testing.T) {
	RunConfig(Config{Ranks: 2, Stats: true}, func(rk *Rank) {
		da := NewDeviceAllocator(rk, 1<<20)
		host := MustNewArray[int32](rk, 16)
		dev := MustNewDeviceArray[int32](da, 16)
		ctr := MustNewArray[uint64](rk, 1)
		hObj := NewDistObject(rk, host)
		dObj := NewDistObject(rk, dev)
		cObj := NewDistObject(rk, ctr)
		ad := NewAtomicU64(rk)
		rk.Barrier()

		if rk.Me() == 0 {
			peerHost := FetchDist[GPtr[int32]](rk, hObj.ID(), 1).Wait()
			peerDev := FetchDist[GPtr[int32]](rk, dObj.ID(), 1).Wait()
			peerCtr := FetchDist[GPtr[uint64]](rk, cObj.ID(), 1).Wait()

			src := make([]int32, 16)
			buf := make([]int32, 16)
			base := rk.Stats()
			for i := 0; i < obsN; i++ {
				RPut(rk, src, host).Wait()                                    // put host self
				RPut(rk, src, peerHost).Wait()                                // put host cross
				RPut(rk, src, peerDev).Wait()                                 // put device cross
				RGet(rk, host, buf).Wait()                                    // get host self
				RGet(rk, peerHost, buf).Wait()                                // get host cross
				CopyGG(rk, host, dev, 16).Wait()                              // copy h2d self
				CopyGG(rk, host, peerDev, 16).Wait()                          // copy h2d cross
				CopyGG(rk, dev, peerHost, 16).Wait()                          // copy d2h cross
				ad.FetchAdd(ctr, 1).Wait()                                    // atomic self
				ad.FetchAdd(peerCtr, 1).Wait()                                // atomic cross
				RPC(rk, 0, func(trk *Rank, x int) int { return x }, i).Wait() // rpc self
				RPC(rk, 1, func(trk *Rank, x int) int { return x }, i).Wait() // rpc cross
			}
			// Promise-counted flood (operation_cx::as_promise).
			p := NewPromise[Unit](rk)
			for i := 0; i < obsN; i++ {
				RPutPromise(rk, src, peerHost, p)
			}
			p.Finalize().Wait()
			// Source + operation completion on one put.
			fs := RPutWith(rk, src, peerHost, SourceCxAsFuture(), OpCxAsFuture())
			fs.Source.Wait()
			fs.Op.Wait()
			// LPC-delivered operation completion on the current persona.
			lpcHit := false
			fsl := RPutWith(rk, src, peerHost,
				OpCxAsLPC(rk.CurrentPersona(), func() { lpcHit = true }),
				OpCxAsFuture())
			fsl.Op.Wait()
			for !lpcHit {
				rk.Progress()
			}

			d := rk.Stats().Delta(base)
			wantOps := [obs.NumOpKinds]uint64{}
			wantOps[obs.KindPut] = 3*obsN + obsN + 2 // matrix + flood + src-cx + lpc puts
			wantOps[obs.KindGet] = 2 * obsN
			wantOps[obs.KindCopy] = 3 * obsN
			wantOps[obs.KindAtomic] = 2 * obsN
			wantOps[obs.KindRPC] = 2 * obsN
			// Each RPC reply is a one-way AM issued by the responder; the
			// self-RPCs' replies are issued by this rank.
			wantOps[obs.KindAM] = obsN
			for k := obs.KindPut; k < obs.KindColl; k++ {
				if d.Counters[k.Ops()] != wantOps[k] {
					t.Errorf("Ops[%v] = %d, want %d", k, d.Counters[k.Ops()], wantOps[k])
				}
			}
			if want := (4*obsN + 2) * uint64(obsB); d.Counters[obs.KindPut.TxBytes()] != want {
				t.Errorf("TxBytes[put] = %d, want %d", d.Counters[obs.KindPut.TxBytes()], want)
			}
			if want := 2 * obsN * uint64(obsB); d.Counters[obs.KindGet.TxBytes()] != want {
				t.Errorf("TxBytes[get] = %d, want %d", d.Counters[obs.KindGet.TxBytes()], want)
			}
			if want := 3 * obsN * uint64(obsB); d.Counters[obs.KindCopy.TxBytes()] != want {
				t.Errorf("TxBytes[copy] = %d, want %d", d.Counters[obs.KindCopy.TxBytes()], want)
			}
			if want := 2 * obsN * uint64(8); d.Counters[obs.KindAtomic.TxBytes()] != want {
				t.Errorf("TxBytes[atomic] = %d, want %d", d.Counters[obs.KindAtomic.TxBytes()], want)
			}
			// Gets land at the initiator: rank 0 received every get payload.
			if want := 2 * obsN * uint64(obsB); d.Counters[obs.KindGet.RxBytes()] != want {
				t.Errorf("RxBytes[get] = %d, want %d", d.Counters[obs.KindGet.RxBytes()], want)
			}
			// Completion matrix: every future-completed op in the loop plus
			// the two op futures of the src-cx and LPC puts; the flood
			// delivered via promise; one source future; one LPC.
			if want := 10*uint64(obsN) + 2; d.Counters[obs.EvOp.Via(obs.ViaFuture)] != want {
				t.Errorf("Cx[op][future] = %d, want %d", d.Counters[obs.EvOp.Via(obs.ViaFuture)], want)
			}
			if d.Counters[obs.EvOp.Via(obs.ViaPromise)] != obsN {
				t.Errorf("Cx[op][promise] = %d, want %d", d.Counters[obs.EvOp.Via(obs.ViaPromise)], obsN)
			}
			if d.Counters[obs.EvSource.Via(obs.ViaFuture)] != 1 {
				t.Errorf("Cx[source][future] = %d, want 1", d.Counters[obs.EvSource.Via(obs.ViaFuture)])
			}
			if d.Counters[obs.EvOp.Via(obs.ViaLPC)] != 1 {
				t.Errorf("Cx[op][lpc] = %d, want 1", d.Counters[obs.EvOp.Via(obs.ViaLPC)])
			}
			// The idle stage: every wait above polled between yields (the peer
			// rank is a yield away), and a yield is what an empty pass of a
			// wait is followed by — never more of them than of those.
			if d.Counters[obs.IdleYields] == 0 || d.Counters[obs.IdleYields] > d.Counters[obs.EmptyPasses] {
				t.Errorf("IdleYields = %d beside %d empty passes and %d wake-ups, want 1..EmptyPasses", d.Counters[obs.IdleYields], d.Counters[obs.EmptyPasses], d.Counters[obs.Wakeups])
			}
			// Device traffic ran through the DMA engine on this rank: the
			// self h2d copies and the d2h source drains at least.
			if d.Counters[obs.DMAH2D.Descriptors()] < obsN || d.Counters[obs.DMAD2H.Descriptors()] < obsN {
				t.Errorf("DMA h2d/d2h = %d/%d, want >= %d each", d.Counters[obs.DMAH2D.Descriptors()], d.Counters[obs.DMAD2H.Descriptors()], obsN)
			}
			// Latency histograms saw exactly the ops this rank injected
			// (absolute totals: nothing else in this world issues puts).
			s := rk.Stats()
			if got := s.HistCount(obs.HistDone, obs.KindPut); got != uint64(wantOps[obs.KindPut]) {
				t.Errorf("HistCount(done, put) = %d, want %d", got, wantOps[obs.KindPut])
			}
			if got := s.HistCount(obs.HistDone, obs.KindCopy); got != 3*obsN {
				t.Errorf("HistCount(done, copy) = %d, want %d", got, 3*obsN)
			}
		}
		rk.Barrier()

		// Collectives: every rank plans one whole-collective op per call,
		// lowered onto counted tree rounds.
		base := rk.Stats()
		for i := 0; i < obsN; i++ {
			AllReduce(rk.WorldTeam(), int64(1), func(a, b int64) int64 { return a + b }).Wait()
		}
		d := rk.Stats().Delta(base)
		if d.Counters[obs.KindColl.Ops()] != obsN {
			t.Errorf("rank %d: Ops[collective] = %d, want %d", rk.Me(), d.Counters[obs.KindColl.Ops()], obsN)
		}
		if d.Counters[obs.KindCollRound.Ops()] < obsN {
			t.Errorf("rank %d: Ops[coll-round] = %d, want >= %d", rk.Me(), d.Counters[obs.KindCollRound.Ops()], obsN)
		}
		rk.Barrier()
	})
}

// TestObsTraceTimeline arms tracing and checks a traced put's causal
// timeline: inject first, delivered last, monotone timestamps, and a
// landing recorded at the destination rank.
func TestObsTraceTimeline(t *testing.T) {
	RunConfig(Config{Ranks: 2, Stats: true, TraceDepth: 256}, func(rk *Rank) {
		host := MustNewArray[int32](rk, 16)
		hObj := NewDistObject(rk, host)
		rk.Barrier()
		if rk.Me() == 0 {
			peer := FetchDist[GPtr[int32]](rk, hObj.ID(), 1).Wait()
			RPut(rk, make([]int32, 16), peer).Wait()
			s := rk.Stats()
			var putTL []obs.Event
			for _, id := range s.TracedOps() {
				tl := s.Timeline(id)
				if len(tl) > 0 && tl[0].Kind == obs.KindPut {
					putTL = tl
				}
			}
			if putTL == nil {
				t.Fatalf("no traced put op in %d traced ops", len(s.TracedOps()))
			}
			if putTL[0].Stage != obs.StageInject {
				t.Errorf("timeline starts with %v, want inject", putTL[0].Stage)
			}
			if last := putTL[len(putTL)-1]; last.Stage != obs.StageDelivered {
				t.Errorf("timeline ends with %v, want delivered", last.Stage)
			}
			landed := false
			for i, ev := range putTL {
				if i > 0 && ev.T < putTL[i-1].T {
					t.Errorf("timeline not monotone at event %d", i)
				}
				if ev.Stage == obs.StageLanding && ev.At == 1 {
					landed = true
				}
			}
			if !landed {
				t.Error("no landing event at the destination rank")
			}
		}
		rk.Barrier()
	})
}

// TestObsEnvConfig checks the UPCXX_STATS / UPCXX_TRACE environment
// knobs reach a world built without explicit Config fields.
func TestObsEnvConfig(t *testing.T) {
	t.Setenv("UPCXX_STATS", "on")
	t.Setenv("UPCXX_TRACE", "1")
	RunConfig(Config{Ranks: 1}, func(rk *Rank) {
		if !rk.StatsEnabled() {
			t.Fatal("UPCXX_STATS=on ignored")
		}
		dst := MustNewArray[int32](rk, 4)
		RPut(rk, make([]int32, 4), dst).Wait()
		s := rk.Stats()
		if s.Counters[obs.KindPut.Ops()] != 1 {
			t.Errorf("Ops[put] = %d, want 1", s.Counters[obs.KindPut.Ops()])
		}
		if len(s.TracedOps()) == 0 {
			t.Error("UPCXX_TRACE=1 armed no tracing")
		}
	})
}

// TestObsDisabledZero checks the disabled runtime records no ops,
// histograms or trace and the introspection surfaces stay safe no-ops,
// while the conduit's always-on counters still report, every snapshot one
// rank's, and equal the Endpoint.Stats view.
func TestObsDisabledZero(t *testing.T) {
	RunConfig(Config{Ranks: 2}, func(rk *Rank) {
		if rk.StatsEnabled() {
			t.Fatal("stats enabled without Config.Stats")
		}
		dst := MustNewArray[int32](rk, 4)
		RPut(rk, make([]int32, 4), dst).Wait()
		RGet(rk, dst, make([]int32, 4)).Wait()
		rk.Barrier()
		s := rk.Stats()
		for k := range obs.NumOpKinds {
			if s.Counters[k.Ops()] != 0 {
				t.Errorf("disabled snapshot counted %d %s ops", s.Counters[k.Ops()], k)
			}
		}
		if s.Rank != rk.Me() || s.Ranks != 1 || len(s.Hist) != 0 || len(s.Trace) != 0 {
			t.Errorf("disabled snapshot = rank %d of %d, %d histogram cells, %d events; want rank %d of 1, none",
				s.Rank, s.Ranks, len(s.Hist), len(s.Trace), rk.Me())
		}
		c := s.Counters
		view := gasnet.Stats{Puts: c[obs.Puts], PutBytes: c[obs.PutBytes], Gets: c[obs.Gets], GetBytes: c[obs.GetBytes],
			AMs: c[obs.AMs], AMBytes: c[obs.AMBytes], AMOs: c[obs.AMOs]}
		if st := rk.World().Network().Endpoint(rk.Me()).Stats(); st != view || st.Puts == 0 || st.Gets == 0 || st.AMs == 0 {
			t.Errorf("conduit counters %+v, Endpoint.Stats %+v: want equal, puts, gets and AMs nonzero", view, st)
		}
		all := rk.World().StatsAll()
		if len(all) != 2 || all[0].Ranks != 1 || all[1].Ranks != 1 || rk.World().StatsMerged().Ranks != 2 {
			t.Errorf("StatsAll = %d snapshots, merged over %d ranks; want one rank each, 2 merged", len(all), rk.World().StatsMerged().Ranks)
		}
		rk.Barrier()
	})
}
