package upcxx

import (
	"fmt"
	"testing"

	"upcxx/internal/gasnet"
	"upcxx/internal/obs"
)

// GPU-direct conformance matrix: every RMA shape that touches device
// memory must move the right bytes on both datapaths — the GDR-capable
// direct chain (NIC reads/writes device memory, no host bounce) and the
// staged bounce chain — same-rank and cross-rank. The obs descriptor
// counters pin which path ran: cross-rank d2d traffic is d2d-direct
// under GDR and d2d-bounced without it; same-rank d2d collapses to one
// direct engine descriptor on either path. The whole file runs under
// `go test -race` in CI (names match the Kinds/Coll race patterns).

func gdrConfig(ranks int, gdr bool) Config {
	return Config{Ranks: ranks, Stats: true, DMA: &gasnet.PCIeDMA{GDR: gdr}}
}

func TestKindsGDRConformanceMatrix(t *testing.T) {
	for _, gdr := range []bool{false, true} {
		mode := "bounced"
		if gdr {
			mode = "gdr"
		}
		for _, cross := range []bool{false, true} {
			loc := "self"
			if cross {
				loc = "cross"
			}
			t.Run(fmt.Sprintf("%s/%s", mode, loc), func(t *testing.T) {
				w := NewWorld(gdrConfig(2, gdr))
				defer w.Close()
				target := Intrank(0)
				if cross {
					target = 1
				}
				w.Run(func(rk *Rank) {
					da := NewDeviceAllocator(rk, 1<<18)
					dev := MustNewDeviceArray[int32](da, kindsN)
					local := MustNewDeviceArray[int32](da, kindsN)
					obj := NewDistObject(rk, dev)
					rk.Barrier()
					if rk.Me() == 0 {
						d := FetchDist[GPtr[int32]](rk, obj.ID(), target).Wait()
						// put: host source into a device destination.
						hsrc := make([]int32, kindsN)
						for i := range hsrc {
							hsrc[i] = 7 + int32(i)
						}
						RPut(rk, hsrc, d).Wait()
						// get: device source back into host memory.
						got := make([]int32, kindsN)
						RGet(rk, d, got).Wait()
						for i, v := range got {
							if v != 7+int32(i) {
								t.Errorf("put/get [%d] = %d, want %d", i, v, 7+int32(i))
								break
							}
						}
						// copy: device-to-device, initiator's device to target's.
						fillKind(rk, da, local, kindsN, 500)
						CopyGG(rk, local, d, kindsN).Wait()
						RGet(rk, d, got).Wait()
						for i, v := range got {
							if v != 500+int32(i) {
								t.Errorf("d2d copy [%d] = %d, want %d", i, v, 500+int32(i))
								break
							}
						}
					}
					rk.Barrier()
				})
				s := w.StatsMerged()
				// The mixed pairs keep their staging kinds on both paths.
				if s.Counters[obs.DMAH2D.Descriptors()] == 0 || s.Counters[obs.DMAD2H.Descriptors()] == 0 {
					t.Errorf("h2d/d2h descriptors = %d/%d, want both nonzero", s.Counters[obs.DMAH2D.Descriptors()], s.Counters[obs.DMAD2H.Descriptors()])
				}
				direct, bounced := s.Counters[obs.DMAD2DDirect.Descriptors()], s.Counters[obs.DMAD2DBounced.Descriptors()]
				switch {
				case !cross:
					// Same-rank d2d is one direct engine descriptor always.
					if direct == 0 || bounced != 0 {
						t.Errorf("self d2d: direct=%d bounced=%d, want direct>0 bounced=0", direct, bounced)
					}
				case gdr:
					// Cross-rank GDR: one descriptor per engine, no bounce.
					if direct < 2 || bounced != 0 {
						t.Errorf("gdr cross d2d: direct=%d bounced=%d, want direct>=2 bounced=0", direct, bounced)
					}
				default:
					if bounced < 2 || direct != 0 {
						t.Errorf("bounced cross d2d: direct=%d bounced=%d, want bounced>=2 direct=0", direct, bounced)
					}
				}
			})
		}
	}
}

// TestCollGDRDeviceAllReduceMatrix runs the device-operand allreduce on
// both datapaths, self (one-rank team, no links) and cross, checking the
// reduced values and the descriptor-kind split.
func TestCollGDRDeviceAllReduceMatrix(t *testing.T) {
	for _, gdr := range []bool{false, true} {
		mode := "bounced"
		if gdr {
			mode = "gdr"
		}
		for _, ranks := range []int{1, 4} {
			loc := "self"
			if ranks > 1 {
				loc = "cross"
			}
			t.Run(fmt.Sprintf("%s/%s", mode, loc), func(t *testing.T) {
				const n = 32
				w := NewWorld(gdrConfig(ranks, gdr))
				defer w.Close()
				w.Run(func(rk *Rank) {
					da := NewDeviceAllocator(rk, 1<<16)
					buf := MustNewDeviceArray[float64](da, n)
					RunKernel(da, buf, n, func(s []float64) {
						for i := range s {
							s[i] = float64(rk.Me() + 1)
						}
					})
					AllReduceBufWith(rk.WorldTeam(), da, buf, n,
						func(a, b float64) float64 { return a + b }).Op.Wait()
					want := float64(ranks * (ranks + 1) / 2)
					RunKernel(da, buf, n, func(s []float64) {
						for i, v := range s {
							if v != want {
								t.Errorf("rank %d: buf[%d] = %v, want %v", rk.Me(), i, v, want)
								break
							}
						}
					})
					rk.Barrier()
				})
				s := w.StatsMerged()
				direct, bounced := s.Counters[obs.DMAD2DDirect.Descriptors()], s.Counters[obs.DMAD2DBounced.Descriptors()]
				links := uint64(ranks - 1)
				switch {
				case ranks == 1:
					if direct != 0 || bounced != 0 {
						t.Errorf("one-rank allreduce moved d2d descriptors: direct=%d bounced=%d", direct, bounced)
					}
				case gdr:
					// Two engines per link per direction, all direct.
					if direct != 4*links || bounced != 0 {
						t.Errorf("gdr allreduce: direct=%d bounced=%d, want direct=%d bounced=0", direct, bounced, 4*links)
					}
				default:
					if bounced != 4*links || direct != 0 {
						t.Errorf("bounced allreduce: direct=%d bounced=%d, want bounced=%d direct=0", direct, bounced, 4*links)
					}
				}
			})
		}
	}
}

// TestCollDeviceAllReduceGDRDirectPath is the GDR analogue of
// TestCollDeviceAllReduceNoHostStaging and the acceptance pin for the
// fused landing-hop reduction: under a GPUDirect-capable DMA model the
// device allreduce's descriptor counters hold *only* d2d-direct ones —
// zero host-staging hops of any kind — and each parent launches exactly
// one fused fold kernel per child round (counted by obs), folding all of
// that round's arrived children at once. A flat radix makes the fusion
// visible: the root folds p-1 children with a single launch.
func TestCollDeviceAllReduceGDRDirectPath(t *testing.T) {
	const p, n = 8, 64
	cfg := gdrConfig(p, true)
	cfg.CollRadix = p // flat tree: one round, p-1 children at the root
	w := NewWorld(cfg)
	defer w.Close()
	das := make([]*DeviceAllocator, p)
	bufs := make([]GPtr[float64], p)
	w.Run(func(rk *Rank) {
		da := NewDeviceAllocator(rk, 1<<20)
		buf := MustNewDeviceArray[float64](da, n)
		RunKernel(da, buf, n, func(s []float64) {
			for i := range s {
				s[i] = float64(rk.Me() + 1)
			}
		})
		das[rk.Me()], bufs[rk.Me()] = da, buf
	})

	ds := statsDelta(w, func(rk *Rank) {
		AllReduceBufWith(rk.WorldTeam(), das[rk.Me()], bufs[rk.Me()], n,
			func(a, b float64) float64 { return a + b }).Op.Wait()
	})

	want := float64(p * (p + 1) / 2)
	w.Run(func(rk *Rank) {
		RunKernel(das[rk.Me()], bufs[rk.Me()], n, func(s []float64) {
			for i, v := range s {
				if v != want {
					t.Errorf("rank %d: buf[%d] = %v, want %v", rk.Me(), i, v, want)
				}
			}
		})
	})

	// Same hop budget as the bounced pin test — two engine descriptors per
	// link per direction — but every one of them direct: the staging DMAs
	// are gone, not relabeled.
	links := p - 1
	checkDMAHops(t, ds, 4*links, obs.DMAD2DDirect, n*8)

	// Fused-fold pin: the flat tree has exactly one parent round (at the
	// root) with p-1 children, so the whole reduction costs one fused
	// kernel launch covering p-1 operands — not p-1 per-child launches.
	s := w.StatsMerged()
	if s.Counters[obs.FusedFolds] != 1 || s.Counters[obs.FusedChildren] != uint64(links) {
		t.Errorf("fused folds: launches=%d children=%d, want launches=1 children=%d",
			s.Counters[obs.FusedFolds], s.Counters[obs.FusedChildren], links)
	}
}
