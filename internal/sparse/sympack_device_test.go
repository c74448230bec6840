package sparse

import (
	"testing"

	"upcxx"
	"upcxx/internal/gasnet"
	"upcxx/internal/matgen"
	"upcxx/internal/obs"
)

// TestCholV1DeviceMatchesDense: the device-resident factorization matches
// the dense reference at several process counts, and on a GPUDirect world
// the runtime counters pin the datapath — every d2d descriptor (the CB
// pushes) is direct, none bounced, and the device segments grew past
// their front-only sizing without invalidating a single front pointer.
func TestCholV1DeviceMatchesDense(t *testing.T) {
	prob := matgen.Generate("chol-dev", matgen.Grid3D{NX: 5, NY: 5, NZ: 5}, 8)
	tree := BuildFrontTree(prob.A, 16)
	if err := tree.Validate(); err != nil {
		t.Fatal(err)
	}
	want := cholReference(t, prob.A)
	for _, P := range []int{1, 3, 8} {
		plan := NewCholPlan(prob.A, tree, P)
		results := make([]CholResult, P)
		var snap obs.Snapshot
		cfg := upcxx.Config{Ranks: P, Stats: true, DMA: &gasnet.PCIeDMA{GDR: true}}
		upcxx.RunConfig(cfg, func(rk *upcxx.Rank) {
			results[rk.Me()] = CholV1Device(rk, plan)
			rk.Barrier()
			if rk.Me() == 0 {
				snap = rk.World().StatsMerged()
			}
		})
		checkL(t, prob.A.N, want, results)
		if snap.Counters[obs.DMAD2DBounced.Descriptors()] != 0 {
			t.Fatalf("P=%d: %d bounced d2d descriptors on a GPUDirect world",
				P, snap.Counters[obs.DMAD2DBounced.Descriptors()])
		}
		if snap.Counters[obs.DMAD2DDirect.Descriptors()] == 0 {
			t.Fatalf("P=%d: no direct d2d descriptors — CB pushes left the device path", P)
		}
	}
}

// TestCholV1DeviceBouncedWorld: the same factorization on a non-GDR
// engine is numerically identical but routes every cross-rank CB push
// through the bounce path — the capability bit alone decides the chain.
func TestCholV1DeviceBouncedWorld(t *testing.T) {
	prob := matgen.Generate("chol-dev-b", matgen.Grid3D{NX: 4, NY: 4, NZ: 4}, 8)
	tree := BuildFrontTree(prob.A, 16)
	want := cholReference(t, prob.A)
	const P = 4
	plan := NewCholPlan(prob.A, tree, P)
	results := make([]CholResult, P)
	var snap obs.Snapshot
	upcxx.RunConfig(upcxx.Config{Ranks: P, Stats: true}, func(rk *upcxx.Rank) {
		results[rk.Me()] = CholV1Device(rk, plan)
		rk.Barrier()
		if rk.Me() == 0 {
			snap = rk.World().StatsMerged()
		}
	})
	checkL(t, prob.A.N, want, results)
	if snap.Counters[obs.DMAD2DBounced.Descriptors()] == 0 {
		t.Fatal("no bounced d2d descriptors — expected cross-rank CB pushes to stage")
	}
}
