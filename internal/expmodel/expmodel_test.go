package expmodel

import (
	"fmt"
	"testing"

	"upcxx/internal/matgen"
	"upcxx/internal/sparse"
)

// These tests assert the *shape* claims of the paper's figures against
// the models — who wins, by roughly what factor, where the crossovers
// fall — which is the reproduction contract for experiments that need
// hardware we must simulate (see EXPERIMENTS.md).

func TestFig3aLatencyShape(t *testing.T) {
	m := Haswell()
	// UPC++ must win at every size (the paper's blanket claim: advantage
	// present through at least 4MB).
	for _, n := range Fig3Sizes() {
		up, mp := m.UPCXXPutLatency(n), m.MPIPutLatency(n)
		if mp <= up {
			t.Errorf("size %d: MPI latency %.3gus <= UPC++ %.3gus", n, mp*1e6, up*1e6)
		}
	}
	// Under 256 B: modest advantage (paper: >5% on average).
	small := 0.0
	count := 0
	for n := 8; n < 256; n *= 2 {
		small += m.MPIPutLatency(n)/m.UPCXXPutLatency(n) - 1
		count++
	}
	if avg := small / float64(count); avg < 0.05 || avg > 0.20 {
		t.Errorf("sub-256B average advantage = %.1f%%, want ~5-20%%", avg*100)
	}
	// 256 B - 1 KB: large advantage (paper: >25% on average).
	mid := 0.0
	count = 0
	for _, n := range []int{256, 512, 1024} {
		mid += m.MPIPutLatency(n)/m.UPCXXPutLatency(n) - 1
		count++
	}
	if avg := mid / float64(count); avg < 0.25 {
		t.Errorf("256B-1KB average advantage = %.1f%%, want >25%%", avg*100)
	}
	// At 4MB the absolute advantage persists but is relatively small.
	if ratio := m.MPIPutLatency(4<<20) / m.UPCXXPutLatency(4<<20); ratio > 1.10 {
		t.Errorf("4MB ratio = %.3f, wire time should dominate", ratio)
	}
}

func TestFig3bBandwidthShape(t *testing.T) {
	m := Haswell()
	// Comparable at small sizes (within ~20%).
	for _, n := range []int{8, 64, 512} {
		r := m.UPCXXFloodBW(n) / m.MPIFloodBW(n)
		if r < 0.95 || r > 1.25 {
			t.Errorf("size %d: bw ratio %.2f, want near parity", n, r)
		}
	}
	// Mid-size dip: UPC++ delivers >25% more at 8KB (paper: over 33%).
	if r := m.UPCXXFloodBW(8<<10) / m.MPIFloodBW(8<<10); r < 1.25 {
		t.Errorf("8KB bw ratio = %.2f, want > 1.25", r)
	}
	// The dip is the maximum gap in the 1KB-256KB band.
	peak := 0.0
	peakAt := 0
	for _, n := range Fig3Sizes() {
		r := m.UPCXXFloodBW(n) / m.MPIFloodBW(n)
		if r > peak {
			peak, peakAt = r, n
		}
	}
	if peakAt < 1<<10 || peakAt > 256<<10 {
		t.Errorf("peak gap at %d bytes, want within 1KB-256KB", peakAt)
	}
	// Converged again at 1MB+ (within 5%).
	for _, n := range []int{1 << 20, 4 << 20} {
		r := m.UPCXXFloodBW(n) / m.MPIFloodBW(n)
		if r > 1.05 {
			t.Errorf("size %d: bw ratio %.3f, want converged", n, r)
		}
	}
}

func TestFig4WeakScalingShape(t *testing.T) {
	m := Haswell()
	const elem = 1 << 10
	const inserts = 150
	rate := map[int]float64{}
	for _, p := range []int{1, 2, 4, 8, 16, 64, 256, 1024} {
		res := SimulateDHT(DHTConfig{M: m, P: p, ElemSize: elem, InsertsPerRank: inserts, Seed: 42})
		rate[p] = res.Aggregate
		if res.Aggregate <= 0 {
			t.Fatalf("P=%d: non-positive rate", p)
		}
	}
	// Initial drop from serial to parallel (paper: "as expected, an
	// initial decline from one to two processes").
	if rate[2] >= rate[1] {
		t.Errorf("no 1->2 drop: %.3g -> %.3g inserts/s", rate[1], rate[2])
	}
	// Within and just past a node (P <= 64) the shared-memory fast path
	// still lifts the average (the paper marks the node boundary with a
	// dotted line); by P=256 the inter-node mix dominates, and from there
	// weak scaling must be near-linear: allow 10% per-process degradation
	// across a further 4x scale-up.
	perProc256 := rate[256] / 256
	perProc1024 := rate[1024] / 1024
	if perProc1024 < 0.90*perProc256 {
		t.Errorf("weak scaling broke: %.3g -> %.3g inserts/s/proc", perProc256, perProc1024)
	}
	// Aggregate grows near-linearly past the node boundary.
	if rate[1024] < 3.6*rate[256] {
		t.Errorf("aggregate at 1024 procs only %.2fx of 256-proc rate", rate[1024]/rate[256])
	}
}

func TestFig4KNLSlower(t *testing.T) {
	h := SimulateDHT(DHTConfig{M: Haswell(), P: 16, ElemSize: 4096, InsertsPerRank: 100, Seed: 1})
	k := SimulateDHT(DHTConfig{M: KNL(), P: 16, ElemSize: 4096, InsertsPerRank: 100, Seed: 1})
	if k.Aggregate >= h.Aggregate {
		t.Errorf("KNL (%.3g/s) should be slower than Haswell (%.3g/s)", k.Aggregate, h.Aggregate)
	}
}

var fig8TreeCache *sparse.FrontTree

func fig8Plan(t *testing.T, p int) *sparse.EAddPlan {
	t.Helper()
	if fig8TreeCache == nil {
		prob := matgen.Generate("fig8test", matgen.Grid3D{NX: 24, NY: 24, NZ: 24}, 32)
		tree := sparse.Amalgamate(sparse.BuildFrontTree(prob.A, 0), 0.3)
		if err := tree.Validate(); err != nil {
			t.Fatal(err)
		}
		fig8TreeCache = tree
	}
	return sparse.NewEAddPlan(fig8TreeCache, p, 16)
}

func TestFig8OrderingAtScale(t *testing.T) {
	m := Haswell()
	for _, p := range []int{64, 256} {
		plan := fig8Plan(t, p)
		up := SimulateEAddUPCXX(m, plan)
		a2a := SimulateEAddA2A(m, plan)
		p2p := SimulateEAddP2P(m, plan)
		if up <= 0 || a2a <= 0 || p2p <= 0 {
			t.Fatalf("P=%d: non-positive time (%g %g %g)", p, up, a2a, p2p)
		}
		// The paper's ordering at scale: UPC++ < Alltoallv < P2P.
		if up >= a2a {
			t.Errorf("P=%d: UPC++ %.4gs not faster than Alltoallv %.4gs", p, up, a2a)
		}
		if a2a >= p2p {
			t.Errorf("P=%d: Alltoallv %.4gs not faster than P2P %.4gs", p, a2a, p2p)
		}
	}
}

func TestFig8StrongScalingImproves(t *testing.T) {
	m := Haswell()
	t1 := SimulateEAddUPCXX(m, fig8Plan(t, 1))
	t64 := SimulateEAddUPCXX(m, fig8Plan(t, 64))
	if t64 >= t1 {
		t.Errorf("no strong scaling: P=1 %.4gs, P=64 %.4gs", t1, t64)
	}
}

func TestFig9NearIdentical(t *testing.T) {
	m := Haswell()
	prob := matgen.Generate("fig9test", matgen.Grid3D{NX: 12, NY: 12, NZ: 12}, 16)
	tree := sparse.Amalgamate(sparse.BuildFrontTree(prob.A, 0), 0.3)
	worst := 0.0
	for _, p := range []int{4, 16, 64, 256} {
		v1 := SimulateSymPACK(m, tree, p, V1)
		v01 := SimulateSymPACK(m, tree, p, V01)
		if v1 <= 0 || v01 <= 0 {
			t.Fatalf("P=%d: non-positive times", p)
		}
		diff := v01/v1 - 1
		if diff < -0.02 {
			t.Errorf("P=%d: v0.1 (%.4gs) notably faster than v1.0 (%.4gs)", p, v01, v1)
		}
		if diff > worst {
			worst = diff
		}
	}
	// Paper: performance nearly identical; v1.0 ahead by at most ~7.2%.
	if worst > 0.15 {
		t.Errorf("worst v0.1 penalty %.1f%%, want < 15%%", worst*100)
	}
}

func TestProcessCountHelpers(t *testing.T) {
	pc := Fig4ProcessCounts(34816)
	if pc[0] != 1 || pc[len(pc)-1] != 34816 {
		t.Errorf("Fig4ProcessCounts = %v", pc)
	}
	if got := Fig8ProcessCounts(); got[len(got)-1] != 2048 {
		t.Errorf("Fig8ProcessCounts = %v", got)
	}
	if got := Fig9ProcessCounts(); got[len(got)-1] != 1024 {
		t.Errorf("Fig9ProcessCounts = %v", got)
	}
}

// TestGoldenMakespans pins exact makespans of a few small Fig 4, 8 and 9
// points, so a change to the event queue or the channel bookings the models
// run on that moves any event shows up as a changed number.
func TestGoldenMakespans(t *testing.T) {
	check := func(what string, got, want float64) {
		t.Helper()
		if got != want {
			t.Errorf("%s = %v, want exactly %v", what, got, want)
		}
	}
	check("fig4 Haswell P=16", SimulateDHT(DHTConfig{M: Haswell(), P: 16, ElemSize: 8, InsertsPerRank: 20, Seed: 42}).Makespan, 4.929399999999991e-05)
	check("fig4 KNL P=64", SimulateDHT(DHTConfig{M: KNL(), P: 64, ElemSize: 4096, InsertsPerRank: 10, Seed: 1}).Makespan, 6.778400000000003e-05)

	prob := matgen.Generate("golden", matgen.Grid3D{NX: 12, NY: 12, NZ: 12}, 16)
	tree := sparse.Amalgamate(sparse.BuildFrontTree(prob.A, 0), 0.3)
	m := Haswell()
	for _, c := range []struct {
		p             int
		upc, a2a, p2p float64
	}{
		{4, 0.00035014600000000007, 0.000374413, 0.000374199},
		{32, 5.6585000000000035e-05, 0.00011729399999999998, 0.00010569599999999999},
	} {
		plan := sparse.NewEAddPlan(tree, c.p, 16)
		check(fmt.Sprintf("fig8 UPC++ P=%d", c.p), SimulateEAddUPCXX(m, plan), c.upc)
		check(fmt.Sprintf("fig8 A2A P=%d", c.p), SimulateEAddA2A(m, plan), c.a2a)
		check(fmt.Sprintf("fig8 P2P P=%d", c.p), SimulateEAddP2P(m, plan), c.p2p)
	}
	for _, c := range []struct {
		p       int
		v1, v01 float64
	}{
		{4, 0.001212871152751423, 0.0012306389027514242},
		{16, 0.00037908971431419464, 0.00038274971431419464},
	} {
		check(fmt.Sprintf("fig9 v1.0 P=%d", c.p), SimulateSymPACK(m, tree, c.p, V1), c.v1)
		check(fmt.Sprintf("fig9 v0.1 P=%d", c.p), SimulateSymPACK(m, tree, c.p, V01), c.v01)
	}
}

// TestFig8A2ADeterministic requires the Alltoallv model to be a function of
// its plan alone: it sums floats per rank, so the order it walks parents and
// sender/receiver pairs in must not follow map iteration.
func TestFig8A2ADeterministic(t *testing.T) {
	prob := matgen.Generate("golden", matgen.Grid3D{NX: 12, NY: 12, NZ: 12}, 16)
	tree := sparse.Amalgamate(sparse.BuildFrontTree(prob.A, 0), 0.3)
	m := Haswell()
	for _, p := range []int{4, 32} {
		plan := sparse.NewEAddPlan(tree, p, 16)
		want := SimulateEAddA2A(m, plan)
		for i := 1; i < 20; i++ {
			if got := SimulateEAddA2A(m, plan); got != want {
				t.Fatalf("P=%d: call %d = %v, call 0 = %v", p, i, got, want)
			}
		}
	}
}
