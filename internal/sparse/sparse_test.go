package sparse

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"upcxx"
	"upcxx/internal/matgen"
	"upcxx/internal/mpi"
)

func testProblem() *matgen.Problem {
	return matgen.Generate("test", matgen.Grid3D{NX: 6, NY: 6, NZ: 6}, 8)
}

func TestETreeProperties(t *testing.T) {
	p := testProblem()
	parent := ETree(p.A)
	n := p.A.N
	roots := 0
	for j := 0; j < n; j++ {
		if parent[j] == -1 {
			roots++
			continue
		}
		if int(parent[j]) <= j {
			t.Fatalf("parent[%d] = %d not greater than child", j, parent[j])
		}
	}
	if roots < 1 {
		t.Fatal("no roots")
	}
	// The etree parent must equal the first sub-diagonal pattern row.
	pat := colPatterns(p.A)
	for j := 0; j < n; j++ {
		if len(pat[j]) == 0 {
			if parent[j] != -1 {
				t.Fatalf("col %d: empty pattern but parent %d", j, parent[j])
			}
			continue
		}
		if parent[j] != pat[j][0] {
			t.Fatalf("col %d: etree parent %d != first pattern row %d", j, parent[j], pat[j][0])
		}
	}
}

func TestFrontTreeValidate(t *testing.T) {
	p := testProblem()
	for _, maxW := range []int{1, 4, 16, 0} {
		tree := BuildFrontTree(p.A, maxW)
		if err := tree.Validate(); err != nil {
			t.Fatalf("maxWidth %d: %v", maxW, err)
		}
		if maxW == 1 && len(tree.Fronts) != p.A.N {
			t.Errorf("width-1 fronts: %d fronts for %d columns", len(tree.Fronts), p.A.N)
		}
	}
}

func TestFrontTreeCoversMatrix(t *testing.T) {
	p := testProblem()
	tree := BuildFrontTree(p.A, 32)
	// Every sub-diagonal A entry must fall inside its column's front.
	for j := 0; j < p.A.N; j++ {
		f := &tree.Fronts[tree.ColFront[j]]
		rows, _ := p.A.Col(j)
		for _, r := range rows {
			if LocalIndex(f.Rows, r) < 0 {
				t.Fatalf("A entry (%d,%d) outside front %d", r, j, f.ID)
			}
		}
	}
}

func TestProportionalMapping(t *testing.T) {
	p := testProblem()
	tree := BuildFrontTree(p.A, 16)
	for _, P := range []int{1, 2, 3, 7, 16, 64} {
		m := ProportionalMap(tree, P)
		for i := range tree.Fronts {
			lo, hi := m.Range(i)
			if lo < 0 || hi > int32(P) || lo >= hi {
				t.Fatalf("P=%d front %d: bad range [%d,%d)", P, i, lo, hi)
			}
			// A child's range must nest within its parent's.
			if pf := tree.Fronts[i].Parent; pf >= 0 {
				plo, phi := m.Range(pf)
				if lo < plo || hi > phi {
					t.Fatalf("P=%d front %d range [%d,%d) outside parent [%d,%d)",
						P, i, lo, hi, plo, phi)
				}
			}
		}
		// Roots jointly cover all processes.
		covered := make([]bool, P)
		for _, r := range tree.Roots {
			lo, hi := m.Range(r)
			for q := lo; q < hi; q++ {
				covered[q] = true
			}
		}
		for q, ok := range covered {
			if !ok {
				t.Fatalf("P=%d process %d not covered by any root", P, q)
			}
		}
	}
}

func TestLayoutBlockCyclic(t *testing.T) {
	l := NewLayout(4, 10, 8) // 6 procs -> 2x3 grid, the paper's Fig 5 shape
	if l.PR != 2 || l.PC != 3 {
		t.Fatalf("grid = %dx%d", l.PR, l.PC)
	}
	seen := map[int32]bool{}
	for i := 0; i < 64; i++ {
		for j := 0; j < 64; j++ {
			o := l.Owner(i, j)
			if o < 4 || o >= 10 {
				t.Fatalf("owner(%d,%d) = %d out of range", i, j, o)
			}
			seen[o] = true
			// Same block, same owner.
			if o2 := l.Owner(i-i%8, j-j%8); o2 != o {
				t.Fatalf("block ownership inconsistent at (%d,%d)", i, j)
			}
		}
	}
	if len(seen) != 6 {
		t.Fatalf("only %d owners used", len(seen))
	}
}

func TestEAddPlanAccounting(t *testing.T) {
	p := testProblem()
	tree := BuildFrontTree(p.A, 16)
	plan := NewEAddPlan(tree, 6, 4)
	// Sum of per-rank incoming equals total message count.
	totalMsgs := 0
	for _, m := range plan.Msgs {
		totalMsgs += len(m)
	}
	gotIncoming := 0
	for _, c := range plan.Incoming {
		gotIncoming += c
	}
	if gotIncoming != totalMsgs {
		t.Fatalf("incoming sum %d != message count %d", gotIncoming, totalMsgs)
	}
	// Entry conservation: per-child counts sum to the CB triangle sizes.
	wantEntries := 0
	for i := range tree.Fronts {
		if tree.Fronts[i].Parent < 0 {
			continue
		}
		cb := tree.Fronts[i].CBSize()
		wantEntries += cb * (cb + 1) / 2
	}
	if plan.TotalEntries != wantEntries {
		t.Fatalf("plan entries %d != CB triangles %d", plan.TotalEntries, wantEntries)
	}
}

// runEAddVariants executes all three variants at the given process count
// and checks each against the serial reference.
func runEAddVariants(t *testing.T, P int) {
	t.Helper()
	prob := testProblem()
	tree := BuildFrontTree(prob.A, 16)
	plan := NewEAddPlan(tree, P, 4)
	want := EAddSerial(plan)

	// UPC++ variant.
	stores := make([]*AccumStore, P)
	upcxx.Run(P, func(rk *upcxx.Rank) {
		st, _ := EAddUPCXX(rk, plan)
		stores[rk.Me()] = st
	})
	got := NewAccumStore()
	for _, s := range stores {
		got.Merge(s)
	}
	if err := want.Equal(got, 1e-9); err != nil {
		t.Fatalf("P=%d upcxx: %v", P, err)
	}

	// MPI variants.
	for name, run := range map[string]func(*mpi.Proc, *EAddPlan) (*AccumStore, float64){
		"alltoallv": func(p *mpi.Proc, pl *EAddPlan) (*AccumStore, float64) {
			s, d := EAddMPIAlltoallv(p, pl)
			return s, d.Seconds()
		},
		"p2p": func(p *mpi.Proc, pl *EAddPlan) (*AccumStore, float64) {
			s, d := EAddMPIP2P(p, pl)
			return s, d.Seconds()
		},
	} {
		stores := make([]*AccumStore, P)
		mpi.Run(P, func(p *mpi.Proc) {
			st, _ := run(p, plan)
			stores[p.Rank()] = st
		})
		got := NewAccumStore()
		for _, s := range stores {
			got.Merge(s)
		}
		if err := want.Equal(got, 1e-9); err != nil {
			t.Fatalf("P=%d %s: %v", P, name, err)
		}
	}
}

func TestEAddVariantsEquivalence(t *testing.T) {
	for _, P := range []int{1, 2, 6} {
		runEAddVariants(t, P)
	}
}

func TestEAddVariantsEquivalenceLargerP(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	runEAddVariants(t, 16)
}

func cholReference(t *testing.T, a *matgen.SymCSC) []float64 {
	t.Helper()
	dense := a.Dense()
	if err := DenseCholesky(dense, a.N); err != nil {
		t.Fatal(err)
	}
	return dense
}

func checkL(t *testing.T, n int, want []float64, results []CholResult) {
	t.Helper()
	got := make([]float64, n*n)
	for _, res := range results {
		for _, tr := range res.L {
			got[int(tr[0])*n+int(tr[1])] = tr[2]
		}
	}
	bad := 0
	for i := range want {
		if math.Abs(want[i]-got[i]) > 1e-8*(1+math.Abs(want[i])) {
			bad++
			if bad < 5 {
				t.Errorf("L[%d,%d] = %g, want %g", i/n, i%n, got[i], want[i])
			}
		}
	}
	if bad > 0 {
		t.Fatalf("%d mismatched L entries", bad)
	}
}

func TestCholV1MatchesDense(t *testing.T) {
	prob := matgen.Generate("chol", matgen.Grid3D{NX: 5, NY: 5, NZ: 5}, 8)
	tree := BuildFrontTree(prob.A, 16)
	if err := tree.Validate(); err != nil {
		t.Fatal(err)
	}
	want := cholReference(t, prob.A)
	for _, P := range []int{1, 3, 8} {
		plan := NewCholPlan(prob.A, tree, P)
		results := make([]CholResult, P)
		upcxx.Run(P, func(rk *upcxx.Rank) {
			results[rk.Me()] = CholV1(rk, plan)
		})
		checkL(t, prob.A.N, want, results)
	}
}

func TestCholV01MatchesDense(t *testing.T) {
	prob := matgen.Generate("chol01", matgen.Grid3D{NX: 5, NY: 5, NZ: 5}, 8)
	tree := BuildFrontTree(prob.A, 16)
	want := cholReference(t, prob.A)
	for _, P := range []int{1, 4} {
		plan := NewCholPlan(prob.A, tree, P)
		results := make([]CholResult, P)
		upcxx.Run(P, func(rk *upcxx.Rank) {
			results[rk.Me()] = CholV01(rk, plan)
		})
		checkL(t, prob.A.N, want, results)
	}
}

func TestDenseCholeskySmall(t *testing.T) {
	// 2x2: [[4,2],[2,5]] -> L = [[2,0],[1,2]].
	a := []float64{4, 2, 2, 5}
	if err := DenseCholesky(a, 2); err != nil {
		t.Fatal(err)
	}
	want := []float64{2, 0, 1, 2}
	for i := range want {
		if math.Abs(a[i]-want[i]) > 1e-12 {
			t.Fatalf("L = %v, want %v", a, want)
		}
	}
	// Indefinite matrix must fail.
	b := []float64{1, 2, 2, 1}
	if err := DenseCholesky(b, 2); err == nil {
		t.Fatal("indefinite matrix should fail")
	}
}

// Property: random grid shapes produce valid front trees whose eadd plans
// conserve entries at any process count.
func TestQuickFrontTreeInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := matgen.Grid3D{NX: 2 + rng.Intn(5), NY: 2 + rng.Intn(5), NZ: 2 + rng.Intn(4)}
		prob := matgen.Generate("q", g, 1+rng.Intn(16))
		tree := BuildFrontTree(prob.A, 1+rng.Intn(20))
		if err := tree.Validate(); err != nil {
			t.Logf("grid %+v: %v", g, err)
			return false
		}
		P := 1 + rng.Intn(9)
		plan := NewEAddPlan(tree, P, 1+rng.Intn(6))
		want := 0
		for i := range tree.Fronts {
			if tree.Fronts[i].Parent < 0 {
				continue
			}
			cb := tree.Fronts[i].CBSize()
			want += cb * (cb + 1) / 2
		}
		return plan.TotalEntries == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Property: mini-symPACK matches the dense factor on random small grids.
func TestQuickCholCorrect(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := matgen.Grid3D{NX: 2 + rng.Intn(3), NY: 2 + rng.Intn(3), NZ: 2 + rng.Intn(3)}
		prob := matgen.Generate("qc", g, 1+rng.Intn(8))
		tree := BuildFrontTree(prob.A, 1+rng.Intn(8))
		dense := prob.A.Dense()
		if err := DenseCholesky(dense, prob.A.N); err != nil {
			return false
		}
		P := 1 + rng.Intn(4)
		plan := NewCholPlan(prob.A, tree, P)
		results := make([]CholResult, P)
		upcxx.Run(P, func(rk *upcxx.Rank) {
			results[rk.Me()] = CholV1(rk, plan)
		})
		n := prob.A.N
		got := make([]float64, n*n)
		for _, res := range results {
			for _, tr := range res.L {
				got[int(tr[0])*n+int(tr[1])] = tr[2]
			}
		}
		for i := range dense {
			if math.Abs(dense[i]-got[i]) > 1e-8*(1+math.Abs(dense[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func TestLocalIndex(t *testing.T) {
	rows := []int32{2, 5, 9, 14}
	cases := map[int32]int{2: 0, 5: 1, 9: 2, 14: 3, 0: -1, 7: -1, 99: -1}
	for v, want := range cases {
		if got := LocalIndex(rows, v); got != want {
			t.Errorf("LocalIndex(%d) = %d, want %d", v, got, want)
		}
	}
	// Against sort.SearchInts semantics on a larger random case.
	big := make([]int32, 100)
	for i := range big {
		big[i] = int32(i * 3)
	}
	for v := int32(0); v < 300; v++ {
		want := -1
		if v%3 == 0 {
			want = int(v / 3)
		}
		if got := LocalIndex(big, v); got != want {
			t.Fatalf("LocalIndex(%d) = %d, want %d", v, got, want)
		}
	}
	sort.SliceIsSorted(big, func(i, j int) bool { return big[i] < big[j] })
}
