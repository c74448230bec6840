package sparse

import (
	"math/rand"
	"testing"
	"testing/quick"

	"upcxx"
	"upcxx/internal/matgen"
)

func TestSolveEndToEnd(t *testing.T) {
	// Factor distributedly, gather L, solve, check the residual — the
	// full solver pipeline on top of the motifs the paper benchmarks.
	prob := matgen.Generate("solve", matgen.Grid3D{NX: 6, NY: 6, NZ: 6}, 8)
	tree := Amalgamate(BuildFrontTree(prob.A, 0), 0.3)
	const P = 5
	plan := NewCholPlan(prob.A, tree, P)
	results := make([]CholResult, P)
	upcxx.Run(P, func(rk *upcxx.Rank) {
		results[rk.Me()] = CholV1(rk, plan)
	})
	l, err := AssembleL(prob.A.N, results)
	if err != nil {
		t.Fatal(err)
	}
	if l.NNZ() < prob.A.NNZ() {
		t.Fatalf("factor has fewer entries (%d) than the matrix (%d)", l.NNZ(), prob.A.NNZ())
	}
	rng := rand.New(rand.NewSource(1))
	b := make([]float64, prob.A.N)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	x := l.Solve(b)
	if res := Residual(prob.A, x, b); res > 1e-10 {
		t.Fatalf("residual = %g", res)
	}
}

func TestSolveIdentityLike(t *testing.T) {
	// Diagonal matrix: solve is exact division.
	a := &matgen.SymCSC{N: 3, ColPtr: []int64{0, 1, 2, 3},
		RowInd: []int32{0, 1, 2}, Val: []float64{4, 9, 16}}
	tree := BuildFrontTree(a, 0)
	plan := NewCholPlan(a, tree, 1)
	var results []CholResult
	upcxx.Run(1, func(rk *upcxx.Rank) {
		results = []CholResult{CholV1(rk, plan)}
	})
	l, err := AssembleL(3, results)
	if err != nil {
		t.Fatal(err)
	}
	x := l.Solve([]float64{4, 18, 48})
	want := []float64{1, 2, 3}
	for i := range want {
		if diff := x[i] - want[i]; diff > 1e-12 || diff < -1e-12 {
			t.Fatalf("x = %v", x)
		}
	}
}

// Property: random grids and process counts produce factors whose solves
// leave tiny residuals.
func TestQuickSolveResidual(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := matgen.Grid3D{NX: 2 + rng.Intn(4), NY: 2 + rng.Intn(4), NZ: 2 + rng.Intn(3)}
		prob := matgen.Generate("qs", g, 1+rng.Intn(10))
		tree := Amalgamate(BuildFrontTree(prob.A, 0), 0.3)
		p := 1 + rng.Intn(4)
		plan := NewCholPlan(prob.A, tree, p)
		results := make([]CholResult, p)
		upcxx.Run(p, func(rk *upcxx.Rank) {
			results[rk.Me()] = CholV1(rk, plan)
		})
		l, err := AssembleL(prob.A.N, results)
		if err != nil {
			return false
		}
		b := make([]float64, prob.A.N)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		return Residual(prob.A, l.Solve(b), b) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}
