package sparse

import (
	"fmt"
	"math"
	"time"

	"upcxx"
	"upcxx/internal/matgen"
	"upcxx/internal/upcxx01"
)

// Mini-symPACK (paper §IV-D4, Fig 9): a distributed multifrontal Cholesky
// factorization of a sparse SPD matrix, implemented twice over the same
// numeric kernels — once against the UPC++ v1.0 API (RPC + futures +
// promises) and once against the predecessor v0.1 API (asyncs + events) —
// to reproduce the paper's finding that the redesigned runtime adds no
// measurable overhead.
//
// Fronts are mapped one-owner-per-front by proportional mapping (1D);
// each owner assembles its fronts from the original matrix, waits for its
// children's contribution blocks, factors the dense front, and ships its
// own contribution block to the parent's owner.

// CholPlan is the structural plan of one factorization, shared read-only.
type CholPlan struct {
	A   *matgen.SymCSC
	T   *FrontTree
	Map *Mapping
	P   int
}

// NewCholPlan builds the plan over P processes.
func NewCholPlan(a *matgen.SymCSC, t *FrontTree, p int) *CholPlan {
	return &CholPlan{A: a, T: t, Map: ProportionalMap(t, p), P: p}
}

// denseFront is the dense working storage of one frontal matrix
// (dim x dim row-major; only the lower triangle is meaningful).
type denseFront struct {
	id   int
	dim  int
	w    int
	data []float64
}

func newDenseFront(t *FrontTree, id int) *denseFront {
	f := &t.Fronts[id]
	dim := len(f.Rows)
	return &denseFront{id: id, dim: dim, w: f.Width, data: make([]float64, dim*dim)}
}

// assemble adds the original matrix's panel columns into the front.
func (df *denseFront) assemble(a *matgen.SymCSC, f *Front) {
	for c := 0; c < f.Width; c++ {
		gc := f.Start + c
		rows, vals := a.Col(gc)
		for k, r := range rows {
			li := LocalIndex(f.Rows, r)
			if li < 0 {
				panic(fmt.Sprintf("sparse: A entry (%d,%d) outside front %d", r, gc, f.ID))
			}
			df.data[li*df.dim+c] += vals[k]
		}
	}
}

// factor eliminates the panel columns (dense right-looking Cholesky on
// the lower triangle), leaving the contribution block in the trailing
// (dim-w) x (dim-w) corner.
func (df *denseFront) factor() error {
	n, w, a := df.dim, df.w, df.data
	for k := 0; k < w; k++ {
		d := a[k*n+k]
		if d <= 0 {
			return fmt.Errorf("sparse: front %d not positive definite at panel column %d (pivot %g)",
				df.id, k, d)
		}
		p := math.Sqrt(d)
		a[k*n+k] = p
		for i := k + 1; i < n; i++ {
			a[i*n+k] /= p
		}
		for j := k + 1; j < n; j++ {
			ljk := a[j*n+k]
			if ljk == 0 {
				continue
			}
			for i := j; i < n; i++ {
				a[i*n+j] -= a[i*n+k] * ljk
			}
		}
	}
	return nil
}

// cbPacked extracts the contribution block's lower triangle, row-major.
func (df *denseFront) cbPacked() []float64 {
	n, w := df.dim, df.w
	cb := make([]float64, 0, (n-w)*(n-w+1)/2)
	for i := w; i < n; i++ {
		for j := w; j <= i; j++ {
			cb = append(cb, df.data[i*df.dim+j])
		}
	}
	return cb
}

// extendAdd folds a child's packed contribution block into this front
// (the numeric e_add of Fig 5's red arrows).
func (df *denseFront) extendAdd(front *Front, childRows []int32, cb []float64) {
	k := 0
	loc := make([]int, len(childRows))
	for i, gr := range childRows {
		li := LocalIndex(front.Rows, gr)
		if li < 0 {
			panic(fmt.Sprintf("sparse: extend-add row %d missing from front %d", gr, front.ID))
		}
		loc[i] = li
	}
	for i := range childRows {
		for j := 0; j <= i; j++ {
			df.data[loc[i]*df.dim+loc[j]] += cb[k]
			k++
		}
	}
}

// panelL extracts the front's computed L columns as (global row, global
// col, value) triples.
func (df *denseFront) panelL(f *Front) [][3]float64 {
	var out [][3]float64
	for c := 0; c < df.w; c++ {
		for li := c; li < df.dim; li++ {
			v := df.data[li*df.dim+c]
			if v != 0 {
				out = append(out, [3]float64{float64(f.Rows[li]), float64(f.Start + c), v})
			}
		}
	}
	return out
}

// CholResult is one rank's output: its fronts' L panels and timing.
type CholResult struct {
	Elapsed time.Duration
	// L triples (row, col, value) for the columns this rank eliminated.
	L [][3]float64
}

// cholState is the per-rank distributed object shared by incoming RPCs.
type cholState struct {
	plan    *CholPlan
	fronts  map[int]*denseFront
	pending map[int]*upcxx.Promise[upcxx.Unit] // v1.0 child-arrival counters
	remain  map[int]int                        // v0.1 child-arrival counters
}

func newCholState(plan *CholPlan, me int32) *cholState {
	st := &cholState{
		plan:    plan,
		fronts:  make(map[int]*denseFront),
		pending: make(map[int]*upcxx.Promise[upcxx.Unit]),
		remain:  make(map[int]int),
	}
	for i := range plan.T.Fronts {
		if plan.Map.Owner(i) != me {
			continue
		}
		df := newDenseFront(plan.T, i)
		df.assemble(plan.A, &plan.T.Fronts[i])
		st.fronts[i] = df
		st.remain[i] = len(plan.T.Fronts[i].Children)
	}
	return st
}

type cbArgs struct {
	ID     upcxx.DistID
	Parent int64
	Rows   upcxx.View[int32]
	CB     upcxx.View[float64]
}

// Registered by name so contribution blocks can land in sibling rank
// processes under a real transport conduit.
func init() { upcxx.RegisterRPC(cholAccumRPC) }

// cholAccumRPC lands a child's contribution block at the parent's owner.
func cholAccumRPC(trk *upcxx.Rank, a cbArgs) upcxx.Unit {
	obj, ok := upcxx.LookupDist[*cholState](trk, a.ID)
	if !ok {
		panic(fmt.Sprintf("sparse: rank %d missing chol state", trk.Me()))
	}
	st := *obj.Value()
	pf := int(a.Parent)
	df := st.fronts[pf]
	df.extendAdd(&st.plan.T.Fronts[pf], a.Rows.Elements(), a.CB.Elements())
	st.remain[pf]--
	if p, ok := st.pending[pf]; ok {
		p.FulfillAnonymous(1)
	}
	return upcxx.Unit{}
}

// CholV1 runs the factorization against the v1.0 API: per-front counting
// promises gate factorization tasks chained with futures; contribution
// blocks travel as RPC views; completion is a conjunction of all local
// futures.
func CholV1(rk *upcxx.Rank, plan *CholPlan) CholResult {
	me := rk.Me()
	st := newCholState(plan, me)
	obj := upcxx.NewDistObject(rk, st)
	id := obj.ID()
	// One promise per owned front, counting its children.
	order := ownedAscending(plan, me)
	for _, i := range order {
		p := upcxx.NewPromise[upcxx.Unit](rk)
		p.RequireAnonymous(len(plan.T.Fronts[i].Children))
		st.pending[i] = p
	}
	rk.Barrier()

	start := time.Now()
	conj := upcxx.EmptyFuture(rk)
	for _, i := range order {
		i := i
		ready := st.pending[i].Finalize()
		done := upcxx.ThenFut(ready, func(upcxx.Unit) upcxx.Future[upcxx.Unit] {
			df := st.fronts[i]
			if err := df.factor(); err != nil {
				panic(err)
			}
			f := &plan.T.Fronts[i]
			if f.Parent < 0 || df.dim == df.w {
				return upcxx.EmptyFuture(rk)
			}
			owner := plan.Map.Owner(f.Parent)
			args := cbArgs{
				ID:     id,
				Parent: int64(f.Parent),
				Rows:   upcxx.MakeView(f.CBRows()),
				CB:     upcxx.MakeView(df.cbPacked()),
			}
			return upcxx.ThenDo(upcxx.RPC(rk, owner, cholAccumRPC, args), func(upcxx.Unit) {})
		})
		conj = upcxx.WhenAll(rk, conj, done)
	}
	conj.Wait()
	elapsed := time.Since(start)
	rk.Barrier()
	return CholResult{Elapsed: elapsed, L: collectL(plan, st)}
}

// CholV01 runs the same factorization against the v0.1 API: explicit
// events, in-order waiting on child counters, async() task shipping — the
// scheduling style of the original symPACK (paper §IV-D4).
func CholV01(rk *upcxx.Rank, plan *CholPlan) CholResult {
	rt := upcxx01.Wrap(rk)
	me := rk.Me()
	st := newCholState(plan, me)
	obj := upcxx.NewDistObject(rk, st)
	id := obj.ID()
	rt.Barrier()

	start := time.Now()
	sendEvt := upcxx01.NewEvent(rt)
	for _, i := range ownedAscending(plan, me) {
		// v0.1 style: spin on the arrival counter (events carry no
		// values, so the counter lives beside them), then factor.
		for st.remain[i] > 0 {
			rt.Advance()
		}
		df := st.fronts[i]
		if err := df.factor(); err != nil {
			panic(err)
		}
		f := &plan.T.Fronts[i]
		if f.Parent < 0 || df.dim == df.w {
			continue
		}
		owner := plan.Map.Owner(f.Parent)
		args := cbArgs{
			ID:     id,
			Parent: int64(f.Parent),
			Rows:   upcxx.MakeView(f.CBRows()),
			CB:     upcxx.MakeView(df.cbPacked()),
		}
		upcxx01.AsyncArg(rt, owner, sendEvt, func(trt *upcxx01.Runtime, a cbArgs) {
			cholAccumRPC(trt.Rank(), a)
		}, args)
	}
	sendEvt.Wait()
	elapsed := time.Since(start)
	rt.Barrier()
	return CholResult{Elapsed: elapsed, L: collectL(plan, st)}
}

// ownedAscending lists this rank's fronts in ascending (children-first)
// order.
func ownedAscending(plan *CholPlan, me int32) []int {
	var out []int
	for i := range plan.T.Fronts {
		if plan.Map.Owner(i) == me {
			out = append(out, i)
		}
	}
	return out
}

func collectL(plan *CholPlan, st *cholState) [][3]float64 {
	var out [][3]float64
	for i, df := range st.fronts {
		out = append(out, df.panelL(&plan.T.Fronts[i])...)
	}
	return out
}

// DenseCholesky factors a dense SPD matrix (row-major, n x n) in place
// into its lower Cholesky factor, zeroing the strict upper triangle —
// the verification reference for small problems.
func DenseCholesky(a []float64, n int) error {
	for k := 0; k < n; k++ {
		d := a[k*n+k]
		if d <= 0 {
			return fmt.Errorf("sparse: dense Cholesky pivot %d = %g", k, d)
		}
		p := math.Sqrt(d)
		a[k*n+k] = p
		for i := k + 1; i < n; i++ {
			a[i*n+k] /= p
		}
		for j := k + 1; j < n; j++ {
			for i := j; i < n; i++ {
				a[i*n+j] -= a[i*n+k] * a[j*n+k]
			}
		}
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			a[i*n+j] = 0
		}
	}
	return nil
}
