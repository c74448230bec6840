package sparse

import (
	"fmt"
	"math"
	"time"

	"upcxx"
	"upcxx/internal/mpi"
)

// The extend-add benchmark (paper §IV-D2/3, Figs 6–8): children's
// contribution blocks are accumulated into their parents' frontal
// matrices across a 2D block-cyclic distribution. As in the paper's
// benchmark, no numeric factorization is performed — contribution values
// are synthetic and static, every variant moves exactly the same entries,
// and only the communication strategy differs:
//
//   - UPC++ RPC: one RPC per (child process -> parent process) pair
//     carrying a view of packed entries, fully asynchronous across the
//     whole tree, completion via conjoined futures + a counting promise
//     (Fig 7's code structure).
//   - MPI Alltoallv: one collective per tree level (STRUMPACK's
//     strategy).
//   - MPI P2P: per-child Isend/Irecv with per-level Waitall (MUMPS's
//     strategy).

// cbValue is the deterministic synthetic value of contribution-block
// entry (gi, gj) of child front c: structure-independent so that every
// variant accumulates identical sums.
func cbValue(c int, gi, gj int32) float64 {
	h := uint64(c+1)*0x9e3779b97f4a7c15 ^ uint64(gi)*0x85ebca77c2b2ae63 ^ uint64(gj)*0xc2b2ae3d27d4eb4f
	return float64(h%4096)/64.0 - 32.0
}

// packEntry encodes one accumulation as (meta, value-bits): the meta word
// holds the parent front ID and the parent-local coordinates.
func packEntry(front int, pi, pj int) uint64 {
	return uint64(front)<<42 | uint64(pi)<<21 | uint64(pj)
}

func unpackEntry(meta uint64) (front, pi, pj int) {
	return int(meta >> 42), int(meta >> 21 & 0x1fffff), int(meta & 0x1fffff)
}

// AccumStore holds one process's accumulated fragments of parent frontal
// matrices: per front, a sparse map from packed local coordinates to the
// accumulated value.
type AccumStore struct {
	Data map[int]map[uint64]float64
}

// NewAccumStore returns an empty store.
func NewAccumStore() *AccumStore {
	return &AccumStore{Data: make(map[int]map[uint64]float64)}
}

// Add accumulates v at (pi, pj) of front f.
func (s *AccumStore) Add(f, pi, pj int, v float64) {
	m, ok := s.Data[f]
	if !ok {
		m = make(map[uint64]float64)
		s.Data[f] = m
	}
	m[uint64(pi)<<21|uint64(pj)] += v
}

// Merge folds other into s (used by tests to combine per-rank stores).
func (s *AccumStore) Merge(other *AccumStore) {
	for f, m := range other.Data {
		for k, v := range m {
			s.Add(f, int(k>>21), int(k&0x1fffff), v)
		}
	}
}

// Entries returns the total number of accumulated positions.
func (s *AccumStore) Entries() int {
	total := 0
	for _, m := range s.Data {
		total += len(m)
	}
	return total
}

// Equal compares two stores within tolerance.
func (s *AccumStore) Equal(other *AccumStore, tol float64) error {
	if len(s.Data) != len(other.Data) {
		return fmt.Errorf("front count %d != %d", len(s.Data), len(other.Data))
	}
	for f, m := range s.Data {
		om, ok := other.Data[f]
		if !ok {
			return fmt.Errorf("front %d missing", f)
		}
		if len(m) != len(om) {
			return fmt.Errorf("front %d entry count %d != %d", f, len(m), len(om))
		}
		for k, v := range m {
			if ov, ok := om[k]; !ok || math.Abs(v-ov) > tol {
				return fmt.Errorf("front %d pos (%d,%d): %g vs %g",
					f, k>>21, k&0x1fffff, v, ov)
			}
		}
	}
	return nil
}

// EAddPlan precomputes the structural (value-independent) side of the
// benchmark, shared read-only by every rank: front layouts, per-child
// message matrix, and per-rank expected incoming message counts.
type EAddPlan struct {
	T       *FrontTree
	Map     *Mapping
	Layouts []Layout
	P       int
	Block   int

	// Msgs[f] holds, for child front f, the entry count per (src, dst)
	// process pair.
	Msgs []map[[2]int32]int
	// Incoming[p] is the number of distinct (child, src) messages process
	// p will receive — the initializer of the paper's e_add_prom.
	Incoming []int
	// ByLevel[l] lists fronts at level l.
	ByLevel [][]int
	// TotalEntries is the number of accumulations in one full pass.
	TotalEntries int
}

// NewEAddPlan builds the plan for the tree over P processes with the
// given block-cyclic block size.
func NewEAddPlan(t *FrontTree, p, block int) *EAddPlan {
	m := ProportionalMap(t, p)
	plan := &EAddPlan{
		T: t, Map: m, P: p, Block: block,
		Layouts:  make([]Layout, len(t.Fronts)),
		Msgs:     make([]map[[2]int32]int, len(t.Fronts)),
		Incoming: make([]int, p),
		ByLevel:  make([][]int, t.MaxLevel()+1),
	}
	for i := range t.Fronts {
		lo, hi := m.Range(i)
		plan.Layouts[i] = NewLayout(lo, hi, block)
		plan.ByLevel[t.Fronts[i].Level] = append(plan.ByLevel[t.Fronts[i].Level], i)
	}
	for i := range t.Fronts {
		f := &t.Fronts[i]
		if f.Parent < 0 {
			continue
		}
		counts := make(map[[2]int32]int)
		forEachCBEntry(plan, i, func(src, dst int32, _ uint64, _ float64) {
			counts[[2]int32{src, dst}]++
		})
		plan.Msgs[i] = counts
		for k, c := range counts {
			plan.Incoming[k[1]]++
			plan.TotalEntries += c
		}
	}
	return plan
}

// forEachCBEntry visits every contribution-block entry of child front f
// (lower triangle), reporting the owning source process, destination
// process in the parent layout, packed meta word and value.
func forEachCBEntry(plan *EAddPlan, f int, visit func(src, dst int32, meta uint64, val float64)) {
	t := plan.T
	child := &t.Fronts[f]
	parent := &t.Fronts[child.Parent]
	cl := plan.Layouts[f]
	pl := plan.Layouts[child.Parent]
	w := child.Width
	dim := len(child.Rows)
	// Parent-local index of each child CB row, computed once (the paper's
	// index translation through Ip).
	ploc := make([]int, dim-w)
	for k, gr := range child.CBRows() {
		pi := LocalIndex(parent.Rows, gr)
		if pi < 0 {
			panic(fmt.Sprintf("sparse: child %d CB row %d missing from parent %d", f, gr, child.Parent))
		}
		ploc[k] = pi
	}
	for ci := w; ci < dim; ci++ {
		gi := child.Rows[ci]
		pi := ploc[ci-w]
		for cj := w; cj <= ci; cj++ {
			gj := child.Rows[cj]
			pj := ploc[cj-w]
			src := cl.Owner(ci, cj)
			dst := pl.Owner(pi, pj)
			visit(src, dst, packEntry(child.Parent, pi, pj), cbValue(f, gi, gj))
		}
	}
}

// pack bins this process's owned CB entries of child front f by
// destination process (the paper's pack() + make_view step). Buffers hold
// (meta, value-bits) pairs.
func pack(plan *EAddPlan, f int, me int32) map[int32][]uint64 {
	bufs := make(map[int32][]uint64)
	forEachCBEntry(plan, f, func(src, dst int32, meta uint64, val float64) {
		if src != me {
			return
		}
		bufs[dst] = append(bufs[dst], meta, math.Float64bits(val))
	})
	return bufs
}

// accumulate folds a packed buffer into the store.
func accumulate(store *AccumStore, pairs []uint64) {
	for k := 0; k+1 < len(pairs); k += 2 {
		front, pi, pj := unpackEntry(pairs[k])
		store.Add(front, pi, pj, math.Float64frombits(pairs[k+1]))
	}
}

// EAddSerial computes the reference accumulation on one process.
func EAddSerial(plan *EAddPlan) *AccumStore {
	store := NewAccumStore()
	for i := range plan.T.Fronts {
		if plan.T.Fronts[i].Parent < 0 {
			continue
		}
		forEachCBEntry(plan, i, func(_, _ int32, meta uint64, val float64) {
			front, pi, pj := unpackEntry(meta)
			store.Add(front, pi, pj, val)
		})
	}
	return store
}

// eaddDist is the per-rank distributed state of the UPC++ variant.
type eaddDist struct {
	store *AccumStore
	prom  *upcxx.Promise[upcxx.Unit]
}

// EAddUPCXX runs the UPC++ RPC variant on one rank, returning its
// accumulation store and the elapsed time of the communication phase.
// Matches Fig 7: pack, one RPC per destination with a view of the data,
// conjoined futures for acknowledgment, counting promise for incoming.
func EAddUPCXX(rk *upcxx.Rank, plan *EAddPlan) (*AccumStore, time.Duration) {
	me := rk.Me()
	d := &eaddDist{store: NewAccumStore(), prom: upcxx.NewPromise[upcxx.Unit](rk)}
	d.prom.RequireAnonymous(plan.Incoming[me])
	obj := upcxx.NewDistObject(rk, d)
	id := obj.ID()
	rk.Barrier()

	start := time.Now()
	fConj := upcxx.EmptyFuture(rk)
	for i := range plan.T.Fronts {
		f := &plan.T.Fronts[i]
		if f.Parent < 0 {
			continue
		}
		if lo, hi := plan.Map.Range(i); me < lo || me >= hi {
			continue
		}
		bufs := pack(plan, i, me)
		// Launch an RPC to every destination, rotating the start as the
		// paper's loop does to avoid hotspots.
		plo, phi := plan.Map.Range(f.Parent)
		pn := phi - plo
		for lp := int32(0); lp < pn; lp++ {
			dst := plo + (me+1+lp)%pn
			buf, ok := bufs[dst]
			if !ok {
				continue
			}
			fut := upcxx.RPC(rk, dst, eaddAccumRPC, eaddAccumArg{ID: id, View: upcxx.MakeView(buf)})
			fConj = upcxx.WhenAll(rk, fConj, fut)
		}
	}
	upcxx.WhenAll(rk, fConj, d.prom.Finalize()).Wait()
	elapsed := time.Since(start)
	rk.Barrier()
	return d.store, elapsed
}

// Registered by name so the accum callback can be dispatched in sibling
// rank processes under a real transport conduit.
func init() { upcxx.RegisterRPC(eaddAccumRPC) }

// eaddAccumArg is eaddAccumRPC's argument: the destination's state object
// and the packed contributions.
type eaddAccumArg struct {
	ID   upcxx.DistID
	View upcxx.View[uint64]
}

// eaddAccumRPC is the accum callback of Fig 6/7: it runs at the
// destination, traverses the view (a window into the network buffer),
// accumulates into the local fragments, and signals the counting promise.
func eaddAccumRPC(trk *upcxx.Rank, a eaddAccumArg) upcxx.Unit {
	obj, ok := upcxx.LookupDist[*eaddDist](trk, a.ID)
	if !ok {
		panic(fmt.Sprintf("sparse: rank %d missing eadd state %d", trk.Me(), a.ID))
	}
	d := *obj.Value()
	accumulate(d.store, a.View.Elements())
	d.prom.FulfillAnonymous(1)
	return upcxx.Unit{}
}

// EAddMPIAlltoallv runs the Alltoallv variant on one MPI process: one
// collective exchange per tree level, deepest first (STRUMPACK's
// strategy; the per-level synchronization is inherent to the collective).
func EAddMPIAlltoallv(p *mpi.Proc, plan *EAddPlan) (*AccumStore, time.Duration) {
	me := int32(p.Rank())
	store := NewAccumStore()
	p.Barrier()
	start := time.Now()
	for level := len(plan.ByLevel) - 1; level >= 1; level-- {
		send := make([][]byte, p.Size())
		for _, i := range plan.ByLevel[level] {
			if plan.T.Fronts[i].Parent < 0 {
				continue
			}
			if lo, hi := plan.Map.Range(i); me < lo || me >= hi {
				continue
			}
			for dst, buf := range pack(plan, i, me) {
				send[dst] = appendPairs(send[dst], buf)
			}
		}
		recv := p.Alltoallv(send)
		for _, buf := range recv {
			accumulate(store, pairsFromBytes(buf))
		}
	}
	elapsed := time.Since(start)
	p.Barrier()
	return store, elapsed
}

// EAddMPIP2P runs the point-to-point variant (MUMPS's strategy): per
// child front, one message per (source, destination) pair. The receiver
// knows only how many messages to expect per level (from the symbolic
// analysis) and discovers them with Probe + Recv — the serialized,
// unexpected-queue matching path that real probe-driven solvers pay.
func EAddMPIP2P(p *mpi.Proc, plan *EAddPlan) (*AccumStore, time.Duration) {
	me := int32(p.Rank())
	store := NewAccumStore()
	p.Barrier()
	start := time.Now()
	for level := len(plan.ByLevel) - 1; level >= 1; level-- {
		expect := 0
		for _, i := range plan.ByLevel[level] {
			for key := range plan.Msgs[i] {
				if key[1] == me {
					expect++
				}
			}
		}
		var reqs []*mpi.Request
		// Send. The tag identifies the level; the payload's meta words
		// identify the parent fronts.
		for _, i := range plan.ByLevel[level] {
			if lo, hi := plan.Map.Range(i); me < lo || me >= hi {
				continue
			}
			for dst, buf := range pack(plan, i, me) {
				reqs = append(reqs, p.Isend(appendPairs(nil, buf), int(dst), level))
			}
		}
		// Probe-driven receive loop.
		for k := 0; k < expect; k++ {
			st := p.Probe(mpi.AnySource, level)
			buf := make([]byte, st.Count)
			p.Recv(buf, st.Source, st.Tag)
			accumulate(store, pairsFromBytes(buf))
		}
		p.Waitall(reqs)
	}
	elapsed := time.Since(start)
	p.Barrier()
	return store, elapsed
}

// appendPairs appends packed (meta, bits) words to a byte buffer in
// little-endian order.
func appendPairs(dst []byte, pairs []uint64) []byte {
	for _, w := range pairs {
		for s := 0; s < 64; s += 8 {
			dst = append(dst, byte(w>>s))
		}
	}
	return dst
}

// pairsFromBytes decodes the wire form of appendPairs.
func pairsFromBytes(b []byte) []uint64 {
	out := make([]uint64, len(b)/8)
	for i := range out {
		var w uint64
		for s := 0; s < 8; s++ {
			w |= uint64(b[i*8+s]) << (8 * s)
		}
		out[i] = w
	}
	return out
}
