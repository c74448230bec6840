package expmodel

import (
	"upcxx/internal/gasnet"
	"upcxx/internal/sparse"
)

// Fig 9 model: strong scaling of the mini-symPACK multifrontal Cholesky
// under the two API generations. Both variants execute the identical
// numeric task DAG (factor fronts bottom-up, ship contribution blocks to
// parent owners); they differ exactly where the paper says the APIs
// differ:
//
//   - v1.0 (futures/promises/RPC): a front factors as soon as its
//     children's contributions have arrived, in readiness order — the
//     completion-handler chaining of §IV-D2.
//   - v0.1 (asyncs/events): each rank waits on its owned fronts in fixed
//     tree order (events cannot chain work, so the original symPACK
//     spins per front), and every async+event pair carries extra
//     bookkeeping overhead.
//
// The expectation from the paper: near-identical curves, v1.0 ahead by a
// few percent at larger process counts (mean gap 0.7%, max 7.2%).

// SymPACKVariant selects the API generation to model.
type SymPACKVariant int

const (
	// V1 is UPC++ v1.0 (futures + RPC).
	V1 SymPACKVariant = iota
	// V01 is predecessor v0.1 (events + asyncs).
	V01
)

func (v SymPACKVariant) String() string {
	if v == V01 {
		return "UPC++ v0.1"
	}
	return "UPC++ v1.0"
}

// SimulateSymPACK returns the modeled factorization wall time (seconds)
// of the mini-symPACK for the given tree and process count.
func SimulateSymPACK(m Machine, t *sparse.FrontTree, p int, variant SymPACKVariant) float64 {
	mapping := sparse.ProportionalMap(t, p)
	var sim gasnet.Queue[float64]
	cpu := make([]gasnet.Channel[float64], p)
	nf := len(t.Fronts)

	remain := make([]int, nf)
	ready := make([]float64, nf)
	factored := make([]bool, nf)
	makespan := 0.0
	observe := func(x float64) {
		if x > makespan {
			makespan = x
		}
	}

	// v0.1 in-order gating: each rank's owned fronts in ascending order;
	// a front may not factor before its predecessor on the same rank.
	ownedIdx := make([][]int, p)
	nextOwned := make([]int, p)
	for f := 0; f < nf; f++ {
		o := mapping.Owner(f)
		ownedIdx[o] = append(ownedIdx[o], f)
		remain[f] = len(t.Fronts[f].Children)
	}

	// frontSpeedup models the 2D block-cyclic dense factorization of a
	// front over its process group (the full symPACK distributes fronts
	// over grids; the in-repo mini-symPACK maps one owner per front, so
	// its strong scaling saturates much earlier — see EXPERIMENTS.md).
	// Parallelism is capped by the front's block count and discounted by
	// a communication-efficiency factor.
	frontSpeedup := func(f int) float64 {
		lo, hi := mapping.Range(f)
		g := float64(hi - lo)
		if g <= 1 {
			return 1
		}
		nb := float64((len(t.Fronts[f].Rows) + 63) / 64)
		useful := nb * nb
		if g > useful {
			g = useful
		}
		if g < 1 {
			return 1
		}
		return 1 + (g-1)*0.7
	}

	var tryFactor func(f int)
	factorNow := func(f int) {
		owner := mapping.Owner(f)
		fr := &t.Fronts[f]
		factorT := fr.Cost * m.FlopSecs / frontSpeedup(f)
		fEnd := cpu[owner].Book(ready[f], factorT)
		factored[f] = true
		observe(fEnd)
		// v0.1: the rank may now move to its next owned front.
		if variant == V01 {
			nextOwned[owner]++
			if k := nextOwned[owner]; k < len(ownedIdx[owner]) {
				nf2 := ownedIdx[owner][k]
				if remain[nf2] == 0 && !factored[nf2] {
					tryFactor(nf2)
				}
			}
		}
		if fr.Parent < 0 || fr.CBSize() == 0 {
			return
		}
		// Ship the contribution block to the parent's owner.
		cb := fr.CBSize()
		bytes := cb*(cb+1)/2*8 + cb*4
		pOwner := mapping.Owner(fr.Parent)
		intra := m.intra(owner, pOwner)
		sendT := m.cpu(rpcInject) + m.overhead(bytes, intra)
		if variant == V01 {
			sendT += m.cpu(eventOverhead)
		}
		sEnd := cpu[owner].Book(fEnd, sendT)
		arrival := sEnd + m.gap(bytes, intra) + m.lat(bytes, intra)
		parent := fr.Parent
		sim.At(arrival, func() {
			hDur := m.cpu(rpcHandler) + m.copyCost(bytes)
			hEnd := cpu[pOwner].Book(sim.Now(), hDur)
			remain[parent]--
			if ready[parent] < hEnd {
				ready[parent] = hEnd
			}
			if remain[parent] == 0 {
				tryFactor(parent)
			}
		})
	}

	tryFactor = func(f int) {
		owner := mapping.Owner(f)
		if variant == V01 {
			// Only the rank's next unfactored owned front may proceed.
			k := nextOwned[owner]
			if k >= len(ownedIdx[owner]) || ownedIdx[owner][k] != f {
				return
			}
		}
		factorNow(f)
	}

	// Seed: leaves are ready at time zero.
	for f := 0; f < nf; f++ {
		if remain[f] == 0 {
			tryFactor(f)
		}
	}
	sim.Run()
	// v0.1 sweep: a rank whose next-in-order front became ready only
	// after later fronts must still pick it up; the event loop above
	// handles it through nextOwned advancing, but guard against a stall.
	for f := 0; f < nf; f++ {
		if !factored[f] {
			// Force remaining fronts in order (ready times already
			// final).
			factorNow(f)
		}
	}
	return makespan
}

// Fig9ProcessCounts is the paper's x axis for the symPACK comparison.
func Fig9ProcessCounts() []int {
	return []int{4, 16, 32, 128, 256, 512, 1024}
}
