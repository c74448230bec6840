package sparse

import "fmt"

// Mapping assigns each front a contiguous process range [Lo, Hi) using the
// proportional mapping heuristic (Pothen & Sun), exactly as the paper
// describes: subtrees receive process groups sized by their computational
// cost, the root front owning all processes.
type Mapping struct {
	P      int
	Ranges [][2]int32 // per front: {lo, hi}
}

// Range returns front f's process interval.
func (m *Mapping) Range(f int) (lo, hi int32) {
	r := m.Ranges[f]
	return r[0], r[1]
}

// Owner returns the designated single owner of front f (used by the 1D
// mini-symPACK mapping): the first process of its range.
func (m *Mapping) Owner(f int) int32 { return m.Ranges[f][0] }

// ProportionalMap computes the proportional mapping of the tree onto P
// processes. Every front receives at least one process; when a subtree
// has more children than processes, children share processes.
func ProportionalMap(t *FrontTree, P int) *Mapping {
	if P < 1 {
		panic("sparse: ProportionalMap needs P >= 1")
	}
	costs := t.SubtreeCosts()
	m := &Mapping{P: P, Ranges: make([][2]int32, len(t.Fronts))}

	var assign func(f int, lo, hi int32)
	assign = func(f int, lo, hi int32) {
		m.Ranges[f] = [2]int32{lo, hi}
		children := t.Fronts[f].Children
		if len(children) == 0 {
			return
		}
		g := hi - lo
		if g <= 1 {
			for _, c := range children {
				assign(c, lo, hi)
			}
			return
		}
		total := 0.0
		for _, c := range children {
			total += costs[c]
		}
		// Carve [lo, hi) by cumulative share, clamped so every child gets
		// a non-empty range.
		cum := 0.0
		for idx, c := range children {
			share0 := cum / total
			cum += costs[c]
			share1 := cum / total
			clo := lo + int32(share0*float64(g)+0.5)
			chi := lo + int32(share1*float64(g)+0.5)
			if clo >= hi {
				clo = hi - 1
			}
			if chi <= clo {
				chi = clo + 1
			}
			if chi > hi {
				chi = hi
			}
			if idx == len(children)-1 && chi < hi {
				// Avoid stranding trailing processes at the last child.
				chi = hi
			}
			assign(c, clo, chi)
		}
	}

	// Split the processes among the roots by cost.
	rootTotal := 0.0
	for _, r := range t.Roots {
		rootTotal += costs[r]
	}
	cum := 0.0
	for idx, r := range t.Roots {
		share0 := cum / rootTotal
		cum += costs[r]
		share1 := cum / rootTotal
		lo := int32(share0*float64(P) + 0.5)
		hi := int32(share1*float64(P) + 0.5)
		if lo >= int32(P) {
			lo = int32(P) - 1
		}
		if hi <= lo {
			hi = lo + 1
		}
		if hi > int32(P) {
			hi = int32(P)
		}
		if idx == len(t.Roots)-1 && hi < int32(P) {
			hi = int32(P)
		}
		assign(r, lo, hi)
	}
	return m
}

// Layout is the 2D block-cyclic distribution of one front over its
// process group (paper Fig 5: colored blocks on a 2-by-3 grid).
type Layout struct {
	Lo, Hi int32 // process range
	PR, PC int   // process grid dimensions, PR*PC == Hi-Lo
	B      int   // block size
}

// NewLayout shapes the process group [lo,hi) into the most square grid
// with PR*PC == group size, blocks of b elements on a side.
func NewLayout(lo, hi int32, b int) Layout {
	g := int(hi - lo)
	if g < 1 {
		panic(fmt.Sprintf("sparse: empty layout range [%d,%d)", lo, hi))
	}
	pr := 1
	for d := 1; d*d <= g; d++ {
		if g%d == 0 {
			pr = d
		}
	}
	return Layout{Lo: lo, Hi: hi, PR: pr, PC: g / pr, B: b}
}

// Owner returns the process owning element (i, j) of the front (front-
// local coordinates).
func (l Layout) Owner(i, j int) int32 {
	bi, bj := i/l.B, j/l.B
	return l.Lo + int32((bi%l.PR)*l.PC+(bj%l.PC))
}
