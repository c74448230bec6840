// Package matgen generates the sparse symmetric positive-definite inputs
// for the solver experiments. The paper uses audikw_1 and Flan_1565 from
// the Suite Sparse collection — large 3D finite-element stiffness
// matrices. Those files are not redistributable here and exceed a
// single-machine budget, so this package builds scaled-down structural
// proxies: 3D Laplacian/elasticity-stencil matrices on bricks, reordered
// by geometric nested dissection. They share the properties that drive
// the paper's experiments: a deep elimination tree whose separator fronts
// grow toward the root, producing the extend-add communication pattern of
// Fig 5–8.
package matgen

import "fmt"

// SymCSC is a sparse symmetric matrix stored as the lower triangle
// (including the diagonal) in compressed sparse column form.
type SymCSC struct {
	N      int
	ColPtr []int64   // len N+1
	RowInd []int32   // row indices, ascending within a column, >= column
	Val    []float64 // matching values
}

// NNZ returns the stored (lower-triangle) entry count.
func (a *SymCSC) NNZ() int { return len(a.RowInd) }

// Col returns the row indices and values of column j.
func (a *SymCSC) Col(j int) ([]int32, []float64) {
	lo, hi := a.ColPtr[j], a.ColPtr[j+1]
	return a.RowInd[lo:hi], a.Val[lo:hi]
}

// At returns the matrix entry (i, j) (either triangle), or 0.
func (a *SymCSC) At(i, j int) float64 {
	if i < j {
		i, j = j, i
	}
	rows, vals := a.Col(j)
	for k, r := range rows {
		if int(r) == i {
			return vals[k]
		}
		if int(r) > i {
			break
		}
	}
	return 0
}

// Dense expands the matrix into a full dense n*n slice (row-major), for
// small-problem verification only.
func (a *SymCSC) Dense() []float64 {
	out := make([]float64, a.N*a.N)
	for j := 0; j < a.N; j++ {
		rows, vals := a.Col(j)
		for k, r := range rows {
			out[int(r)*a.N+j] = vals[k]
			out[j*a.N+int(r)] = vals[k]
		}
	}
	return out
}

// Grid3D describes a brick of nx*ny*nz cells.
type Grid3D struct {
	NX, NY, NZ int
}

// N returns the number of grid points.
func (g Grid3D) N() int { return g.NX * g.NY * g.NZ }

// ID maps grid coordinates to a linear index.
func (g Grid3D) ID(x, y, z int) int { return x + g.NX*(y+g.NY*z) }

// Laplacian3D builds the 7-point Laplacian on the grid with Dirichlet
// boundary: diagonal 6+shift, off-diagonal -1 to each axis neighbour.
// shift > 0 guarantees positive definiteness with margin.
func Laplacian3D(g Grid3D, shift float64) *SymCSC {
	n := g.N()
	a := &SymCSC{N: n, ColPtr: make([]int64, n+1)}
	// Lower triangle: for column j, rows are j and the neighbours with
	// larger linear index (+x, +y, +z).
	for z := 0; z < g.NZ; z++ {
		for y := 0; y < g.NY; y++ {
			for x := 0; x < g.NX; x++ {
				j := g.ID(x, y, z)
				a.RowInd = append(a.RowInd, int32(j))
				a.Val = append(a.Val, 6+shift)
				if x+1 < g.NX {
					a.RowInd = append(a.RowInd, int32(g.ID(x+1, y, z)))
					a.Val = append(a.Val, -1)
				}
				if y+1 < g.NY {
					a.RowInd = append(a.RowInd, int32(g.ID(x, y+1, z)))
					a.Val = append(a.Val, -1)
				}
				if z+1 < g.NZ {
					a.RowInd = append(a.RowInd, int32(g.ID(x, y, z+1)))
					a.Val = append(a.Val, -1)
				}
				a.ColPtr[j+1] = int64(len(a.RowInd))
			}
		}
	}
	// Columns were appended in linear order, but the +y/+z neighbour rows
	// are already ascending (x+1 < y-step < z-step). ColPtr was filled
	// per column; prefix property holds by construction.
	return a
}

// Permute returns P*A*P' in lower-triangle CSC, where perm[old] = new.
func Permute(a *SymCSC, perm []int32) *SymCSC {
	n := a.N
	if len(perm) != n {
		panic(fmt.Sprintf("matgen: perm length %d != n %d", len(perm), n))
	}
	type entry struct {
		row int32
		val float64
	}
	cols := make([][]entry, n)
	for j := 0; j < n; j++ {
		rows, vals := a.Col(j)
		for k, r := range rows {
			ni, nj := perm[r], perm[j]
			if ni < nj {
				ni, nj = nj, ni
			}
			cols[nj] = append(cols[nj], entry{ni, vals[k]})
		}
	}
	out := &SymCSC{N: n, ColPtr: make([]int64, n+1)}
	for j := 0; j < n; j++ {
		es := cols[j]
		// Insertion sort by row: column degrees are small and nearly
		// sorted.
		for i := 1; i < len(es); i++ {
			for k := i; k > 0 && es[k].row < es[k-1].row; k-- {
				es[k], es[k-1] = es[k-1], es[k]
			}
		}
		for _, e := range es {
			out.RowInd = append(out.RowInd, e.row)
			out.Val = append(out.Val, e.val)
		}
		out.ColPtr[j+1] = int64(len(out.RowInd))
	}
	return out
}

// NestedDissection computes a geometric nested-dissection ordering of the
// grid: recursively split the longest axis, numbering the two halves
// first and the separating plane last. leafSize bounds the cell count
// below which a subdomain is numbered consecutively. Returns perm with
// perm[old] = new.
func NestedDissection(g Grid3D, leafSize int) []int32 {
	perm := make([]int32, g.N())
	next := int32(0)
	var dissect func(x0, x1, y0, y1, z0, z1 int)
	number := func(x0, x1, y0, y1, z0, z1 int) {
		for z := z0; z < z1; z++ {
			for y := y0; y < y1; y++ {
				for x := x0; x < x1; x++ {
					perm[g.ID(x, y, z)] = next
					next++
				}
			}
		}
	}
	dissect = func(x0, x1, y0, y1, z0, z1 int) {
		dx, dy, dz := x1-x0, y1-y0, z1-z0
		size := dx * dy * dz
		if size <= leafSize || (dx <= 1 && dy <= 1 && dz <= 1) {
			number(x0, x1, y0, y1, z0, z1)
			return
		}
		switch {
		case dx >= dy && dx >= dz:
			mid := x0 + dx/2
			dissect(x0, mid, y0, y1, z0, z1)
			dissect(mid+1, x1, y0, y1, z0, z1)
			number(mid, mid+1, y0, y1, z0, z1) // separator plane
		case dy >= dx && dy >= dz:
			mid := y0 + dy/2
			dissect(x0, x1, y0, mid, z0, z1)
			dissect(x0, x1, mid+1, y1, z0, z1)
			number(x0, x1, mid, mid+1, z0, z1)
		default:
			mid := z0 + dz/2
			dissect(x0, x1, y0, y1, z0, mid)
			dissect(x0, x1, y0, y1, mid+1, z1)
			number(x0, x1, y0, y1, mid, mid+1)
		}
	}
	dissect(0, g.NX, 0, g.NY, 0, g.NZ)
	if int(next) != g.N() {
		panic("matgen: nested dissection did not number every cell")
	}
	return perm
}

// Problem bundles a generated matrix with its fill-reducing ordering.
type Problem struct {
	Name string
	Grid Grid3D
	A    *SymCSC // already permuted by nested dissection
	Perm []int32
}

// Generate builds a nested-dissection-ordered Laplacian problem.
func Generate(name string, g Grid3D, leafSize int) *Problem {
	a := Laplacian3D(g, 0.5)
	perm := NestedDissection(g, leafSize)
	return &Problem{Name: name, Grid: g, A: Permute(a, perm), Perm: perm}
}

// AudikwProxy is the scaled-down stand-in for audikw_1 (943k dofs, 77M
// nonzeros): a 3D brick with the same qualitative elimination-tree shape.
// scale 1 yields ~27k dofs — sized for a single machine; the DES-driven
// strong-scaling experiment reuses the same generator at larger scale.
func AudikwProxy(scale int) *Problem {
	if scale < 1 {
		scale = 1
	}
	d := 30 * scale
	return Generate(fmt.Sprintf("audikw_1-proxy-%dx%dx%d", d, d, d),
		Grid3D{NX: d, NY: d, NZ: d}, 64)
}

// FlanProxy is the scaled-down stand-in for Flan_1565 (1.56M dofs): a
// taller brick (shell-like aspect ratio).
func FlanProxy(scale int) *Problem {
	if scale < 1 {
		scale = 1
	}
	d := 24 * scale
	return Generate(fmt.Sprintf("Flan_1565-proxy-%dx%dx%d", d, d, 2*d),
		Grid3D{NX: d, NY: d, NZ: 2 * d}, 64)
}
