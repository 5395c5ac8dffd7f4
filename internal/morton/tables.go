package morton

import "fmt"

// Table2 holds per-axis precomputed Z-order index tables for a 2D grid,
// following the scheme of Pascucci & Frank 2001 that the paper adopts:
// entry i of each table is the dilated, shifted contribution of
// coordinate value i on that axis, so an index is two loads and an OR.
// Used by image-plane structures and the 2D demonstrations in
// cmd/layoutviz.
type Table2 struct {
	xs, ys []uint64
	nx, ny int
}

// NewTable2 builds Z-order index tables for an nx×ny grid.
func NewTable2(nx, ny int) *Table2 {
	if nx <= 0 || ny <= 0 {
		panic(fmt.Sprintf("morton: extents %dx%d must be positive", nx, ny))
	}
	t := &Table2{nx: nx, ny: ny}
	t.xs = make([]uint64, nx)
	t.ys = make([]uint64, ny)
	for i := 0; i < nx; i++ {
		t.xs[i] = Part1By1(uint64(i))
	}
	for j := 0; j < ny; j++ {
		t.ys[j] = Part1By1(uint64(j)) << 1
	}
	return t
}

// Index returns the Z-order index of (i,j).
func (t *Table2) Index(i, j int) uint64 { return t.xs[i] | t.ys[j] }

// Dims returns the logical grid extents.
func (t *Table2) Dims() (nx, ny int) { return t.nx, t.ny }

// PaddedLen returns the buffer length required for this table's indices.
func (t *Table2) PaddedLen() int {
	return int(t.xs[t.nx-1]|t.ys[t.ny-1]) + 1
}
