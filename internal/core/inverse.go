package core

import (
	"sfcmem/internal/hilbert"
	"sfcmem/internal/morton"
)

// Inverse is implemented by layouts that can map a buffer offset back to
// its grid coordinates. It enables storage-order traversal — visiting
// elements in the order they sit in memory, the access pattern with
// perfect spatial locality. For space-filling layouts this is the
// cache-friendly matrix-traversal trick of Bader 2013 (the paper's ref
// [6]); for padded layouts some offsets hold no element, reported via
// ok == false.
//
// All built-in layouts implement Inverse.
type Inverse interface {
	Layout
	// Coords returns the grid coordinates stored at buffer offset idx,
	// or ok == false if idx is padding (no element lives there). idx
	// must be in [0, Len()).
	Coords(idx int) (i, j, k int, ok bool)
}

// Compile-time checks: every built-in layout supports inversion.
var (
	_ Inverse = (*ArrayOrder)(nil)
	_ Inverse = (*ZOrder)(nil)
	_ Inverse = (*Tiled)(nil)
	_ Inverse = (*Hilbert)(nil)
	_ Inverse = (*ZTiled)(nil)
)

// Coords inverts array-order indexing: idx = i + j*nx + k*nx*ny.
func (a *ArrayOrder) Coords(idx int) (i, j, k int, ok bool) {
	k = idx / (a.nx * a.ny)
	rem := idx - k*a.nx*a.ny
	j = rem / a.nx
	i = rem - j*a.nx
	return i, j, k, true
}

// Coords inverts tiled indexing; offsets inside partial-tile padding
// report ok == false.
func (t *Tiled) Coords(idx int) (i, j, k int, ok bool) {
	t3 := t.tile * t.tile * t.tile
	brick := idx / t3
	intra := idx - brick*t3
	ceil := func(n int) int { return (n + t.tile - 1) / t.tile }
	tx, ty := ceil(t.nx), ceil(t.ny)
	bz := brick / (tx * ty)
	rem := brick - bz*tx*ty
	by := rem / tx
	bx := rem - by*tx
	iz := intra / (t.tile * t.tile)
	rem = intra - iz*t.tile*t.tile
	iy := rem / t.tile
	ix := rem - iy*t.tile
	i, j, k = bx*t.tile+ix, by*t.tile+iy, bz*t.tile+iz
	return i, j, k, i < t.nx && j < t.ny && k < t.nz
}

// Coords inverts the Hilbert index; offsets in the padded cube outside
// the logical extents report ok == false.
func (h *Hilbert) Coords(idx int) (i, j, k int, ok bool) {
	x, y, z := hilbert.Decode3(uint64(idx), h.bits)
	i, j, k = int(x), int(y), int(z)
	return i, j, k, i < h.nx && j < h.ny && k < h.nz
}

// Coords inverts brick-row-major Morton-within-brick indexing; offsets
// inside partial-brick padding report ok == false.
func (t *ZTiled) Coords(idx int) (i, j, k int, ok bool) {
	b3 := t.brick * t.brick * t.brick
	brick := idx / b3
	intra := idx - brick*b3
	ceil := func(n int) int { return (n + t.brick - 1) / t.brick }
	bxn, byn := ceil(t.nx), ceil(t.ny)
	bz := brick / (bxn * byn)
	rem := brick - bz*bxn*byn
	by := rem / bxn
	bx := rem - by*bxn
	x, y, z := morton.Decode3(uint64(intra))
	i, j, k = bx*t.brick+int(x), by*t.brick+int(y), bz*t.brick+int(z)
	return i, j, k, i < t.nx && j < t.ny && k < t.nz
}
