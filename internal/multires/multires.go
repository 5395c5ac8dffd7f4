// Package multires implements the hierarchical-access use case the
// paper inherits from Pascucci & Frank 2001 (its ref [7]): extracting
// subsampled levels of detail from a 3D volume, and measuring how much
// memory each layout must touch to serve a subsample or an
// axis-aligned slice query.
//
// The Z-order layout's recursive structure means a 2^L-strided
// subsample, or a slice at fixed coordinate, touches a compact set of
// cache lines and pages; under array order the same queries stride
// across the whole buffer (a y-z slice touches every row). The
// QueryCost functions quantify that — the repo's stand-in for ref [7]'s
// out-of-core experiments, where "lines/pages touched" is a proxy for
// blocks fetched from disk.
package multires

import (
	"fmt"

	"sfcmem/internal/core"
	"sfcmem/internal/grid"
)

// Subsample extracts level-of-detail L: every 2^L-th sample per axis
// (the lattice points i,j,k ≡ 0 mod 2^L), into a new grid under the
// target layout with extents ceil(n / 2^L). Level 0 copies the volume.
//
// Subsampling is pure sample selection — no arithmetic touches the
// values — so the output is bit-identical to the source lattice at
// every element type (the golden-hash tests pin this per dtype).
func Subsample[T grid.Scalar](src *grid.Grid[T], level int, target func(nx, ny, nz int) core.Layout) (*grid.Grid[T], error) {
	if level < 0 {
		return nil, fmt.Errorf("multires: level %d must be >= 0", level)
	}
	nx, ny, nz := src.Dims()
	s := 1 << level
	ceil := func(n int) int { return (n + s - 1) / s }
	ox, oy, oz := ceil(nx), ceil(ny), ceil(nz)
	out := grid.NewOf[T](target(ox, oy, oz))
	for k := 0; k < oz; k++ {
		for j := 0; j < oy; j++ {
			for i := 0; i < ox; i++ {
				out.Set(i, j, k, src.At(i*s, j*s, k*s))
			}
		}
	}
	return out, nil
}

// SliceAxis identifies the fixed axis of an axis-aligned slice.
type SliceAxis int

// Slice orientations, named by the fixed coordinate: SliceX extracts
// the y-z plane at x = const (the worst case for array order), SliceZ
// the x-y plane at z = const (its best case).
const (
	SliceX SliceAxis = iota
	SliceY
	SliceZ
)

// String names the slice orientation.
func (a SliceAxis) String() string {
	switch a {
	case SliceX:
		return "yz@x"
	case SliceY:
		return "xz@y"
	case SliceZ:
		return "xy@z"
	}
	return fmt.Sprintf("SliceAxis(%d)", int(a))
}

// QueryCost reports how much of the memory system a query touches:
// distinct 64-byte cache lines and distinct 4KB pages, plus the total
// byte span between the lowest and highest address read. For an
// out-of-core store these are the blocks that must be fetched — the
// quantity ref [7] optimizes.
type QueryCost struct {
	Samples int
	Lines   int
	Pages   int
	Span    int // bytes between min and max accessed address, inclusive
}

const (
	elemBytes = 4
	lineBytes = 64
	pageBytes = 4096
)

// SliceCost measures the query cost of an axis-aligned slice (with
// subsampling level) under the given layout, without materializing the
// slice.
func SliceCost(l core.Layout, axis SliceAxis, at, level int) (QueryCost, error) {
	nx, ny, nz := l.Dims()
	s := 1 << level
	var fixedMax int
	switch axis {
	case SliceX:
		fixedMax = nx
	case SliceY:
		fixedMax = ny
	case SliceZ:
		fixedMax = nz
	default:
		return QueryCost{}, fmt.Errorf("multires: invalid slice axis %d", int(axis))
	}
	if level < 0 || at < 0 || at >= fixedMax {
		return QueryCost{}, fmt.Errorf("multires: slice %v at=%d level=%d out of range", axis, at, level)
	}
	lines := make(map[int]bool)
	pages := make(map[int]bool)
	minA, maxA := -1, -1
	cost := QueryCost{}
	visit := func(i, j, k int) {
		addr := l.Index(i, j, k) * elemBytes
		cost.Samples++
		lines[addr/lineBytes] = true
		pages[addr/pageBytes] = true
		if minA < 0 || addr < minA {
			minA = addr
		}
		if addr > maxA {
			maxA = addr
		}
	}
	switch axis {
	case SliceX:
		for k := 0; k < nz; k += s {
			for j := 0; j < ny; j += s {
				visit(at, j, k)
			}
		}
	case SliceY:
		for k := 0; k < nz; k += s {
			for i := 0; i < nx; i += s {
				visit(i, at, k)
			}
		}
	case SliceZ:
		for j := 0; j < ny; j += s {
			for i := 0; i < nx; i += s {
				visit(i, j, at)
			}
		}
	}
	cost.Lines = len(lines)
	cost.Pages = len(pages)
	if maxA >= 0 {
		cost.Span = maxA - minA + elemBytes
	}
	return cost, nil
}

// SubsampleCost measures the query cost of reading the full level-L
// subsample lattice under the given layout.
func SubsampleCost(l core.Layout, level int) (QueryCost, error) {
	if level < 0 {
		return QueryCost{}, fmt.Errorf("multires: level %d must be >= 0", level)
	}
	nx, ny, nz := l.Dims()
	s := 1 << level
	lines := make(map[int]bool)
	pages := make(map[int]bool)
	minA, maxA := -1, -1
	cost := QueryCost{}
	for k := 0; k < nz; k += s {
		for j := 0; j < ny; j += s {
			for i := 0; i < nx; i += s {
				addr := l.Index(i, j, k) * elemBytes
				cost.Samples++
				lines[addr/lineBytes] = true
				pages[addr/pageBytes] = true
				if minA < 0 || addr < minA {
					minA = addr
				}
				if addr > maxA {
					maxA = addr
				}
			}
		}
	}
	cost.Lines = len(lines)
	cost.Pages = len(pages)
	if maxA >= 0 {
		cost.Span = maxA - minA + elemBytes
	}
	return cost, nil
}
