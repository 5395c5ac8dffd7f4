package render

import (
	"fmt"
	"math/bits"

	"sfcmem/internal/grid"
)

// accelShift is log2 of the fixed macrocell edge: cells are 8³ voxels.
const accelShift = 3

// accelMargin is how far below the transfer function's opacity
// threshold (in normalized units) a voxel already counts as possibly
// opaque. It absorbs every rounding step between the voxels and the
// lookup-table index: the trilinear lerps over corners in [-1, 1]
// (under 2⁻¹⁹ in float32), the dtype normalization multiply and the
// table's float32 index scale (relative 2⁻²⁴ each).
const accelMargin = 1.0 / 4096

// Accel is an exact empty-space map for the raycaster: one bit per
// fixed 8³ macrocell, set when some sample taken inside the cell could
// be opaque under a transfer function. A sample at continuous position
// p reads the 2×2×2 corners from ⌊p⌋ to ⌊p⌋+1, so the voxels a cell's
// samples can reach are the cell itself plus a one-voxel apron past its
// high faces; a cell's bit is clear only when every one of those voxels
// is below the opacity threshold by accelMargin. The march skips the
// samples whose cell bit is clear — they would have composited nothing
// — so a render with the map is bit-identical to one without.
//
// A map is built for one volume's dimensions and one opacity threshold
// (TransferFunc.MinOpaqueValue); it is immutable and safe to share
// between concurrent renders.
type Accel struct {
	nx, ny, nz int
	threshold  float32
	// cx, cy, cz are the cell counts per axis; the bit of cell
	// (ix, iy, iz) is ix | iy<<lx | iz<<(lx+ly), with lx, ly the bit
	// widths of cx-1 and cy-1 so the index is shifts and ors.
	cx, cy, cz uint
	lx, ly     uint
	bits       []uint64
	empty      int
}

// BuildAccelOf scans vol once and returns its empty-space map under
// tf. Plain grids with separable layouts are scanned through their flat
// view, other readers through At; either way a cell's scan stops at its
// first possibly-opaque voxel. When tf is opaque at 0 every sample can
// be opaque (Eval maps negative and NaN samples to the table's first
// entry), so no cell is empty.
func BuildAccelOf[T grid.Scalar](vol grid.ReaderOf[T], tf *TransferFunc) *Accel {
	nx, ny, nz := vol.Dims()
	a := &Accel{nx: nx, ny: ny, nz: nz, threshold: tf.MinOpaqueValue()}
	a.cx, a.cy, a.cz = cellsFor(nx), cellsFor(ny), cellsFor(nz)
	a.lx, a.ly = uint(bits.Len(a.cx-1)), uint(bits.Len(a.cy-1))
	lz := uint(bits.Len(a.cz - 1))
	a.bits = make([]uint64, (1<<(a.lx+a.ly+lz)+63)/64)
	if a.threshold <= 0 {
		for i := range a.bits {
			a.bits[i] = ^uint64(0)
		}
		return a
	}
	// lo is threshold − margin in the dtype's raw units.
	lo := (float64(a.threshold) - accelMargin) * grid.NormScale[T]()
	flat := grid.Flatten(vol)
	for iz := uint(0); iz < a.cz; iz++ {
		z0, z1 := cellSpan(iz, nz)
		for iy := uint(0); iy < a.cy; iy++ {
			y0, y1 := cellSpan(iy, ny)
			for ix := uint(0); ix < a.cx; ix++ {
				x0, x1 := cellSpan(ix, nx)
				var hit bool
				if flat != nil {
					hit = anyOpaqueFlat(flat, lo, x0, x1, y0, y1, z0, z1)
				} else {
					hit = anyOpaqueAt(vol, lo, x0, x1, y0, y1, z0, z1)
				}
				if hit {
					a.set(ix, iy, iz)
				} else {
					a.empty++
				}
			}
		}
	}
	return a
}

// couldBeOpaque reports whether voxel v could make a sample opaque
// when the normalized threshold less the margin is lo in v's units.
// For float dtypes values ≤ -1 count too: the lerp's rounding error
// grows with the corners' magnitude, and the margin covers corners in
// [-1, 1] only. NaN (and so any sample with a NaN corner) maps to the
// transparent first table entry and never counts.
func couldBeOpaque[T grid.Scalar](v T, lo float64) bool {
	x := float64(v)
	return x >= lo || x <= -1
}

// anyOpaqueFlat reports whether some voxel of the box
// [x0,x1]×[y0,y1]×[z0,z1] could be opaque, stopping at the first.
func anyOpaqueFlat[T grid.Scalar](f *grid.Flat[T], lo float64, x0, x1, y0, y1, z0, z1 int) bool {
	xs := f.X[x0 : x1+1]
	for z := z0; z <= z1; z++ {
		for y := y0; y <= y1; y++ {
			base := f.Y[y] + f.Z[z]
			for _, ox := range xs {
				if couldBeOpaque(f.Data[base+ox], lo) {
					return true
				}
			}
		}
	}
	return false
}

// anyOpaqueAt is anyOpaqueFlat through the reader interface, for
// traced views and non-separable layouts.
func anyOpaqueAt[T grid.Scalar](r grid.ReaderOf[T], lo float64, x0, x1, y0, y1, z0, z1 int) bool {
	for z := z0; z <= z1; z++ {
		for y := y0; y <= y1; y++ {
			for x := x0; x <= x1; x++ {
				if couldBeOpaque(r.At(x, y, z), lo) {
					return true
				}
			}
		}
	}
	return false
}

// cellsFor is the number of 8-voxel cells covering an extent.
func cellsFor(n int) uint { return uint(n+(1<<accelShift)-1) >> accelShift }

// cellSpan is the voxel range cell c reads along an axis of extent n:
// its own voxels plus the apron voxel past its high face, clamped.
func cellSpan(c uint, n int) (lo, hi int) {
	lo = int(c) << accelShift
	return lo, min(lo+1<<accelShift, n-1)
}

func (a *Accel) set(ix, iy, iz uint) {
	b := ix | iy<<a.lx | iz<<(a.lx+a.ly)
	a.bits[b>>6] |= 1 << (b & 63)
}

// occupied reports whether a sample at continuous position (x, y, z)
// could be opaque. int truncates toward zero, which matches the
// sampler's clamp-then-floor for every position it clamps into the
// same cell; a position off the map (or NaN) answers true, so the
// sample is taken as usual.
func (a *Accel) occupied(x, y, z float64) bool {
	ix := uint(int(x)) >> accelShift
	iy := uint(int(y)) >> accelShift
	iz := uint(int(z)) >> accelShift
	if ix >= a.cx || iy >= a.cy || iz >= a.cz {
		return true
	}
	b := ix | iy<<a.lx | iz<<(a.lx+a.ly)
	return a.bits[b>>6]&(1<<(b&63)) != 0
}

// pays reports whether the per-sample test earns its cost. It costs
// about an eighth of a sample taken (a 128³ MRI phantom with 1.4% of
// its cells empty renders 13% slower with it), so a map that proves
// fewer than one cell in eight empty is not worth consulting.
func (a *Accel) pays() bool { return a.empty*8 >= int(a.cx*a.cy*a.cz) }

// EmptyFraction is the share of cells the map proves empty.
func (a *Accel) EmptyFraction() float64 {
	return float64(a.empty) / float64(a.cx*a.cy*a.cz)
}

// Bytes is the map's in-memory size.
func (a *Accel) Bytes() int64 { return int64(len(a.bits)) * 8 }

// check reports whether the map was built for an nx×ny×nz volume under
// tf's opacity threshold.
func (a *Accel) check(nx, ny, nz int, tf *TransferFunc) error {
	if a.nx != nx || a.ny != ny || a.nz != nz {
		return fmt.Errorf("render: accel built for %dx%dx%d, volume is %dx%dx%d", a.nx, a.ny, a.nz, nx, ny, nz)
	}
	if th := tf.MinOpaqueValue(); a.threshold != th {
		return fmt.Errorf("render: accel built for opacity threshold %v, transfer function has %v", a.threshold, th)
	}
	return nil
}
