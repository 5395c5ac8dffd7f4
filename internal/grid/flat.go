package grid

import "sfcmem/internal/core"

// Flat is a devirtualized view of a Grid under a separable layout: the
// raw buffer plus the layout's per-axis offset tables, resolved once so
// kernel hot loops touch voxels with table loads and integer adds
// instead of two interface dispatches (Reader.At → Layout.Index) per
// access. Every built-in layout except Hilbert and hierarchical Z order
// supports it.
//
// Flat deliberately keeps the per-access index cost identical in form
// across layouts — one load per axis table plus two adds — so the
// paper's equal-footing comparison between layouts survives the
// devirtualization (DESIGN.md §7). The same holds across dtypes: the
// index arithmetic is element-size independent, so narrow dtypes pay
// the same index cost and reap the cache-line packing win. Traced
// views are never flattened: the cache-simulation experiments must
// observe every access through the interface path.
//
// The fields are exported for the kernels' inner loops; treat them as
// read-only except Data, which Set also writes through.
type Flat[T Scalar] struct {
	// Data is the grid's backing buffer, including layout padding.
	Data []T
	// X, Y, Z are the layout's per-axis offset tables:
	// Data[X[i]+Y[j]+Z[k]] is element (i,j,k).
	X, Y, Z []int
	// Nx, Ny, Nz are the logical grid extents (= len(X), len(Y), len(Z)).
	Nx, Ny, Nz int
}

// Flat returns a flat view of the grid, or ok == false when the grid's
// layout is not separable (Hilbert, hierarchical Z) and the caller must
// stay on the interface path.
func (g *Grid[T]) Flat() (Flat[T], bool) {
	sep, ok := g.layout.(core.Separable)
	if !ok {
		return Flat[T]{}, false
	}
	xs, ys, zs := sep.AxisOffsets()
	nx, ny, nz := g.layout.Dims()
	return Flat[T]{Data: g.data, X: xs, Y: ys, Z: zs, Nx: nx, Ny: ny, Nz: nz}, true
}

// Flatten returns a flat view when r is a plain *Grid with a separable
// layout, and nil otherwise. Traced views (and any other Reader
// implementation) intentionally return nil so every access they serve
// stays observable on the interface path.
func Flatten[T Scalar](r ReaderOf[T]) *Flat[T] {
	g, ok := r.(*Grid[T])
	if !ok {
		return nil
	}
	if f, ok := g.Flat(); ok {
		return &f
	}
	return nil
}

// FlattenWriter is Flatten for the write side.
func FlattenWriter[T Scalar](w WriterOf[T]) *Flat[T] {
	g, ok := w.(*Grid[T])
	if !ok {
		return nil
	}
	if f, ok := g.Flat(); ok {
		return &f
	}
	return nil
}

// Index returns the buffer offset of (i,j,k).
func (f *Flat[T]) Index(i, j, k int) int { return f.X[i] + f.Y[j] + f.Z[k] }

// At returns the sample at (i,j,k).
func (f *Flat[T]) At(i, j, k int) T { return f.Data[f.X[i]+f.Y[j]+f.Z[k]] }

// Set stores v at (i,j,k).
func (f *Flat[T]) Set(i, j, k int, v T) { f.Data[f.X[i]+f.Y[j]+f.Z[k]] = v }

// Dims returns the volume extents.
func (f *Flat[T]) Dims() (nx, ny, nz int) { return f.Nx, f.Ny, f.Nz }

// SampleFlat is the renderer's per-ray sampling primitive on the flat
// path: identical arithmetic to SampleReader (bit-identical results
// for matching T and A), but the 8 corner fetches share one base index
// advanced by per-axis table deltas — the stride-delta form of the
// layouts' incremental index update — instead of 8 full Index
// computations through two interface calls each. Corner samples widen
// to the accumulator A and the result is scaled by inv (1 for float
// dtypes, skipping the multiply).
func SampleFlat[T Scalar, A Accum](f *Flat[T], inv A, x, y, z float64) float32 {
	x = clamp(x, 0, float64(f.Nx-1))
	y = clamp(y, 0, float64(f.Ny-1))
	z = clamp(z, 0, float64(f.Nz-1))
	i0 := int(x)
	j0 := int(y)
	k0 := int(z)
	i1, j1, k1 := i0+1, j0+1, k0+1
	if i1 > f.Nx-1 {
		i1 = f.Nx - 1
	}
	if j1 > f.Ny-1 {
		j1 = f.Ny - 1
	}
	if k1 > f.Nz-1 {
		k1 = f.Nz - 1
	}
	fx := A(x - float64(i0))
	fy := A(y - float64(j0))
	fz := A(z - float64(k0))

	base := f.X[i0] + f.Y[j0] + f.Z[k0]
	dx := f.X[i1] - f.X[i0]
	dy := f.Y[j1] - f.Y[j0]
	dz := f.Z[k1] - f.Z[k0]

	c000 := A(f.Data[base])
	c100 := A(f.Data[base+dx])
	c010 := A(f.Data[base+dy])
	c110 := A(f.Data[base+dx+dy])
	c001 := A(f.Data[base+dz])
	c101 := A(f.Data[base+dx+dz])
	c011 := A(f.Data[base+dy+dz])
	c111 := A(f.Data[base+dx+dy+dz])

	c00 := c000 + (c100-c000)*fx
	c10 := c010 + (c110-c010)*fx
	c01 := c001 + (c101-c001)*fx
	c11 := c011 + (c111-c011)*fx
	c0 := c00 + (c10-c00)*fy
	c1 := c01 + (c11-c01)*fy
	c := c0 + (c1-c0)*fz
	if inv != 1 {
		c *= inv
	}
	return float32(c)
}

// SampleTrilinear is SampleFlat with a float32 accumulator and no
// normalization — bit-identical to the pre-generic float32 flat path.
func (f *Flat[T]) SampleTrilinear(x, y, z float64) float32 {
	return SampleFlat(f, float32(1), x, y, z)
}

// GradientFlat is the central-difference gradient on the flat path,
// computed in the accumulator A; for matching T and A it is
// bit-identical to GradientReader.
func GradientFlat[T Scalar, A Accum](f *Flat[T], i, j, k int) (gx, gy, gz float32) {
	sample := func(i, j, k int) A {
		return A(f.Data[f.X[clampI(i, 0, f.Nx-1)]+f.Y[clampI(j, 0, f.Ny-1)]+f.Z[clampI(k, 0, f.Nz-1)]])
	}
	gx = float32((sample(i+1, j, k) - sample(i-1, j, k)) * 0.5)
	gy = float32((sample(i, j+1, k) - sample(i, j-1, k)) * 0.5)
	gz = float32((sample(i, j, k+1) - sample(i, j, k-1)) * 0.5)
	return gx, gy, gz
}

// Gradient is GradientFlat with a float32 accumulator — bit-identical
// to the pre-generic float32 flat path.
func (f *Flat[T]) Gradient(i, j, k int) (gx, gy, gz float32) {
	return GradientFlat[T, float32](f, i, j, k)
}
