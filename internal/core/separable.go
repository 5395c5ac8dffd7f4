package core

// Separable is implemented by layouts whose index decomposes into a sum
// of independent per-axis contributions:
//
//	Index(i,j,k) == xs[i] + ys[j] + zs[k]
//
// for three tables returned by AxisOffsets. Array order is separable by
// construction (i + j*nx + k*nx*ny); Z order is separable because the
// dilated per-axis Morton contributions occupy disjoint bit lanes, so
// their OR equals their sum; Tiled and ZTiled are separable because both
// the brick-base and the intra-brick contribution of each coordinate
// depend on that coordinate alone. Hilbert and hierarchical Z order are
// NOT separable — Hilbert has cross-coordinate bit dependencies, and the
// HZ transform depends on the trailing zeros of the full Morton code.
//
// Separability is what the kernels' flat-access fast path builds on: a
// pencil or tile loop resolves the layout once, grabs the three tables,
// and then every voxel access is table loads plus integer adds on a raw
// buffer — no interface dispatch — while keeping the per-access index
// cost identical in form across layouts (the paper's equal-footing
// requirement; see DESIGN.md §7).
type Separable interface {
	Layout
	// AxisOffsets returns the per-axis contribution tables. The slices
	// are the layout's own (len nx, ny, nz) and must not be modified.
	AxisOffsets() (xs, ys, zs []int)
}

// Compile-time checks: the four table-driven layouts are separable.
var (
	_ Separable = (*ArrayOrder)(nil)
	_ Separable = (*ZOrder)(nil)
	_ Separable = (*Tiled)(nil)
	_ Separable = (*ZTiled)(nil)
)

// AxisOffsets returns (identity, yoffset, zoffset): the row-major index
// is i + j*nx + k*nx*ny.
func (a *ArrayOrder) AxisOffsets() (xs, ys, zs []int) { return a.xoffset, a.yoffset, a.zoffset }

// Strides returns the constant per-axis index strides (1, nx, nx*ny):
// array order is the one layout where a unit step is the same integer
// add everywhere, which is what the flat fast path's stride-delta
// arithmetic degenerates to.
func (a *ArrayOrder) Strides() (sx, sy, sz int) { return 1, a.nx, a.nx * a.ny }

// AxisOffsets returns per-axis tables combining each coordinate's brick
// base and intra-brick offset (xb[i]+xr[i], ...): both depend only on
// their own coordinate, so the tiled index is their plain sum.
func (t *Tiled) AxisOffsets() (xs, ys, zs []int) { return t.xoff, t.yoff, t.zoff }

// AxisOffsets returns per-axis tables combining each coordinate's brick
// base and dilated intra-brick Morton contribution (xb[i]+xm[i], ...).
// The Morton parts occupy disjoint bit lanes below the brick volume, so
// the sum of the three tables equals the layout's base+OR index.
func (t *ZTiled) AxisOffsets() (xs, ys, zs []int) { return t.xoff, t.yoff, t.zoff }

// sumAxes builds the combined per-axis table a + b (used by Tiled and
// ZTiled constructors to precompute AxisOffsets tables once).
func sumAxes(a, b []int) []int {
	out := make([]int, len(a))
	for i := range a {
		out[i] = a[i] + b[i]
	}
	return out
}
