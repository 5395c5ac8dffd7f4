package sfcmem

// Dynamic-dtype facade. The data plane is generic over the element type
// (Scalar: uint8 | uint16 | float32 | float64); callers that know the
// element type at compile time use GridOf[T] and the *Of kernels for
// fully monomorphized hot loops. Callers that learn the dtype at run
// time — sfcserved requests, the harness's -dtype sweep axis, raw-file
// tooling — use AnyGrid, a small dynamic wrapper that dispatches to the
// monomorphized instantiation once per call. The dispatch cost is one
// type switch per kernel invocation, never per voxel.

import (
	"context"
	"fmt"
	"io"

	"sfcmem/internal/filter"
	"sfcmem/internal/grid"
	"sfcmem/internal/render"
	"sfcmem/internal/volume"
)

// Scalar is the grid element constraint: the dtypes a volume can store.
type Scalar = grid.Scalar

// Dtype names a Scalar instantiation at run time.
type Dtype = grid.Dtype

// The supported element dtypes.
const (
	U8  = grid.U8
	U16 = grid.U16
	F32 = grid.F32
	F64 = grid.F64
)

// ParseDtype maps a dtype name ("uint8", "u16", "float32", "double",
// ...) to its Dtype.
func ParseDtype(s string) (Dtype, error) { return grid.ParseDtype(s) }

// Dtypes lists the supported dtypes in width order.
func Dtypes() []Dtype { return grid.Dtypes() }

// GridOf is a 3D volume of element type T stored behind a Layout; Grid
// is GridOf[float32].
type GridOf[T Scalar] = grid.Grid[T]

// ReaderOf and WriterOf are the element-typed access interfaces; Reader
// and Writer are their float32 instantiations.
type (
	ReaderOf[T Scalar] = grid.ReaderOf[T]
	WriterOf[T Scalar] = grid.WriterOf[T]
)

// NewGridOf allocates a zero-filled grid of element type T.
func NewGridOf[T Scalar](l Layout) *GridOf[T] { return grid.NewOf[T](l) }

// ConvertGrid resamples a grid into another element type through the
// normalized [0,1] domain (integer dtypes round half-up and clamp).
func ConvertGrid[Dst, Src Scalar](g *GridOf[Src]) *GridOf[Dst] {
	return grid.ConvertGrid[Dst](g)
}

// AnyGrid wraps a grid of run-time-determined dtype. The zero value is
// unusable; construct with NewAnyGrid, WrapAny, or the *Any generators.
type AnyGrid struct {
	dt Dtype
	g  any // *grid.Grid[T] for the T matching dt
}

// WrapAny erases the element type of a grid.
func WrapAny[T Scalar](g *GridOf[T]) *AnyGrid {
	return &AnyGrid{dt: grid.DtypeFor[T](), g: g}
}

// NewAnyGrid allocates a zero-filled grid of the given dtype.
func NewAnyGrid(dt Dtype, l Layout) *AnyGrid {
	switch dt {
	case U8:
		return WrapAny(grid.NewOf[uint8](l))
	case U16:
		return WrapAny(grid.NewOf[uint16](l))
	case F64:
		return WrapAny(grid.NewOf[float64](l))
	default:
		return WrapAny(grid.New(l))
	}
}

// Grids returns the typed grid when the wrapped dtype is T, else nil.
// This is the inverse of WrapAny.
func Grids[T Scalar](a *AnyGrid) *GridOf[T] {
	g, _ := a.g.(*grid.Grid[T])
	return g
}

// Dtype reports the wrapped element type.
func (a *AnyGrid) Dtype() Dtype { return a.dt }

// Dims returns the logical grid extents.
func (a *AnyGrid) Dims() (nx, ny, nz int) { return a.Layout().Dims() }

// Layout returns the wrapped grid's layout.
func (a *AnyGrid) Layout() Layout {
	switch g := a.g.(type) {
	case *grid.Grid[uint8]:
		return g.Layout()
	case *grid.Grid[uint16]:
		return g.Layout()
	case *grid.Grid[float32]:
		return g.Layout()
	case *grid.Grid[float64]:
		return g.Layout()
	}
	panic("sfcmem: zero AnyGrid")
}

// Bytes reports the in-memory size of the sample buffer, including any
// layout padding.
func (a *AnyGrid) Bytes() int64 {
	switch g := a.g.(type) {
	case *grid.Grid[uint8]:
		return int64(len(g.Data()))
	case *grid.Grid[uint16]:
		return int64(len(g.Data())) * 2
	case *grid.Grid[float32]:
		return int64(len(g.Data())) * 4
	case *grid.Grid[float64]:
		return int64(len(g.Data())) * 8
	}
	panic("sfcmem: zero AnyGrid")
}

// Norm reads sample (i,j,k) normalized to [0,1] (floats pass through).
func (a *AnyGrid) Norm(i, j, k int) float64 {
	switch g := a.g.(type) {
	case *grid.Grid[uint8]:
		return float64(g.At(i, j, k)) / 255
	case *grid.Grid[uint16]:
		return float64(g.At(i, j, k)) / 65535
	case *grid.Grid[float32]:
		return float64(g.At(i, j, k))
	case *grid.Grid[float64]:
		return g.At(i, j, k)
	}
	panic("sfcmem: zero AnyGrid")
}

// Float32 converts the wrapped grid to a float32 Grid (a copy even when
// the dtype is already float32).
func (a *AnyGrid) Float32() *Grid {
	switch g := a.g.(type) {
	case *grid.Grid[uint8]:
		return grid.ConvertGrid[float32](g)
	case *grid.Grid[uint16]:
		return grid.ConvertGrid[float32](g)
	case *grid.Grid[float32]:
		return grid.ConvertGrid[float32](g)
	case *grid.Grid[float64]:
		return grid.ConvertGrid[float32](g)
	}
	panic("sfcmem: zero AnyGrid")
}

// Convert resamples into the target dtype through the normalized [0,1]
// domain.
func (a *AnyGrid) Convert(dt Dtype) *AnyGrid {
	switch g := a.g.(type) {
	case *grid.Grid[uint8]:
		return convertAny(g, dt)
	case *grid.Grid[uint16]:
		return convertAny(g, dt)
	case *grid.Grid[float32]:
		return convertAny(g, dt)
	case *grid.Grid[float64]:
		return convertAny(g, dt)
	}
	panic("sfcmem: zero AnyGrid")
}

func convertAny[Src Scalar](g *grid.Grid[Src], dt Dtype) *AnyGrid {
	switch dt {
	case U8:
		return WrapAny(grid.ConvertGrid[uint8](g))
	case U16:
		return WrapAny(grid.ConvertGrid[uint16](g))
	case F64:
		return WrapAny(grid.ConvertGrid[float64](g))
	default:
		return WrapAny(grid.ConvertGrid[float32](g))
	}
}

// Relayout copies the samples into a new grid under the target layout.
func (a *AnyGrid) Relayout(target Layout) (*AnyGrid, error) {
	switch g := a.g.(type) {
	case *grid.Grid[uint8]:
		return relayoutAny(g, target)
	case *grid.Grid[uint16]:
		return relayoutAny(g, target)
	case *grid.Grid[float32]:
		return relayoutAny(g, target)
	case *grid.Grid[float64]:
		return relayoutAny(g, target)
	}
	panic("sfcmem: zero AnyGrid")
}

func relayoutAny[T Scalar](g *grid.Grid[T], target Layout) (*AnyGrid, error) {
	out, err := g.Relayout(target)
	if err != nil {
		return nil, err
	}
	return WrapAny(out), nil
}

// dtypeMismatch reports an unusable src/dst pairing to a kernel.
func dtypeMismatch(src, dst *AnyGrid) error {
	return fmt.Errorf("sfcmem: dtype mismatch: src %v, dst %v", src.dt, dst.dt)
}

func filterApplyCtx[T Scalar](ctx context.Context, src, dst *grid.Grid[T], o FilterOptions) error {
	return filter.ApplyCtxOf[T](ctx, src, dst, o)
}

func gaussCtx[T Scalar](ctx context.Context, src, dst *grid.Grid[T], o FilterOptions) error {
	return filter.GaussianConvolveCtxOf[T](ctx, src, dst, o)
}

func renderCtx[T Scalar](ctx context.Context, vol *grid.Grid[T], cam Camera, tf *TransferFunc, o RenderOptions) (*Image, error) {
	return render.RenderCtxOf[T](ctx, vol, cam, tf, o)
}

// BilateralAnyCtx runs the bilateral filter on a dynamic-dtype pair;
// src and dst must share a dtype. Dispatches once to the monomorphized
// kernel for that dtype — the hot loop is identical to the typed path.
func BilateralAnyCtx(ctx context.Context, src, dst *AnyGrid, o FilterOptions) error {
	if src.dt != dst.dt {
		return dtypeMismatch(src, dst)
	}
	o = ctxFilterOptions(ctx, o)
	switch sg := src.g.(type) {
	case *grid.Grid[uint8]:
		return filterApplyCtx(ctx, sg, dst.g.(*grid.Grid[uint8]), o)
	case *grid.Grid[uint16]:
		return filterApplyCtx(ctx, sg, dst.g.(*grid.Grid[uint16]), o)
	case *grid.Grid[float32]:
		return filterApplyCtx(ctx, sg, dst.g.(*grid.Grid[float32]), o)
	case *grid.Grid[float64]:
		return filterApplyCtx(ctx, sg, dst.g.(*grid.Grid[float64]), o)
	}
	panic("sfcmem: zero AnyGrid")
}

// GaussianConvolveAnyCtx is the Gaussian baseline on a dynamic-dtype
// pair; src and dst must share a dtype.
func GaussianConvolveAnyCtx(ctx context.Context, src, dst *AnyGrid, o FilterOptions) error {
	if src.dt != dst.dt {
		return dtypeMismatch(src, dst)
	}
	o = ctxFilterOptions(ctx, o)
	switch sg := src.g.(type) {
	case *grid.Grid[uint8]:
		return gaussCtx(ctx, sg, dst.g.(*grid.Grid[uint8]), o)
	case *grid.Grid[uint16]:
		return gaussCtx(ctx, sg, dst.g.(*grid.Grid[uint16]), o)
	case *grid.Grid[float32]:
		return gaussCtx(ctx, sg, dst.g.(*grid.Grid[float32]), o)
	case *grid.Grid[float64]:
		return gaussCtx(ctx, sg, dst.g.(*grid.Grid[float64]), o)
	}
	panic("sfcmem: zero AnyGrid")
}

// RenderAnyCtx raycasts a dynamic-dtype volume.
func RenderAnyCtx(ctx context.Context, vol *AnyGrid, cam Camera, tf *TransferFunc, o RenderOptions) (*Image, error) {
	o = ctxRenderOptions(ctx, o)
	switch g := vol.g.(type) {
	case *grid.Grid[uint8]:
		return renderCtx(ctx, g, cam, tf, o)
	case *grid.Grid[uint16]:
		return renderCtx(ctx, g, cam, tf, o)
	case *grid.Grid[float32]:
		return renderCtx(ctx, g, cam, tf, o)
	case *grid.Grid[float64]:
		return renderCtx(ctx, g, cam, tf, o)
	}
	panic("sfcmem: zero AnyGrid")
}

// BuildAccelAny builds a dynamic-dtype volume's empty-space map under
// tf, for RenderOptions.Accel.
func BuildAccelAny(vol *AnyGrid, tf *TransferFunc) *Accel {
	switch g := vol.g.(type) {
	case *grid.Grid[uint8]:
		return render.BuildAccelOf(g, tf)
	case *grid.Grid[uint16]:
		return render.BuildAccelOf(g, tf)
	case *grid.Grid[float32]:
		return render.BuildAccelOf(g, tf)
	case *grid.Grid[float64]:
		return render.BuildAccelOf(g, tf)
	}
	panic("sfcmem: zero AnyGrid")
}

// MRIPhantomAny synthesizes the MRI head phantom at the given dtype.
// Every dtype quantizes the same float32 field, so cross-dtype results
// are comparable sample for sample.
func MRIPhantomAny(dt Dtype, l Layout, seed uint64, noiseSigma float64) *AnyGrid {
	switch dt {
	case U8:
		return WrapAny(volume.MRIPhantomOf[uint8](l, seed, noiseSigma))
	case U16:
		return WrapAny(volume.MRIPhantomOf[uint16](l, seed, noiseSigma))
	case F64:
		return WrapAny(volume.MRIPhantomOf[float64](l, seed, noiseSigma))
	default:
		return WrapAny(volume.MRIPhantom(l, seed, noiseSigma))
	}
}

// CombustionPlumeAny synthesizes the combustion plume at the given
// dtype.
func CombustionPlumeAny(dt Dtype, l Layout, seed uint64) *AnyGrid {
	switch dt {
	case U8:
		return WrapAny(volume.CombustionPlumeOf[uint8](l, seed))
	case U16:
		return WrapAny(volume.CombustionPlumeOf[uint16](l, seed))
	case F64:
		return WrapAny(volume.CombustionPlumeOf[float64](l, seed))
	default:
		return WrapAny(volume.CombustionPlume(l, seed))
	}
}

// SaveRawAny writes the wrapped grid as little-endian samples in
// row-major order at its native width.
func SaveRawAny(w io.Writer, a *AnyGrid) error {
	switch g := a.g.(type) {
	case *grid.Grid[uint8]:
		return volume.SaveRawOf(w, g)
	case *grid.Grid[uint16]:
		return volume.SaveRawOf(w, g)
	case *grid.Grid[float32]:
		return volume.SaveRawOf(w, g)
	case *grid.Grid[float64]:
		return volume.SaveRawOf(w, g)
	}
	panic("sfcmem: zero AnyGrid")
}

// LoadRawAny reads a row-major little-endian raw volume of the given
// dtype into a grid under the given layout, rejecting truncated and
// oversized payloads.
func LoadRawAny(r io.Reader, dt Dtype, l Layout) (*AnyGrid, error) {
	switch dt {
	case U8:
		return loadRawAny[uint8](r, l)
	case U16:
		return loadRawAny[uint16](r, l)
	case F64:
		return loadRawAny[float64](r, l)
	default:
		return loadRawAny[float32](r, l)
	}
}

func loadRawAny[T Scalar](r io.Reader, l Layout) (*AnyGrid, error) {
	g, err := volume.LoadRawOf[T](r, l)
	if err != nil {
		return nil, err
	}
	return WrapAny(g), nil
}
