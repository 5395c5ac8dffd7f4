package sfcmem

// Dynamic-dtype facade. The data plane is generic over the element type
// (Scalar: uint8 | uint16 | float32 | float64); callers that know the
// element type at compile time use GridOf[T] and the generic *CtxOf
// kernels for fully monomorphized hot loops. Callers that learn the dtype at run
// time — sfcserved requests, the harness's -dtype sweep axis, raw-file
// tooling — use AnyGrid, a small dynamic wrapper that dispatches to the
// monomorphized instantiation once per call. Every dtype-dependent
// operation is written once, generically, on typed[T]; the dispatch
// cost is one interface call per kernel invocation, never per voxel.

import (
	"context"
	"fmt"
	"io"

	"sfcmem/internal/filter"
	"sfcmem/internal/grid"
	"sfcmem/internal/multires"
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

// AnyGrid wraps a grid of run-time-determined dtype. The zero value is
// unusable; construct with NewAnyGrid, WrapAny, or the *Any generators.
type AnyGrid struct {
	dt Dtype
	g  anyGrid // typed[T] for the T matching dt
}

// anyGrid is the element-type-erased face of a *grid.Grid[T]: every
// AnyGrid operation whose code depends on T, implemented once by
// typed[T].
type anyGrid interface {
	layout() Layout
	bytes() int64
	norm(i, j, k int) float64
	float32() *Grid
	convert(dt Dtype) *AnyGrid
	relayout(target Layout) (*AnyGrid, error)
	subsample(level int, target func(nx, ny, nz int) Layout) (*AnyGrid, error)
	saveRaw(w io.Writer) error
	bilateral(ctx context.Context, dst anyGrid, o FilterOptions) error
	gaussian(ctx context.Context, dst anyGrid, o FilterOptions) error
	render(ctx context.Context, cam Camera, tf *TransferFunc, o RenderOptions) (*Image, error)
	accel(tf *TransferFunc) *Accel
}

// typed is the one implementation of anyGrid. Kernel pairs assert dst
// to typed[T]; the *Any entry points check dtypes match first.
type typed[T Scalar] struct{ g *grid.Grid[T] }

func (t typed[T]) layout() Layout { return t.g.Layout() }

func (t typed[T]) bytes() int64 {
	return int64(len(t.g.Data())) * int64(grid.DtypeFor[T]().Size())
}

func (t typed[T]) norm(i, j, k int) float64 {
	return float64(t.g.At(i, j, k)) / grid.NormScale[T]()
}

func (t typed[T]) float32() *Grid { return grid.ConvertGrid[float32](t.g) }

func (t typed[T]) convert(dt Dtype) *AnyGrid {
	switch dt {
	case U8:
		return WrapAny(grid.ConvertGrid[uint8](t.g))
	case U16:
		return WrapAny(grid.ConvertGrid[uint16](t.g))
	case F64:
		return WrapAny(grid.ConvertGrid[float64](t.g))
	default:
		return WrapAny(grid.ConvertGrid[float32](t.g))
	}
}

func (t typed[T]) relayout(target Layout) (*AnyGrid, error) {
	return wrapErr(t.g.Relayout(target))
}

func (t typed[T]) subsample(level int, target func(nx, ny, nz int) Layout) (*AnyGrid, error) {
	return wrapErr(multires.Subsample(t.g, level, target))
}

func (t typed[T]) saveRaw(w io.Writer) error { return volume.SaveRawOf(w, t.g) }

func (t typed[T]) bilateral(ctx context.Context, dst anyGrid, o FilterOptions) error {
	return filter.ApplyCtxOf[T](ctx, t.g, dst.(typed[T]).g, o)
}

func (t typed[T]) gaussian(ctx context.Context, dst anyGrid, o FilterOptions) error {
	return filter.GaussianConvolveCtxOf[T](ctx, t.g, dst.(typed[T]).g, o)
}

func (t typed[T]) render(ctx context.Context, cam Camera, tf *TransferFunc, o RenderOptions) (*Image, error) {
	return render.RenderCtxOf[T](ctx, t.g, cam, tf, o)
}

func (t typed[T]) accel(tf *TransferFunc) *Accel { return render.BuildAccelOf(t.g, tf) }

// WrapAny erases the element type of a grid.
func WrapAny[T Scalar](g *GridOf[T]) *AnyGrid {
	return &AnyGrid{dt: grid.DtypeFor[T](), g: typed[T]{g}}
}

// wrapErr wraps a typed grid-or-error result.
func wrapErr[T Scalar](g *GridOf[T], err error) (*AnyGrid, error) {
	if err != nil {
		return nil, err
	}
	return WrapAny(g), nil
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
	t, _ := a.g.(typed[T])
	return t.g
}

// Dtype reports the wrapped element type.
func (a *AnyGrid) Dtype() Dtype { return a.dt }

// Dims returns the logical grid extents.
func (a *AnyGrid) Dims() (nx, ny, nz int) { return a.Layout().Dims() }

// Layout returns the wrapped grid's layout.
func (a *AnyGrid) Layout() Layout { return a.g.layout() }

// Bytes reports the in-memory size of the sample buffer, including any
// layout padding.
func (a *AnyGrid) Bytes() int64 { return a.g.bytes() }

// Norm reads sample (i,j,k) normalized to [0,1] (floats pass through).
func (a *AnyGrid) Norm(i, j, k int) float64 { return a.g.norm(i, j, k) }

// Float32 converts the wrapped grid to a float32 Grid (a copy even when
// the dtype is already float32).
func (a *AnyGrid) Float32() *Grid { return a.g.float32() }

// Convert resamples into the target dtype through the normalized [0,1]
// domain.
func (a *AnyGrid) Convert(dt Dtype) *AnyGrid { return a.g.convert(dt) }

// Relayout copies the samples into a new grid under the target layout.
func (a *AnyGrid) Relayout(target Layout) (*AnyGrid, error) { return a.g.relayout(target) }

// SubsampleAny extracts the level-L lattice of a dynamic-dtype volume,
// preserving the element type — the coarse pass of progressive
// delivery, where a compact subset of memory yields a useful answer
// before the full volume is touched.
func SubsampleAny(a *AnyGrid, level int, target func(nx, ny, nz int) Layout) (*AnyGrid, error) {
	return a.g.subsample(level, target)
}

// dtypeMismatch reports an unusable src/dst pairing to a kernel.
func dtypeMismatch(src, dst *AnyGrid) error {
	return fmt.Errorf("sfcmem: dtype mismatch: src %v, dst %v", src.dt, dst.dt)
}

// BilateralAnyCtx runs the bilateral filter on a dynamic-dtype pair;
// src and dst must share a dtype. Dispatches once to the monomorphized
// kernel for that dtype — the hot loop is identical to the typed path.
// On cancellation dst is left partially written.
func BilateralAnyCtx(ctx context.Context, src, dst *AnyGrid, o FilterOptions) error {
	if src.dt != dst.dt {
		return dtypeMismatch(src, dst)
	}
	return src.g.bilateral(ctx, dst.g, o)
}

// GaussianConvolveAnyCtx is the Gaussian baseline on a dynamic-dtype
// pair; src and dst must share a dtype.
func GaussianConvolveAnyCtx(ctx context.Context, src, dst *AnyGrid, o FilterOptions) error {
	if src.dt != dst.dt {
		return dtypeMismatch(src, dst)
	}
	return src.g.gaussian(ctx, dst.g, o)
}

// RenderAnyCtx raycasts a dynamic-dtype volume; a cancelled render
// returns (nil, ctx's error) and discards the partial frame.
func RenderAnyCtx(ctx context.Context, vol *AnyGrid, cam Camera, tf *TransferFunc, o RenderOptions) (*Image, error) {
	return vol.g.render(ctx, cam, tf, o)
}

// BuildAccelAny builds a dynamic-dtype volume's empty-space map under
// tf, for RenderOptions.Accel.
func BuildAccelAny(vol *AnyGrid, tf *TransferFunc) *Accel { return vol.g.accel(tf) }

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
func SaveRawAny(w io.Writer, a *AnyGrid) error { return a.g.saveRaw(w) }

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
	return wrapErr(volume.LoadRawOf[T](r, l))
}
