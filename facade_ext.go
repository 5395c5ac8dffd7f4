package sfcmem

import (
	"io"

	"sfcmem/internal/core"
	"sfcmem/internal/grid"
	"sfcmem/internal/multires"
	"sfcmem/internal/reuse"
	"sfcmem/internal/trace"
	"sfcmem/internal/tune"
	"sfcmem/internal/volume"
)

// InverseLayout is implemented by layouts that can map buffer offsets
// back to grid coordinates, enabling storage-order traversal
// (Grid.ForEachStorage). All built-in layouts implement it.
type InverseLayout = core.Inverse

// ZTiled is the Morton-within-bricks layout: Z-order locality at cache-
// line and page scale without the power-of-two padding blowup of pure
// Z order (the paper's §V limitation).
const ZTiled = core.ZTiledKind

// NewZTiledLayout builds a Morton-in-bricks layout with an explicit
// brick edge (a power of two); NewLayout(ZTiled, ...) uses the default.
func NewZTiledLayout(nx, ny, nz, brick int) Layout { return core.NewZTiled(nx, ny, nz, brick) }

// ReuseAnalyzer computes LRU reuse-distance profiles from access
// streams; it implements Sink, so it attaches to traced grids exactly
// like a cache front.
type ReuseAnalyzer = reuse.Analyzer

// ReuseHistogram is a reuse-distance profile; its MissRatio method
// predicts fully-associative LRU miss ratios for any cache size.
type ReuseHistogram = reuse.Histogram

// NewReuseAnalyzer returns an empty reuse-distance analyzer.
func NewReuseAnalyzer(capacityHint int) *ReuseAnalyzer { return reuse.NewAnalyzer(capacityHint) }

// TraceWriter records an access stream to an io.Writer in the trace
// file format; it implements Sink.
type TraceWriter = trace.Writer

// NewTraceWriter starts a trace file on w.
func NewTraceWriter(w io.Writer) (*TraceWriter, error) { return trace.NewWriter(w) }

// ReplayTrace replays a recorded trace into sink, returning the number
// of accesses delivered.
func ReplayTrace(r io.Reader, sink Sink) (uint64, error) { return trace.Replay(r, sink) }

// Auto-tuning (empirical blocking-factor search over the simulated
// platforms).
type (
	// TuneConfig fixes the kernel configuration a parameter is tuned for.
	TuneConfig = tune.FilterConfig
	// TuneResult records one candidate's score.
	TuneResult = tune.Result
)

// TuneTileSize finds the Tiled layout's best tile edge for the given
// filter configuration (nil candidates = defaults).
func TuneTileSize(cfg TuneConfig, candidates []int) (best int, results []TuneResult, err error) {
	return tune.TileSize(cfg, candidates)
}

// TuneBrickSize finds the ZTiled layout's best brick edge.
func TuneBrickSize(cfg TuneConfig, candidates []int) (best int, results []TuneResult, err error) {
	return tune.BrickSize(cfg, candidates)
}

// HZOrder is the hierarchical Z-order layout (Pascucci & Frank 2001):
// Morton samples regrouped by resolution level so every power-of-two
// subsampling lattice is a contiguous buffer prefix.
const HZOrder = core.HZKind

// Multiresolution queries (the ref [7] use case).
type (
	// SliceAxis selects an axis-aligned slice orientation.
	SliceAxis = multires.SliceAxis
	// QueryCost reports the lines/pages/span a query touches.
	QueryCost = multires.QueryCost
)

// Slice orientations.
const (
	SliceX = multires.SliceX
	SliceY = multires.SliceY
	SliceZ = multires.SliceZ
)

// Subsample extracts the level-L lattice of src into a new grid whose
// layout is produced by target.
func Subsample(src *Grid, level int, target func(nx, ny, nz int) Layout) (*Grid, error) {
	return multires.Subsample(src, level, target)
}

// SubsampleOf is Subsample for any element type: pure sample selection,
// so the output is bit-identical to the source lattice at every dtype.
func SubsampleOf[T Scalar](src *GridOf[T], level int, target func(nx, ny, nz int) Layout) (*GridOf[T], error) {
	return multires.Subsample(src, level, target)
}

// SliceOf extracts an axis-aligned plane (optionally subsampled by
// 2^level per in-plane axis) as a dense row-major image of the source
// element type.
func SliceOf[T Scalar](src *GridOf[T], axis SliceAxis, at, level int) (pix []T, w, h int, err error) {
	return multires.Slice(src, axis, at, level)
}

// SubsampleAny extracts the level-L lattice of a dynamic-dtype volume,
// preserving the element type — the coarse pass of progressive
// delivery, where a compact subset of memory yields a useful answer
// before the full volume is touched.
func SubsampleAny(a *AnyGrid, level int, target func(nx, ny, nz int) Layout) (*AnyGrid, error) {
	return a.g.subsample(level, target)
}

// SliceCost measures the memory a layout must touch to serve an
// axis-aligned slice query.
func SliceCost(l Layout, axis SliceAxis, at, level int) (QueryCost, error) {
	return multires.SliceCost(l, axis, at, level)
}

// SubsampleCost measures the memory a layout must touch to read the
// level-L subsampling lattice.
func SubsampleCost(l Layout, level int) (QueryCost, error) {
	return multires.SubsampleCost(l, level)
}

// SeparableLayout is implemented by layouts whose index factors into
// per-axis offset tables: Index(i,j,k) = xs[i] + ys[j] + zs[k]. Array
// order, Z order, Tiled, and ZTiled are separable; Hilbert and
// hierarchical Z order are not (their bit transforms couple the axes).
// Separable layouts power the kernels' flat-access fast path
// (DESIGN.md §7).
type SeparableLayout = core.Separable

// FlatGrid is a devirtualized view of a grid under a separable layout:
// the raw sample buffer plus the per-axis offset tables, for hot loops
// that cannot afford two interface dispatches per access.
type FlatGrid = grid.Flat[float32]

// Flatten returns the flat view when r is a plain grid with a separable
// layout, and nil otherwise — in particular for traced views, which
// must keep every access observable on the interface path.
func Flatten(r Reader) *FlatGrid { return grid.Flatten(r) }

// SaveRawVolume writes a grid as little-endian float32 in row-major
// order (the interchange format of most scientific-visualization data).
func SaveRawVolume(w io.Writer, g *Grid) error { return volume.SaveRaw(w, g) }

// LoadRawVolume reads a row-major float32 volume into a grid under the
// given layout.
func LoadRawVolume(r io.Reader, l Layout) (*Grid, error) { return volume.LoadRaw(r, l) }
