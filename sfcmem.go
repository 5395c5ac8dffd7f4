// Package sfcmem is a space-filling-curve memory layout library for
// structured-memory, data-intensive applications, reproducing Bethel,
// Camp, Donofrio & Howison, "Improving Performance of Structured-Memory,
// Data-Intensive Applications on Multi-core Platforms via a Space-
// Filling Curve Memory Layout" (IPDPS 2015 Workshops / HPDIC 2015).
//
// The library stores 3D volumes behind a uniform Index(i,j,k) accessor
// whose backing layout is pluggable: traditional array (row-major)
// order, Z order (a Morton space-filling curve), 3D tiling, or Hilbert
// order. Z order's property — accesses nearby in index space are likely
// nearby in physical memory regardless of direction — improves cache
// behaviour for structured and semi-structured access patterns without
// changing application code.
//
// Two complete shared-memory-parallel kernels from visualization and
// analysis exercise the layouts, as in the paper: a 3D bilateral filter
// (structured stencil access) and a raycasting volume renderer
// (semi-structured, viewpoint-dependent access). A trace-driven cache
// simulator stands in for the paper's PAPI hardware counters, and the
// experiment harness regenerates every table and figure of the paper's
// evaluation (see EXPERIMENTS.md).
//
// # Quick start
//
//	l := sfcmem.NewLayout(sfcmem.ZOrder, 256, 256, 256)
//	g := sfcmem.NewGrid(l)
//	g.Set(10, 20, 30, 1.5)
//	v := g.At(10, 20, 30)
//
// See examples/ for runnable programs and DESIGN.md for the system
// inventory. This package is a thin facade over the implementation
// packages in internal/.
package sfcmem

import (
	"sfcmem/internal/cache"
	"sfcmem/internal/core"
	"sfcmem/internal/filter"
	"sfcmem/internal/grid"
	"sfcmem/internal/multires"
	"sfcmem/internal/parallel"
	"sfcmem/internal/render"
	"sfcmem/internal/volume"
)

// Layout maps 3D grid indices to linear buffer offsets; see core.Layout.
type Layout = core.Layout

// Kind enumerates the built-in layouts.
type Kind = core.Kind

// Built-in layout kinds.
const (
	// Array is traditional row-major order.
	Array = core.ArrayKind
	// ZOrder is the Z-order (Morton) space-filling curve layout — the
	// paper's contribution.
	ZOrder = core.ZKind
	// Tiled is a 3D blocked layout (classic cache blocking).
	Tiled = core.TiledKind
	// Hilbert is the Hilbert space-filling curve layout.
	Hilbert = core.HilbertKind
	// ZTiled is the Morton-within-bricks layout: Z-order locality at
	// cache-line and page scale without the power-of-two padding blowup
	// of pure Z order (the paper's §V limitation).
	ZTiled = core.ZTiledKind
	// HZOrder is the hierarchical Z-order layout (Pascucci & Frank
	// 2001): Morton samples regrouped by resolution level so every
	// power-of-two subsampling lattice is a contiguous buffer prefix.
	HZOrder = core.HZKind
)

// NewLayout constructs a layout of the given kind for an nx×ny×nz grid.
func NewLayout(kind Kind, nx, ny, nz int) Layout { return core.New(kind, nx, ny, nz) }

// ParseLayout maps a layout name ("array", "zorder", "tiled",
// "hilbert", and their aliases) to its Kind.
func ParseLayout(name string) (Kind, error) { return core.ParseKind(name) }

// ParseLayoutSpec resolves a layout specification string for an
// nx×ny×nz grid: either a kind name as accepted by ParseLayout, or a
// parameterized generalized-Morton interleave ("bit:yxzyxz…"). Layout
// strings that travel — volume manifests, upload parameters, tuner
// results — go through this so a tuned layout reconstructs exactly.
func ParseLayoutSpec(spec string, nx, ny, nz int) (Layout, error) {
	return core.ParseSpec(spec, nx, ny, nz)
}

// StrideStats quantifies a layout's physical-memory locality for a
// given access direction; see core.AxisStride and core.RayStride.
type StrideStats = core.StrideStats

// AxisStride measures stride statistics for unit steps along axis
// (0=x, 1=y, 2=z).
func AxisStride(l Layout, axis int) StrideStats { return core.AxisStride(l, axis) }

// Grid is a 3D float32 volume stored behind a Layout.
type Grid = grid.Grid[float32]

// Reader is read-only access to a volume; Writer is write access. Both
// *Grid and traced views satisfy them.
type (
	Reader = grid.Reader
	Writer = grid.Writer
)

// NewGrid allocates a zero-filled grid under the given layout.
func NewGrid(l Layout) *Grid { return grid.New(l) }

// Traced is a view of a Grid that reports every access to a Sink (for
// cache simulation); Sink consumes the access stream.
type (
	Traced = grid.Traced[float32]
	Sink   = grid.Sink
)

// NewTraced wraps g in a traced view based at the given simulated byte
// address.
func NewTraced(g *Grid, base uint64, sink Sink) *Traced { return grid.NewTraced(g, base, sink) }

// Axis selects a pencil direction for the filter's work decomposition.
type Axis = parallel.Axis

// Pencil axes.
const (
	AxisX = parallel.AxisX
	AxisY = parallel.AxisY
	AxisZ = parallel.AxisZ
)

// FilterOptions configures the 3D bilateral filter.
type FilterOptions = filter.Options

// FilterOrder is the stencil iteration order (XYZ or ZYX).
type FilterOrder = filter.Order

// Stencil iteration orders.
const (
	XYZ = filter.XYZ
	ZYX = filter.ZYX
)

// Bilateral runs the shared-memory-parallel 3D bilateral filter from
// src into dst.
func Bilateral(src Reader, dst Writer, o FilterOptions) error { return filter.Apply(src, dst, o) }

// BilateralViews runs the filter with per-worker source/destination
// views (used to attach traced views for cache simulation).
func BilateralViews(srcs []Reader, dsts []Writer, o FilterOptions) error {
	return filter.ApplyViews(srcs, dsts, o)
}

// Renderer types.
type (
	// Camera is a perspective pinhole camera.
	Camera = render.Camera
	// TransferFunc maps scalar values to color and opacity.
	TransferFunc = render.TransferFunc
	// RenderOptions configures a render.
	RenderOptions = render.Options
	// Accel is a volume's exact empty-space map under a transfer
	// function (RenderOptions.Accel).
	Accel = render.Accel
	// Image is the float32 RGBA framebuffer a render produces.
	Image = render.Image
	// RGBA is a straight-alpha color sample.
	RGBA = render.RGBA
)

// Orbit returns the camera for orbit position view of nViews around an
// nx×ny×nz volume (the paper's viewpoint sweep).
func Orbit(view, nViews, nx, ny, nz, imgW, imgH int) Camera {
	return render.Orbit(view, nViews, nx, ny, nz, imgW, imgH)
}

// DefaultTransferFunc is a flame-like transfer function suited to the
// combustion plume.
func DefaultTransferFunc() *TransferFunc { return render.DefaultTransferFunc() }

// Cache-simulation types: a Platform describes a cache hierarchy, a
// System simulates it, and per-thread Fronts consume access streams
// (each Front is a Sink).
type (
	Platform    = cache.Platform
	CacheSystem = cache.System
	CacheReport = cache.Report
)

// IvyBridgePlatform models the paper's Ivy Bridge test machine
// (32K L1 / 256K L2 private, 30M shared L3).
func IvyBridgePlatform() Platform { return cache.IvyBridge() }

// ScaledPlatform divides a platform's cache capacities by a power-of-two
// factor, for simulating shrunken volumes at preserved working-set
// ratios.
func ScaledPlatform(p Platform, factor int) Platform { return cache.Scaled(p, factor) }

// NewCacheSystem builds a simulated memory system with one private
// hierarchy per simulated thread.
func NewCacheSystem(p Platform, threads int) *CacheSystem { return cache.NewSystem(p, threads) }

// QueryCost reports the cache lines, pages and byte span a
// multiresolution query touches.
type QueryCost = multires.QueryCost

// SubsampleCost measures the memory a layout must touch to read the
// level-L subsampling lattice (the ref [7] use case).
func SubsampleCost(l Layout, level int) (QueryCost, error) {
	return multires.SubsampleCost(l, level)
}

// Dataset generators (the experiment stand-ins; see DESIGN.md §2).

// MRIPhantom synthesizes an MRI-like head phantom with additive noise.
func MRIPhantom(l Layout, seed uint64, noiseSigma float64) *Grid {
	return volume.MRIPhantom(l, seed, noiseSigma)
}
