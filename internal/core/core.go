// Package core implements the paper's primary contribution: a lightweight
// memory-layout library that puts array-order (row-major) and Z-order
// (Morton-order space-filling curve) indexing behind one interface, with
// the index computation cost on deliberately equal footing.
//
// Per the paper (§III-C), both layouts are driven by small static tables
// built once at initialization:
//
//   - array order: a yoffset table (yoffset[j] = j*nx) and a zoffset
//     table (zoffset[k] = k*nx*ny); Index is two loads and two adds.
//   - Z order: three per-axis tables of dilated (bit-spread) coordinate
//     contributions; Index is three loads and two adds (the lanes are
//     disjoint, so the adds are the paper's ORs).
//
// So the measured runtime difference between the two reflects memory
// locality, not indexing arithmetic.
//
// Z order is not a separate implementation: it is the round-robin
// instance ("xyzxyz…") of BitLayout, the generalized-Morton layout
// whose interleave string assigns every index bit to an axis and which
// the autotuner (internal/tune) searches.
//
// Further layouts support the paper's related-work comparisons: Tiled
// (cache blocking, §II-A), Hilbert (Reissmann et al. 2014, §II-B),
// ZTiled (Morton inside bricks, §V) and HZOrder (Pascucci & Frank 2001).
// Applications access all of them through the Layout interface, exactly
// as the paper's getIndex(i,j,k) call.
package core

import (
	"fmt"
	"strings"

	"sfcmem/internal/hilbert"
	"sfcmem/internal/morton"
)

// Layout maps a 3D structured-grid index (i,j,k) to a linear offset into
// a flat buffer. i varies fastest in the array-order sense: 0 <= i < nx,
// 0 <= j < ny, 0 <= k < nz.
//
// Implementations guarantee that Index is injective over the grid and
// that every returned offset is in [0, Len()).
type Layout interface {
	// Index returns the buffer offset of element (i,j,k).
	Index(i, j, k int) int
	// Dims returns the logical grid extents.
	Dims() (nx, ny, nz int)
	// Len returns the buffer length required to hold the grid under
	// this layout. For array order this is nx*ny*nz; space-filling
	// layouts may require power-of-two padding (paper §V).
	Len() int
	// Name returns the layout's registry name ("array", "zorder", ...).
	Name() string
}

// Kind enumerates the built-in layouts.
type Kind int

const (
	// ArrayKind is traditional row-major ("array order" in the paper).
	ArrayKind Kind = iota
	// ZKind is the Z-order / Morton-order space-filling curve layout.
	ZKind
	// TiledKind is a 3D blocked/tiled layout (the classic cache-blocking
	// alternative the paper discusses as previous work).
	TiledKind
	// HilbertKind is the Hilbert space-filling curve layout.
	HilbertKind
	// ZTiledKind is Morton-within-bricks: Z-order locality without the
	// power-of-two padding blowup (the paper's §V future work).
	ZTiledKind
	// HZKind is hierarchical Z order (Pascucci & Frank 2001): Morton
	// samples regrouped by resolution level for progressive access.
	HZKind
)

// String returns the registry name of the kind.
func (k Kind) String() string {
	switch k {
	case ArrayKind:
		return "array"
	case ZKind:
		return "zorder"
	case TiledKind:
		return "tiled"
	case HilbertKind:
		return "hilbert"
	case ZTiledKind:
		return "ztiled"
	case HZKind:
		return "hzorder"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// ParseKind maps a layout name (as accepted by the command-line tools)
// to its Kind, folding case and surrounding whitespace. Recognized:
// "array"/"a"/"row-major"/"rowmajor", "zorder"/"z"/"morton"/"z-order",
// "tiled"/"blocked"/"t", "hilbert"/"h",
// "ztiled"/"zt"/"morton-tiled"/"bricked", and
// "hzorder"/"hz"/"hierarchical".
func ParseKind(s string) (Kind, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "array", "a", "row-major", "rowmajor":
		return ArrayKind, nil
	case "zorder", "z", "morton", "z-order":
		return ZKind, nil
	case "tiled", "blocked", "t":
		return TiledKind, nil
	case "hilbert", "h":
		return HilbertKind, nil
	case "ztiled", "zt", "morton-tiled", "bricked":
		return ZTiledKind, nil
	case "hzorder", "hz", "hierarchical":
		return HZKind, nil
	}
	return 0, fmt.Errorf("core: unknown layout %q (recognized: array, zorder, tiled, hilbert, ztiled, hzorder)", s)
}

// ParseSpec resolves a layout specification string for an nx×ny×nz
// grid. A spec is either a registry kind name as accepted by ParseKind
// ("zorder", "tiled", …) or a parameterized generalized-Morton
// interleave ("bit:yxzyxz…", see BitLayout). This is the constructor
// for every layout string that travels — volume manifests, upload
// query parameters, -volume flags — so a tuned layout persisted as
// "bit:…" reconstructs exactly on reload.
func ParseSpec(spec string, nx, ny, nz int) (Layout, error) {
	s := strings.ToLower(strings.TrimSpace(spec))
	if rest, ok := strings.CutPrefix(s, BitSpecPrefix); ok {
		return NewBitLayout(nx, ny, nz, rest)
	}
	kind, err := ParseKind(s)
	if err != nil {
		return nil, err
	}
	return New(kind, nx, ny, nz), nil
}

// New constructs a layout of the given kind for an nx×ny×nz grid.
// TiledKind uses DefaultTile; use NewTiled for a specific tile edge.
func New(kind Kind, nx, ny, nz int) Layout {
	switch kind {
	case ArrayKind:
		return NewArrayOrder(nx, ny, nz)
	case ZKind:
		return NewZOrder(nx, ny, nz)
	case TiledKind:
		return NewTiled(nx, ny, nz, DefaultTile)
	case HilbertKind:
		return NewHilbert(nx, ny, nz)
	case ZTiledKind:
		return NewZTiled(nx, ny, nz, DefaultBrick)
	case HZKind:
		return NewHZOrder(nx, ny, nz)
	}
	panic(fmt.Sprintf("core: invalid kind %d", int(kind)))
}

// Kinds lists all built-in layout kinds in a stable order.
func Kinds() []Kind {
	return []Kind{ArrayKind, ZKind, TiledKind, HilbertKind, ZTiledKind, HZKind}
}

func checkDims(nx, ny, nz int) {
	if nx <= 0 || ny <= 0 || nz <= 0 {
		panic(fmt.Sprintf("core: grid extents %dx%dx%d must be positive", nx, ny, nz))
	}
}

// ArrayOrder is the traditional row-major layout, implemented with the
// paper's offset tables so its index cost matches ZOrder's.
type ArrayOrder struct {
	xoffset    []int // xoffset[i] = i (identity; completes AxisOffsets)
	yoffset    []int // yoffset[j] = j * nx
	zoffset    []int // zoffset[k] = k * nx * ny
	nx, ny, nz int
}

// NewArrayOrder builds an array-order layout for an nx×ny×nz grid.
func NewArrayOrder(nx, ny, nz int) *ArrayOrder {
	checkDims(nx, ny, nz)
	a := &ArrayOrder{nx: nx, ny: ny, nz: nz}
	a.xoffset = make([]int, nx)
	for i := 0; i < nx; i++ {
		a.xoffset[i] = i
	}
	a.yoffset = make([]int, ny)
	for j := 0; j < ny; j++ {
		a.yoffset[j] = j * nx
	}
	a.zoffset = make([]int, nz)
	for k := 0; k < nz; k++ {
		a.zoffset[k] = k * nx * ny
	}
	return a
}

// Index returns i + j*nx + k*nx*ny via two table loads and two adds.
func (a *ArrayOrder) Index(i, j, k int) int { return i + a.yoffset[j] + a.zoffset[k] }

// Dims returns the grid extents.
func (a *ArrayOrder) Dims() (nx, ny, nz int) { return a.nx, a.ny, a.nz }

// Len returns nx*ny*nz: array order needs no padding.
func (a *ArrayOrder) Len() int { return a.nx * a.ny * a.nz }

// Name returns "array".
func (a *ArrayOrder) Name() string { return "array" }

// ZOrder is the Z-order (Morton) space-filling curve layout: the
// BitLayout whose interleave is the round-robin spec "xyzxyz…", so bit n
// of i lands at index bit 3n, of j at 3n+1 and of k at 3n+2 — exactly
// morton.Encode3. Its tables are the paper's three per-axis tables of
// dilated coordinate bits (§III-C); Index, Len, Overhead, AxisOffsets,
// Coords and StepX are BitLayout's. Non-power-of-two extents pad the
// buffer to the far corner's code plus one (paper §V).
type ZOrder struct{ BitLayout }

// NewZOrder builds a Z-order layout for an nx×ny×nz grid. Every axis
// gets as many interleave slots as the largest extent needs, so the
// code is the plain Morton code; extents past morton.Max3+1 (21 bits
// per axis) do not fit the 63-bit index and panic.
func NewZOrder(nx, ny, nz int) *ZOrder {
	checkDims(nx, ny, nz)
	for _, n := range [3]int{nx, ny, nz} {
		if n > morton.Max3+1 {
			panic(fmt.Sprintf("core: zorder extent %d out of range [1, %d]", n, morton.Max3+1))
		}
	}
	spec := "x" // 1×1×1 grid: any single-letter spec addresses it
	if b := max(bitsFor(nx), bitsFor(ny), bitsFor(nz)); b > 0 {
		spec = strings.Repeat("xyz", b)
	}
	bl, err := NewBitLayout(nx, ny, nz, spec)
	if err != nil {
		panic(err) // unreachable: the spec addresses every extent in range
	}
	return &ZOrder{*bl}
}

// Name returns "zorder", not the BitLayout's "bit:xyz…" spec name:
// Z order keeps its registry name in manifests and responses.
func (z *ZOrder) Name() string { return "zorder" }

// DefaultTile is the default tile edge for the Tiled layout: 64 float32
// elements per tile row would overshoot, 8³ tiles (2KB of float32) sit
// comfortably inside an L1 cache, matching common blocking practice.
const DefaultTile = 8

// Tiled is a 3D blocked layout: the grid is cut into tile×tile×tile
// bricks stored contiguously, bricks ordered row-major, elements inside
// a brick ordered row-major. Like the other layouts it is table-driven:
// per-axis tables hold the precomputed brick base contribution and the
// intra-brick offset contribution, so Index is six loads and four adds.
type Tiled struct {
	// xb[i] = (i/tile)        * tile³   — brick column base (scaled later)
	// xr[i] = i%tile                    — intra-brick x offset
	xb, yb, zb []int
	xr, yr, zr []int
	// Combined per-axis tables xoff = xb+xr etc. (AxisOffsets).
	xoff, yoff, zoff []int
	nx, ny, nz       int
	tile             int
	length           int
}

// NewTiled builds a tiled layout with the given tile edge. Extents that
// are not multiples of the tile edge are padded up to the next multiple.
func NewTiled(nx, ny, nz, tile int) *Tiled {
	checkDims(nx, ny, nz)
	if tile <= 0 {
		panic("core: tile edge must be positive")
	}
	ceil := func(n int) int { return (n + tile - 1) / tile }
	tx, ty := ceil(nx), ceil(ny)
	t3 := tile * tile * tile
	t := &Tiled{nx: nx, ny: ny, nz: nz, tile: tile}
	t.xb = make([]int, nx)
	t.xr = make([]int, nx)
	for i := 0; i < nx; i++ {
		t.xb[i] = (i / tile) * t3
		t.xr[i] = i % tile
	}
	t.yb = make([]int, ny)
	t.yr = make([]int, ny)
	for j := 0; j < ny; j++ {
		t.yb[j] = (j / tile) * tx * t3
		t.yr[j] = (j % tile) * tile
	}
	t.zb = make([]int, nz)
	t.zr = make([]int, nz)
	for k := 0; k < nz; k++ {
		t.zb[k] = (k / tile) * ty * tx * t3
		t.zr[k] = (k % tile) * tile * tile
	}
	t.length = ceil(nz) * ty * tx * t3
	t.xoff = sumAxes(t.xb, t.xr)
	t.yoff = sumAxes(t.yb, t.yr)
	t.zoff = sumAxes(t.zb, t.zr)
	return t
}

// Index returns the tiled offset of (i,j,k).
func (t *Tiled) Index(i, j, k int) int {
	return t.xb[i] + t.yb[j] + t.zb[k] + t.xr[i] + t.yr[j] + t.zr[k]
}

// Dims returns the logical grid extents.
func (t *Tiled) Dims() (nx, ny, nz int) { return t.nx, t.ny, t.nz }

// Len returns the buffer length, padded to whole tiles per axis.
func (t *Tiled) Len() int { return t.length }

// Name returns "tiled".
func (t *Tiled) Name() string { return "tiled" }

// Tile returns the tile edge length.
func (t *Tiled) Tile() int { return t.tile }

// Hilbert is the Hilbert space-filling curve layout. It pads the grid to
// a power-of-two cube (Hilbert indexing as implemented requires equal
// per-axis orders). Its Index cost is intentionally *not* table-reducible
// — the curve has cross-coordinate bit dependencies — which is the
// trade-off Reissmann et al. 2014 report and the ablation bench measures.
type Hilbert struct {
	nx, ny, nz int
	bits       int
	length     int
}

// NewHilbert builds a Hilbert layout for an nx×ny×nz grid.
func NewHilbert(nx, ny, nz int) *Hilbert {
	checkDims(nx, ny, nz)
	side := morton.NextPow2(max(nx, ny, nz))
	bits := morton.Log2(side)
	if bits == 0 {
		bits = 1
		side = 2
	}
	return &Hilbert{nx: nx, ny: ny, nz: nz, bits: bits, length: side * side * side}
}

// Index returns the Hilbert index of (i,j,k).
func (h *Hilbert) Index(i, j, k int) int {
	return int(hilbert.Encode3(uint32(i), uint32(j), uint32(k), h.bits))
}

// Dims returns the logical grid extents.
func (h *Hilbert) Dims() (nx, ny, nz int) { return h.nx, h.ny, h.nz }

// Len returns the padded cube volume.
func (h *Hilbert) Len() int { return h.length }

// Name returns "hilbert".
func (h *Hilbert) Name() string { return "hilbert" }
