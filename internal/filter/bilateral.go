// Package filter implements the paper's structured-memory-access kernel:
// a shared-memory-parallel 3D bilateral filter (§III-A).
//
// The bilateral filter (Tomasi & Manduchi 1998) is an edge-preserving
// smoother: each output voxel is a normalized weighted average of its
// stencil neighborhood, where the weight is the product of a geometric
// Gaussian g (distance in index space) and a photometric Gaussian c
// (distance in value space). The photometric term depends on the data,
// so unlike plain convolution the normalization cannot be precomputed —
// this is what makes the kernel "computationally intensive" while still
// being memory-bound.
//
// The kernels are generic over the grid.Scalar element types. Samples
// are normalized into [0,1] on load (dividing by the dtype's scale:
// 255 for uint8, 65535 for uint16, 1 for floats), all accumulation
// runs in float64, and results are converted back to the storage dtype
// on write (round-half-up with clamping for integer dtypes). Because
// the float scale is exactly 1, the float32 instantiation reproduces
// the pre-generic arithmetic bit for bit, and SigmaRange keeps meaning
// "value units in [0,1]" for every dtype.
//
// Parallelization follows the paper: 1-D pencils of output voxels are
// handed to workers round-robin (internal/parallel). The experiment
// knobs are the stencil radius, the pencil axis (px/pz), the stencil
// iteration order (xyz/zyx — the against-the-grain configuration), and
// the worker count.
package filter

import (
	"context"
	"fmt"
	"math"

	"sfcmem/internal/grid"
	"sfcmem/internal/parallel"
)

// Order is the stencil iteration order (§IV-B3): XYZ iterates the
// stencil's innermost loop over x (the most quickly varying direction in
// the array-order sense, its best case); ZYX iterates z innermost (the
// least favorable for array order).
type Order int

// Stencil iteration orders.
const (
	XYZ Order = iota
	ZYX
)

// String returns "xyz" or "zyx".
func (o Order) String() string {
	if o == ZYX {
		return "zyx"
	}
	return "xyz"
}

// Options configures one bilateral-filter run.
type Options struct {
	// Radius is the stencil radius; the stencil is (2R+1)³. The paper's
	// configurations are radius 1 (3³, "r1"), radius 2 (5³, "r3") and
	// radius 5 (11³, "r5").
	Radius int
	// SigmaSpatial is the geometric Gaussian's standard deviation in
	// voxels. Zero defaults to Radius/2 + 0.5.
	SigmaSpatial float64
	// SigmaRange is the photometric Gaussian's standard deviation in
	// normalized value units (data in [0,1] after dtype normalization).
	// Zero defaults to 0.1.
	SigmaRange float64
	// Axis is the pencil direction handed to workers: AxisX is the
	// paper's "px" (width rows), AxisZ its "pz" (depth rows).
	Axis parallel.Axis
	// Order is the stencil iteration order.
	Order Order
	// Workers is the number of concurrent workers; zero defaults to 1.
	Workers int
	// Stats, if non-nil, receives per-worker scheduling statistics
	// (item counts, busy time) for the round-robin pencil handout.
	Stats *parallel.Stats
	// Observer, if non-nil, is called once per completed pencil with the
	// worker, pencil index, and timing. Enables timeline recording.
	Observer parallel.Observer
	// NoFastPath forces the generic interface path even for plain grids
	// with separable layouts, disabling the flat-access fast path. Used
	// by the fast-path ablation benches and cross-check tests; traced
	// views always take the interface path regardless.
	NoFastPath bool
}

func (o Options) withDefaults() Options {
	if o.SigmaSpatial == 0 {
		o.SigmaSpatial = float64(o.Radius)/2 + 0.5
	}
	if o.SigmaRange == 0 {
		o.SigmaRange = 0.1
	}
	if o.Workers == 0 {
		o.Workers = 1
	}
	return o
}

// validate checks the options exactly as the caller supplied them,
// before withDefaults rewrites zeros — so an explicit invalid value is
// reported truthfully while zero keeps meaning "use the default".
func (o Options) validate() error {
	if o.Radius < 1 {
		return fmt.Errorf("filter: radius %d must be >= 1", o.Radius)
	}
	if o.SigmaSpatial < 0 || o.SigmaRange < 0 {
		return fmt.Errorf("filter: sigmas must be non-negative (zero selects the default)")
	}
	if o.Workers < 0 {
		return fmt.Errorf("filter: workers %d must be non-negative (zero selects the default)", o.Workers)
	}
	return nil
}

// rangeLUTSize is the resolution of the photometric-weight lookup table.
// Computing exp() per neighbor sample would dominate the runtime and
// drown the memory-locality signal the experiments measure, so the
// photometric Gaussian is quantized: entries sit at the knots i·w
// (w = span/size) and lookups round to the nearest knot, so
// rangeWeight(0) is exactly 1 and the worst-case weight error over
// [0, 4σ] is a few 1e-4 (half-bin slope error plus the clipped
// exp(-8) ≈ 3.4e-4 tail).
const rangeLUTSize = 4096

// rangeLUTSpan is how many standard deviations the LUT covers; beyond
// it the weight is treated as zero (exp(-8) ≈ 3e-4).
const rangeLUTSpan = 4.0

// kernel holds the precomputed tables for one filter configuration,
// plus the dtype normalization scale resolved at setup so the hot
// loops never consult a Dtype.
type kernel struct {
	opt      Options
	spatial  []float64 // (2R+1)³ geometric weights, indexed [dz][dy][dx]
	rangeLUT [rangeLUTSize]float64
	invBin   float64 // 1 / LUT bin width
	scale    float64 // dtype normalization scale (1 for float dtypes)
	invScale float64 // 1 / scale; multiplying by exactly 1 preserves bits
}

func newKernel(o Options, scale float64) *kernel {
	k := &kernel{opt: o, scale: scale, invScale: 1 / scale}
	r := o.Radius
	side := 2*r + 1
	k.spatial = make([]float64, side*side*side)
	inv2s2 := 1 / (2 * o.SigmaSpatial * o.SigmaSpatial)
	idx := 0
	for dz := -r; dz <= r; dz++ {
		for dy := -r; dy <= r; dy++ {
			for dx := -r; dx <= r; dx++ {
				d2 := float64(dx*dx + dy*dy + dz*dz)
				k.spatial[idx] = math.Exp(-d2 * inv2s2)
				idx++
			}
		}
	}
	span := rangeLUTSpan * o.SigmaRange
	for i := range k.rangeLUT {
		x := float64(i) / rangeLUTSize * span
		k.rangeLUT[i] = math.Exp(-x * x / (2 * o.SigmaRange * o.SigmaRange))
	}
	k.invBin = rangeLUTSize / span
	return k
}

// rangeWeight returns the quantized photometric weight for a value
// difference dv, rounding to the nearest LUT knot. (Flooring would
// systematically read the weight of a larger difference — off by up to
// a whole bin, and rangeWeight(0) would not be 1.) A NaN difference
// converts to a negative bin, which the unsigned compare sends to the
// zero tail along with differences past the table.
func (k *kernel) rangeWeight(dv float64) float64 {
	// math.Abs is a branchless bit-clear; an `if dv < 0` here is a
	// data-dependent branch the predictor gets wrong about half the
	// time, and this runs once per stencil tap on every path.
	bin := int(math.Abs(dv)*k.invBin + 0.5)
	if uint(bin) < rangeLUTSize {
		return k.rangeLUT[bin]
	}
	return 0
}

// voxelOf computes the filtered value at (i,j,k), iterating the stencil
// in the configured order and skipping out-of-bounds neighbors (the
// normalization runs over valid neighbors only). Samples normalize
// through k.invScale (exactly 1 for float dtypes, so the float32
// instantiation is bit-identical to the pre-generic kernel); a
// weightless stencil returns the raw center sample unchanged.
func voxelOf[T grid.Scalar](k *kernel, src grid.ReaderOf[T], i, j, kk int) T {
	nx, ny, nz := src.Dims()
	r := k.opt.Radius
	side := 2*r + 1
	rawCenter := src.At(i, j, kk)
	center := float64(rawCenter) * k.invScale
	var num, den float64
	if k.opt.Order == XYZ {
		for dz := -r; dz <= r; dz++ {
			z := kk + dz
			if z < 0 || z >= nz {
				continue
			}
			for dy := -r; dy <= r; dy++ {
				y := j + dy
				if y < 0 || y >= ny {
					continue
				}
				base := ((dz+r)*side + (dy + r)) * side
				for dx := -r; dx <= r; dx++ {
					x := i + dx
					if x < 0 || x >= nx {
						continue
					}
					v := float64(src.At(x, y, z)) * k.invScale
					w := k.spatial[base+dx+r] * k.rangeWeight(v-center)
					num += w * v
					den += w
				}
			}
		}
	} else {
		for dx := -r; dx <= r; dx++ {
			x := i + dx
			if x < 0 || x >= nx {
				continue
			}
			for dy := -r; dy <= r; dy++ {
				y := j + dy
				if y < 0 || y >= ny {
					continue
				}
				for dz := -r; dz <= r; dz++ {
					z := kk + dz
					if z < 0 || z >= nz {
						continue
					}
					v := float64(src.At(x, y, z)) * k.invScale
					w := k.spatial[((dz+r)*side+(dy+r))*side+dx+r] * k.rangeWeight(v-center)
					num += w * v
					den += w
				}
			}
		}
	}
	if den == 0 {
		return rawCenter
	}
	return grid.FromNorm[T](num/den, k.scale)
}

// onPencil permutes per-axis values (coordinates, offsets or a view's
// offset tables) from x, y, z order into pencil order: a along the
// pencil, then its two off-axis companions b and c.
func onPencil[E any](axis parallel.Axis, x, y, z E) (a, b, c E) {
	switch axis {
	case parallel.AxisY:
		return y, x, z
	case parallel.AxisZ:
		return z, x, y
	}
	return x, y, z
}

// tap is one stencil tap of the flat fast path, resolved for the
// current pencil: off addresses the tap's row in the worker's row
// cache plus its offset da along the pencil (add the voxel's pencil
// position to get the sample), and w is its spatial weight.
type tap struct {
	off, da int
	w       float64
}

// rows is one worker's window onto the source for the flat fast path:
// (2R+1)² rows along the pencil axis, each a full row of normalized
// samples gathered once through the layout's offset tables. The row
// with off-axis coordinates (b, c) lives in slot (b mod side)·side +
// (c mod side), so the rows under one pencil's stencil never share a
// slot and a pencil refills only the rows its worker's previous
// pencil did not already hold.
type rows struct {
	data []float64 // side² rows of n samples; slot s at data[s*n:]
	tag  []int     // per slot: b*nc + c of the held row, or -1
	taps []tap     // the current pencil's taps whose rows lie in the volume, in stencil order
}

// newRows returns an empty row cache for pencils of length n.
func newRows(side, n int) *rows {
	cache := &rows{data: make([]float64, side*side*n), tag: make([]int, side*side)}
	for s := range cache.tag {
		cache.tag[s] = -1
	}
	return cache
}

// pencilFlatOf filters the pencil at off-axis coordinates (b, c) on the
// flat fast path. The layout is paid once per row, not once per tap:
// the stencil reads every tap from the row cache, which holds the
// sample float64(raw)·invScale that voxelOf computes, and visits the
// in-bounds taps in voxelOf's order with voxelOf's float operations —
// so the result is bit-identical to the interface path for every
// layout and dtype. Taps outside the volume off the pencil axis are
// dropped when the pencil's tap list is built; along the pencil they
// are skipped only for the R voxels at either end.
func pencilFlatOf[T grid.Scalar](k *kernel, cache *rows, fsrc, fdst *grid.Flat[T], axis parallel.Axis, b, c int) {
	r := k.opt.Radius
	side := 2*r + 1
	sa, sb, sc := onPencil(axis, fsrc.X, fsrc.Y, fsrc.Z)
	n, nb, nc := len(sa), len(sb), len(sc)
	slot := func(rb, rc int) int { return rb%side*side + rc%side }
	for rb := max(b-r, 0); rb <= min(b+r, nb-1); rb++ {
		for rc := max(c-r, 0); rc <= min(c+r, nc-1); rc++ {
			s := slot(rb, rc)
			if cache.tag[s] == rb*nc+rc {
				continue
			}
			cache.tag[s] = rb*nc + rc
			row, base := cache.data[s*n:s*n+n], sb[rb]+sc[rc]
			for a, off := range sa {
				row[a] = float64(fsrc.Data[off+base]) * k.invScale
			}
		}
	}
	// Tap list: XYZ runs dz outermost and dx innermost, ZYX the reverse.
	cache.taps = cache.taps[:0]
	for d1 := -r; d1 <= r; d1++ {
		for dy := -r; dy <= r; dy++ {
			for d3 := -r; d3 <= r; d3++ {
				dx, dz := d1, d3
				if k.opt.Order == XYZ {
					dx, dz = d3, d1
				}
				da, db, dc := onPencil(axis, dx, dy, dz)
				rb, rc := b+db, c+dc
				if rb < 0 || rb >= nb || rc < 0 || rc >= nc {
					continue
				}
				cache.taps = append(cache.taps, tap{
					off: slot(rb, rc)*n + da,
					da:  da,
					w:   k.spatial[((dz+r)*side+(dy+r))*side+dx+r],
				})
			}
		}
	}
	data, taps := cache.data, cache.taps
	ctr := slot(b, c) * n
	da, db, dc := onPencil(axis, fdst.X, fdst.Y, fdst.Z)
	dbase := db[b] + dc[c]
	for p := 0; p < n; p++ {
		center := data[ctr+p]
		var num, den float64
		if p >= r && p < n-r {
			for _, t := range taps {
				v := data[t.off+p]
				w := t.w * k.rangeWeight(v-center)
				num += w * v
				den += w
			}
		} else {
			for _, t := range taps {
				if uint(p+t.da) >= uint(n) {
					continue
				}
				v := data[t.off+p]
				w := t.w * k.rangeWeight(v-center)
				num += w * v
				den += w
			}
		}
		if den == 0 { // only a non-finite center leaves the stencil weightless
			fdst.Data[da[p]+dbase] = fsrc.Data[sa[p]+sb[b]+sc[c]]
			continue
		}
		fdst.Data[da[p]+dbase] = grid.FromNorm[T](num/den, k.scale)
	}
}

// Apply runs the bilateral filter from src into dst with all workers
// sharing the same views. src and dst must have identical dimensions
// and must not alias (the filter is not in-place).
func Apply(src grid.Reader, dst grid.Writer, o Options) error {
	return ApplyCtxOf[float32](context.Background(), src, dst, o)
}

// ApplyCtxOf is Apply for any element type with cooperative
// cancellation: workers stop taking pencils once ctx is done and the
// call returns ctx's error, leaving dst partially written. A context
// that can never be cancelled takes exactly the non-context code path.
func ApplyCtxOf[T grid.Scalar](ctx context.Context, src grid.ReaderOf[T], dst grid.WriterOf[T], o Options) error {
	if err := o.validate(); err != nil {
		return err
	}
	o = o.withDefaults()
	srcs := make([]grid.ReaderOf[T], o.Workers)
	dsts := make([]grid.WriterOf[T], o.Workers)
	for w := range srcs {
		srcs[w], dsts[w] = src, dst
	}
	return ApplyViewsCtxOf(ctx, srcs, dsts, o)
}

// ApplyViews runs the bilateral filter with per-worker source and
// destination views: worker w accesses the volumes only through srcs[w]
// and dsts[w]. This is how the cache-simulation experiments attach one
// traced view per simulated thread. len(srcs) and len(dsts) must equal
// Workers (after defaulting); all views must agree on dimensions.
func ApplyViews(srcs []grid.Reader, dsts []grid.Writer, o Options) error {
	return ApplyViewsCtxOf[float32](context.Background(), srcs, dsts, o)
}

// ApplyViewsCtxOf is ApplyViews for any element type with cooperative
// cancellation; see ApplyCtxOf. Pencils are the cancellation granule: a
// pencil that has started runs to completion, and no new pencils are
// handed out after ctx is done.
func ApplyViewsCtxOf[T grid.Scalar](ctx context.Context, srcs []grid.ReaderOf[T], dsts []grid.WriterOf[T], o Options) error {
	if err := o.validate(); err != nil {
		return err
	}
	if err := ctx.Err(); err != nil {
		return err // fail fast before kernel tables and view flattening
	}
	o = o.withDefaults()
	if len(srcs) != o.Workers || len(dsts) != o.Workers {
		return fmt.Errorf("filter: need %d views, got %d src / %d dst", o.Workers, len(srcs), len(dsts))
	}
	nx, ny, nz := srcs[0].Dims()
	for w := 0; w < o.Workers; w++ {
		sx, sy, sz := srcs[w].Dims()
		dx, dy, dz := dsts[w].Dims()
		if sx != nx || sy != ny || sz != nz || dx != nx || dy != ny || dz != nz {
			return fmt.Errorf("filter: view %d dimensions disagree", w)
		}
		if backingGridOf[T](srcs[w]) != nil && backingGridOf[T](srcs[w]) == backingGridOf[T](dsts[w]) {
			return fmt.Errorf("filter: view %d source and destination alias the same grid (the filter is not in-place)", w)
		}
	}
	k := newKernel(o, grid.NormScale[T]())
	// Resolve each worker's views to the flat fast path once, at setup:
	// a plain *grid.Grid under a separable layout flattens to its raw
	// buffer plus per-axis offset tables; traced views and non-separable
	// layouts (Hilbert, HZ) resolve to nil and keep the interface path.
	fsrcs := make([]*grid.Flat[T], o.Workers)
	fdsts := make([]*grid.Flat[T], o.Workers)
	if !o.NoFastPath {
		for w := 0; w < o.Workers; w++ {
			fsrcs[w] = grid.Flatten(srcs[w])
			fdsts[w] = grid.FlattenWriter(dsts[w])
		}
	}
	pencils := parallel.PencilCount(nx, ny, nz, o.Axis)
	di, dj, dk := parallel.PencilStep(o.Axis)
	side := 2*o.Radius + 1
	caches := make([]*rows, o.Workers) // worker w alone touches caches[w]
	pencil := func(w, p int) {
		i, j, kk, length := parallel.PencilStart(nx, ny, nz, o.Axis, p)
		if fsrc, fdst := fsrcs[w], fdsts[w]; fsrc != nil && fdst != nil {
			if caches[w] == nil {
				caches[w] = newRows(side, length)
			}
			_, b, c := onPencil(o.Axis, i, j, kk)
			pencilFlatOf(k, caches[w], fsrc, fdst, o.Axis, b, c)
			return
		}
		src, dst := srcs[w], dsts[w]
		for s := 0; s < length; s++ {
			dst.Set(i, j, kk, voxelOf(k, src, i, j, kk))
			i, j, kk = i+di, j+dj, kk+dk
		}
	}
	st, err := parallel.RoundRobin(ctx, pencils, o.Workers, pencil, o.Observer)
	if o.Stats != nil {
		*o.Stats = st
	}
	return err
}

// backingGridOf unwraps a view to the *grid.Grid[T] it reads or writes,
// or nil if the view is not grid-backed (aliasing then cannot be
// checked).
func backingGridOf[T grid.Scalar](v any) *grid.Grid[T] {
	switch g := v.(type) {
	case *grid.Grid[T]:
		return g
	case *grid.Traced[T]:
		return g.Grid()
	}
	return nil
}

// Reference computes the bilateral filter the slow, obviously-correct
// way: single-threaded, exact math.Exp photometric weights (no LUT).
// Tests compare Apply against it within the LUT quantization tolerance.
func Reference(src grid.Reader, dst grid.Writer, o Options) error {
	if err := o.validate(); err != nil {
		return err
	}
	o = o.withDefaults()
	o.Workers = 1
	nx, ny, nz := src.Dims()
	r := o.Radius
	inv2ss := 1 / (2 * o.SigmaSpatial * o.SigmaSpatial)
	inv2sr := 1 / (2 * o.SigmaRange * o.SigmaRange)
	for k := 0; k < nz; k++ {
		for j := 0; j < ny; j++ {
			for i := 0; i < nx; i++ {
				center := float64(src.At(i, j, k))
				var num, den float64
				for dz := -r; dz <= r; dz++ {
					for dy := -r; dy <= r; dy++ {
						for dx := -r; dx <= r; dx++ {
							x, y, z := i+dx, j+dy, k+dz
							if x < 0 || x >= nx || y < 0 || y >= ny || z < 0 || z >= nz {
								continue
							}
							v := float64(src.At(x, y, z))
							d2 := float64(dx*dx + dy*dy + dz*dz)
							dv := v - center
							if math.Abs(dv) >= rangeLUTSpan*o.SigmaRange*(1-0.5/rangeLUTSize) {
								continue // match the round-to-nearest LUT's zero tail
							}
							w := math.Exp(-d2*inv2ss) * math.Exp(-dv*dv*inv2sr)
							num += w * v
							den += w
						}
					}
				}
				if den == 0 {
					dst.Set(i, j, k, float32(center))
				} else {
					dst.Set(i, j, k, float32(num/den))
				}
			}
		}
	}
	return nil
}

// GaussianConvolve is the plain (non-bilateral) Gaussian smoothing
// baseline: identical stencil and spatial weights but no photometric
// term, so edges blur. It exists to demonstrate what the bilateral
// filter's edge preservation buys (Howison & Bethel 2014 comparison)
// and as a second structured-access workload for the benches.
func GaussianConvolve(src grid.Reader, dst grid.Writer, o Options) error {
	return GaussianConvolveCtxOf[float32](context.Background(), src, dst, o)
}

// GaussianConvolveCtxOf is GaussianConvolve for any element type with
// cooperative cancellation; see ApplyCtxOf for the semantics.
func GaussianConvolveCtxOf[T grid.Scalar](ctx context.Context, src grid.ReaderOf[T], dst grid.WriterOf[T], o Options) error {
	if err := o.validate(); err != nil {
		return err
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	o = o.withDefaults()
	if backingGridOf[T](src) != nil && backingGridOf[T](src) == backingGridOf[T](dst) {
		return fmt.Errorf("filter: source and destination alias the same grid")
	}
	nx, ny, nz := src.Dims()
	k := newKernel(o, grid.NormScale[T]())
	var fsrc, fdst *grid.Flat[T]
	if !o.NoFastPath {
		fsrc, fdst = grid.Flatten(src), grid.FlattenWriter(dst)
	}
	pencils := parallel.PencilCount(nx, ny, nz, o.Axis)
	di, dj, dk := parallel.PencilStep(o.Axis)
	pencil := func(_, p int) {
		i, j, kk, length := parallel.PencilStart(nx, ny, nz, o.Axis, p)
		if fsrc != nil && fdst != nil {
			for s := 0; s < length; s++ {
				fdst.Data[fdst.X[i]+fdst.Y[j]+fdst.Z[kk]] = gaussVoxelFlatOf(k, fsrc, i, j, kk)
				i, j, kk = i+di, j+dj, kk+dk
			}
			return
		}
		for s := 0; s < length; s++ {
			dst.Set(i, j, kk, gaussVoxelOf(k, src, i, j, kk))
			i, j, kk = i+di, j+dj, kk+dk
		}
	}
	st, err := parallel.RoundRobin(ctx, pencils, o.Workers, pencil, o.Observer)
	if o.Stats != nil {
		*o.Stats = st
	}
	return err
}

// gaussVoxelOf computes the plain Gaussian smoothing at (i,j,k) on the
// interface path.
func gaussVoxelOf[T grid.Scalar](k *kernel, src grid.ReaderOf[T], i, j, kk int) T {
	nx, ny, nz := src.Dims()
	r := k.opt.Radius
	side := 2*r + 1
	var num, den float64
	for dz := -r; dz <= r; dz++ {
		z := kk + dz
		if z < 0 || z >= nz {
			continue
		}
		for dy := -r; dy <= r; dy++ {
			y := j + dy
			if y < 0 || y >= ny {
				continue
			}
			base := ((dz+r)*side + (dy + r)) * side
			for dx := -r; dx <= r; dx++ {
				x := i + dx
				if x < 0 || x >= nx {
					continue
				}
				w := k.spatial[base+dx+r]
				num += w * (float64(src.At(x, y, z)) * k.invScale)
				den += w
			}
		}
	}
	return grid.FromNorm[T](num/den, k.scale)
}

// gaussVoxelFlatOf is gaussVoxelOf on the flat fast path: the stencil
// loops run over the raw buffer through the layout's per-axis offset
// tables, and the out-of-bounds `continue` skips become clamped loop
// bounds, which visit the same in-bounds neighbors in the same order —
// bit-identical accumulation.
func gaussVoxelFlatOf[T grid.Scalar](k *kernel, f *grid.Flat[T], i, j, kk int) T {
	r := k.opt.Radius
	side := 2*r + 1
	xlo, xhi := max(-r, -i), min(r, f.Nx-1-i)
	ylo, yhi := max(-r, -j), min(r, f.Ny-1-j)
	zlo, zhi := max(-r, -kk), min(r, f.Nz-1-kk)
	var num, den float64
	for dz := zlo; dz <= zhi; dz++ {
		zoff := f.Z[kk+dz]
		for dy := ylo; dy <= yhi; dy++ {
			yzoff := f.Y[j+dy] + zoff
			base := ((dz+r)*side + (dy + r)) * side
			for dx := xlo; dx <= xhi; dx++ {
				w := k.spatial[base+dx+r]
				num += w * (float64(f.Data[f.X[i+dx]+yzoff]) * k.invScale)
				den += w
			}
		}
	}
	return grid.FromNorm[T](num/den, k.scale)
}
