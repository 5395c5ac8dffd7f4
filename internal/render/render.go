package render

import (
	"context"
	"fmt"
	"math"

	"sfcmem/internal/grid"
	"sfcmem/internal/parallel"
)

// Schedule selects how image tiles are handed to workers.
type Schedule int

// Tile scheduling strategies.
const (
	// DynamicSchedule serves tiles from a shared atomic queue (the
	// paper's worker-pool model; its best performer and the default).
	DynamicSchedule Schedule = iota
	// StaticSchedule preassigns tiles round-robin: tile t goes to
	// worker t mod W regardless of per-tile cost. Load imbalance shows
	// when rays through some tiles terminate early.
	StaticSchedule
)

// Options configures one render.
type Options struct {
	// TileSize is the image-tile edge handed to the worker pool; zero
	// defaults to 32, the size the paper settled on (§III-B).
	TileSize int
	// Workers is the number of concurrent workers; zero defaults to 1.
	Workers int
	// Step is the ray-march step in voxel units; zero defaults to 1.
	Step float64
	// MaxAlpha is the early-ray-termination threshold; zero defaults
	// to 0.98.
	MaxAlpha float64
	// Shade enables gradient-based Lambertian shading (reads six extra
	// neighbors per sample through the same traced view).
	Shade bool
	// Schedule selects the tile work-distribution strategy. The paper
	// (§III) implemented several and found the dynamic worker-pool best;
	// StaticSchedule (round-robin tile preassignment) is kept for that
	// comparison.
	Schedule Schedule
	// Accel, if non-nil, is a prebuilt empty-space map of the volume
	// under the render's transfer function (BuildAccelOf): samples in
	// cells it proves empty are not taken, and the image stays bit-
	// identical to the plain march. A map built for other dimensions or
	// another opacity threshold is an error; a map that proves fewer
	// than one cell in eight empty (none, in the limit) is ignored.
	// Building one costs a pass over the volume, so it pays when several
	// frames share it.
	Accel *Accel
	// Stats, if non-nil, receives per-worker scheduling statistics
	// (item counts, busy time) for the tile distribution.
	Stats *parallel.Stats
	// Observer, if non-nil, is called once per completed tile with the
	// worker, tile index, and timing. Enables timeline recording.
	Observer parallel.Observer
	// NoFastPath forces the generic interface sampling path even for
	// plain grids with separable layouts, disabling the flat-access fast
	// path. Used by ablation benches and cross-check tests; traced views
	// always take the interface path regardless.
	NoFastPath bool
}

func (o Options) withDefaults() Options {
	if o.TileSize == 0 {
		o.TileSize = 32
	}
	if o.Workers == 0 {
		o.Workers = 1
	}
	if o.Step == 0 {
		o.Step = 1
	}
	if o.MaxAlpha == 0 {
		o.MaxAlpha = 0.98
	}
	return o
}

// validate checks the options exactly as the caller supplied them,
// before withDefaults rewrites zeros — so an explicit invalid value is
// reported truthfully while zero keeps meaning "use the default".
func (o Options) validate() error {
	if o.TileSize < 0 {
		return fmt.Errorf("render: tile size %d must be non-negative (zero selects the default)", o.TileSize)
	}
	if o.Workers < 0 {
		return fmt.Errorf("render: workers %d must be non-negative (zero selects the default)", o.Workers)
	}
	if o.Step < 0 {
		return fmt.Errorf("render: step %g must be non-negative (zero selects the default)", o.Step)
	}
	if o.MaxAlpha < 0 || o.MaxAlpha > 1 {
		return fmt.Errorf("render: max alpha %g must be in [0,1] (zero selects the default)", o.MaxAlpha)
	}
	return nil
}

// Render raycasts the volume from cam through tf, with all workers
// sharing one view of the volume.
func Render(vol grid.Reader, cam Camera, tf *TransferFunc, o Options) (*Image, error) {
	return RenderCtxOf[float32](context.Background(), vol, cam, tf, o)
}

// RenderCtxOf is Render for any element type with cooperative
// cancellation: workers stop taking image tiles once ctx is done and
// the call returns (nil, ctx's error), discarding the partial frame. A
// context that can never be cancelled takes exactly the non-context
// code path.
func RenderCtxOf[T grid.Scalar](ctx context.Context, vol grid.ReaderOf[T], cam Camera, tf *TransferFunc, o Options) (*Image, error) {
	if err := o.validate(); err != nil {
		return nil, err
	}
	o = o.withDefaults()
	views := make([]grid.ReaderOf[T], o.Workers)
	for w := range views {
		views[w] = vol
	}
	return RenderViewsCtxOf(ctx, views, cam, tf, o)
}

// RenderViews raycasts with per-worker volume views: worker w samples
// the volume only through views[w]. The cache-simulation experiments
// pass one traced view per simulated thread. len(views) must equal
// Workers (after defaulting); all views must agree on dimensions.
func RenderViews(views []grid.Reader, cam Camera, tf *TransferFunc, o Options) (*Image, error) {
	return RenderViewsCtxOf[float32](context.Background(), views, cam, tf, o)
}

// RenderViewsCtxOf is RenderViews for any element type with
// cooperative cancellation; see RenderCtxOf. Tiles are the cancellation
// granule: a tile that has started runs to completion, and no new tiles
// are handed out after ctx is done. Samples normalize into [0,1] before
// the transfer function; the ray accumulator is float64 for float64
// volumes and float32 otherwise, so the float32 instantiation
// reproduces the pre-generic frames bit for bit.
func RenderViewsCtxOf[T grid.Scalar](ctx context.Context, views []grid.ReaderOf[T], cam Camera, tf *TransferFunc, o Options) (*Image, error) {
	if grid.DtypeFor[T]() == grid.F64 {
		return renderViewsCtxOf[T, float64](ctx, views, cam, tf, o)
	}
	return renderViewsCtxOf[T, float32](ctx, views, cam, tf, o)
}

func renderViewsCtxOf[T grid.Scalar, A grid.Accum](ctx context.Context, views []grid.ReaderOf[T], cam Camera, tf *TransferFunc, o Options) (*Image, error) {
	if err := o.validate(); err != nil {
		return nil, err
	}
	o = o.withDefaults()
	if len(views) != o.Workers {
		return nil, fmt.Errorf("render: need %d views, got %d", o.Workers, len(views))
	}
	if tf == nil {
		return nil, fmt.Errorf("render: nil transfer function")
	}
	if cam.Width < 1 || cam.Height < 1 {
		return nil, fmt.Errorf("render: image %dx%d must be positive", cam.Width, cam.Height)
	}
	nx, ny, nz := views[0].Dims()
	for w := 1; w < len(views); w++ {
		x, y, z := views[w].Dims()
		if x != nx || y != ny || z != nz {
			return nil, fmt.Errorf("render: view %d dimensions disagree", w)
		}
	}
	accel := o.Accel
	if accel != nil {
		if err := accel.check(nx, ny, nz, tf); err != nil {
			return nil, err
		}
		if !accel.pays() {
			accel = nil
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	img := NewImage(cam.Width, cam.Height)
	rs := cam.rays()
	tiles := parallel.Tiles(cam.Width, cam.Height, o.TileSize)
	lo := Vec3{0, 0, 0}
	hi := Vec3{float64(nx - 1), float64(ny - 1), float64(nz - 1)}
	// The dtype's normalization reciprocal in the accumulator type:
	// exactly 1 for float dtypes, which the sampling primitives detect
	// to skip the multiply (preserving pre-generic bit patterns).
	inv := A(1 / grid.NormScale[T]())
	// Resolve each worker's view to the flat fast path once, at setup:
	// a plain *grid.Grid under a separable layout flattens to its raw
	// buffer plus per-axis offset tables; traced views and non-separable
	// layouts (Hilbert, HZ) resolve to nil and keep the interface path.
	flats := make([]*grid.Flat[T], o.Workers)
	if !o.NoFastPath {
		for w := range flats {
			flats[w] = grid.Flatten(views[w])
		}
	}
	tile := func(w, ti int) {
		vol, flat := views[w], flats[w]
		t := tiles[ti]
		for py := t.Y0; py < t.Y1; py++ {
			for px := t.X0; px < t.X1; px++ {
				img.Set(px, py, castRay(vol, flat, inv, &rs, tf, o, px, py, lo, hi, accel))
			}
		}
	}
	schedule := parallel.Dynamic
	if o.Schedule == StaticSchedule {
		schedule = parallel.RoundRobin
	}
	st, err := schedule(ctx, len(tiles), o.Workers, tile, o.Observer)
	if o.Stats != nil {
		*o.Stats = st
	}
	if err != nil {
		return nil, err
	}
	return img, nil
}

// castRay integrates one primary ray: slab intersection, fixed-step
// front-to-back compositing with opacity correction and early ray
// termination. Samples in cells accel proves empty are not taken. When
// flat is non-nil the trilinear samples and shading gradients come from
// the devirtualized flat view (bit-identical arithmetic to the
// interface path); otherwise every access goes through vol. Samples
// lerp in the accumulator type A and normalize by inv before the
// transfer function; gradients stay unnormalized (the shading normal
// is unit-scaled anyway, so a uniform dtype scale cancels).
func castRay[T grid.Scalar, A grid.Accum](vol grid.ReaderOf[T], flat *grid.Flat[T], inv A, rs *rays, tf *TransferFunc, o Options, px, py int, lo, hi Vec3, accel *Accel) RGBA {
	origin, dir := rs.at(px, py)
	tmin, tmax, hit := intersectBox(origin, dir, lo, hi)
	if !hit {
		return RGBA{}
	}
	var out RGBA
	// Opacity correction: control-point opacities are defined per unit
	// step; correct for the actual step length.
	alphaExp := float32(o.Step)
	for t := tmin; t <= tmax; t += o.Step {
		p := origin.Add(dir.Scale(t))
		if accel != nil && !accel.occupied(p.X, p.Y, p.Z) {
			continue
		}
		var s float32
		if flat != nil {
			s = grid.SampleFlat(flat, inv, p.X, p.Y, p.Z)
		} else {
			s = grid.SampleReader(vol, inv, p.X, p.Y, p.Z)
		}
		c := tf.Eval(s)
		if c.A <= 0 {
			continue
		}
		a := c.A
		if alphaExp != 1 {
			a = 1 - float32(math.Pow(float64(1-a), float64(alphaExp)))
		}
		if o.Shade && a > 0.01 {
			// Gradient clamps indices internally; p is inside the box.
			var gx, gy, gz float32
			if flat != nil {
				gx, gy, gz = grid.GradientFlat[T, A](flat, int(p.X), int(p.Y), int(p.Z))
			} else {
				gx, gy, gz = grid.GradientReader[T, A](vol, int(p.X), int(p.Y), int(p.Z))
			}
			n := Vec3{float64(gx), float64(gy), float64(gz)}.Normalize()
			light := Vec3{0.5, 1, 0.3}.Normalize()
			lambert := float32(math.Abs(n.Dot(light)))
			shade := 0.35 + 0.65*lambert
			c.R *= shade
			c.G *= shade
			c.B *= shade
		}
		rem := 1 - out.A
		out.R += rem * a * c.R
		out.G += rem * a * c.G
		out.B += rem * a * c.B
		out.A += rem * a
		if float64(out.A) >= o.MaxAlpha {
			break
		}
	}
	return out
}
