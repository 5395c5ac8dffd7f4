package harness

import (
	"context"
	"fmt"
	"time"

	"sfcmem/internal/cache"
	"sfcmem/internal/core"
	"sfcmem/internal/filter"
	"sfcmem/internal/grid"
	"sfcmem/internal/parallel"
	"sfcmem/internal/render"
	"sfcmem/internal/reuse"
	"sfcmem/internal/stats"
	"sfcmem/internal/volume"
)

// Kernels a point can run: the bilateral filter over the MRI phantom
// and the raycaster over the combustion plume.
const (
	bilatKernel   = "bilat"
	volrendKernel = "volrend"
)

// Platforms a point can run on. Host points run on this machine and
// are timed. The others replay the kernel's access stream through a
// model: the scaled IvyBridge-like or MIC-like cache hierarchy, or the
// reuse profile, which gives the miss ratio of every fully associative
// LRU cache size at once.
const (
	hostPlat = "host"
	ivyPlat  = "ivy"
	micPlat  = "mic"
	lruPlat  = "lru"
)

// dstBase offsets the destination volume in the simulated address space
// so source and destination never alias in the simulated caches.
const dstBase = 1 << 40

// point is one measurement of the sweep: one kernel run over one input
// volume under one layout, at a thread count, on one platform. Each
// point measured yields one CellRecord row.
type point struct {
	Kernel   string
	Kind     core.Kind
	Dtype    grid.Dtype
	Size     int // volume edge
	Image    int // render image edge (volrend)
	Threads  int
	Platform string
	Row      BilatRow // stencil, pencil axis and order (bilat)
	View     int      // orbit viewpoint of Config.Views (volrend)
}

// bilatPoint is the float32 bilateral point for row, sized for
// platform: the wall-clock volume on the host, the counter volume on a
// model.
func (c Config) bilatPoint(row BilatRow, threads int, platform string) point {
	size := c.BilatSize
	if platform != hostPlat {
		size = c.BilatSimSize
	}
	return point{Kernel: bilatKernel, Dtype: grid.F32, Size: size, Threads: threads, Platform: platform, Row: row}
}

// volrendPoint is the float32 render point for view, sized for platform
// like bilatPoint.
func (c Config) volrendPoint(view, threads int, platform string) point {
	size, image := c.VolSize, c.ImageSize
	if platform != hostPlat {
		size, image = c.VolSimSize, c.SimImageSize
	}
	return point{Kernel: volrendKernel, Dtype: grid.F32, Size: size, Image: image, Threads: threads, Platform: platform, View: view}
}

// options are the filter options for the row at threads workers.
func (r BilatRow) options(threads int) filter.Options {
	o := filter.Options{Radius: r.Radius, Axis: r.Axis, Order: filter.XYZ, Workers: threads}
	if r.Order == OrderZYX {
		o.Order = filter.ZYX
	}
	return o
}

// renderOptions are the paper's renderer settings: 32×32 tiles, unit
// step, early termination.
func renderOptions(threads int) render.Options {
	return render.Options{TileSize: 32, Workers: threads, Step: 1}
}

// pair returns p under array order and under Z order: the paper's
// comparison.
func pair(p point) []point {
	a, z := p, p
	a.Kind, z.Kind = core.ArrayKind, core.ZKind
	return []point{a, z}
}

// where names p's bilateral row or render viewpoint.
func (p point) where() string {
	if p.Kernel == volrendKernel {
		return fmt.Sprintf("view %d", p.View)
	}
	return p.Row.Label
}

// record is p's row before measurement: every identifying column.
func (p point) record() CellRecord {
	c := CellRecord{
		Kernel: p.Kernel, Strategy: "round-robin", Layout: p.Kind.String(), Dtype: p.Dtype.String(),
		Size: p.Size, Image: p.Image, Platform: p.Platform, Row: p.Row.Label, View: p.View, Threads: p.Threads,
	}
	if p.Kernel == volrendKernel {
		c.Strategy = "dynamic"
	}
	return c
}

// inputKey names one input volume: the kernel selects the dataset.
type inputKey struct {
	kernel string
	size   int
	kind   core.Kind
	dtype  grid.Dtype
}

// runner measures points for one figure. It builds each input volume
// on first use and keeps every row it measured.
type runner struct {
	cfg      Config
	progress func(string)
	ins      *Instruments
	inputs   map[inputKey]any // *grid.Grid[T] by key
	rows     map[point]CellRecord
	order    []CellRecord // rows in measurement order
}

func newRunner(cfg Config, progress func(string), ins *Instruments) *runner {
	return &runner{cfg: cfg, progress: progress, ins: ins,
		inputs: make(map[inputKey]any), rows: make(map[point]CellRecord)}
}

// run measures each group of points and records one row per point.
// Within a group, the host points repeat reps times, interleaved
// (p0, p1, …, p0, p1, …), and keep each point's minimum, so slow host
// drift cannot bias one layout or dtype. Then each model point replays
// once: its access stream is fixed. The context is checked before each
// group and threaded into every kernel run.
func (r *runner) run(ctx context.Context, groups [][]point, reps int) error {
	for _, group := range groups {
		if err := ctx.Err(); err != nil {
			return err
		}
		if r.progress != nil {
			p := group[0]
			r.progress(fmt.Sprintf("%s %s threads=%d", p.Kernel, p.where(), p.Threads))
		}
		rows := make([]CellRecord, len(group))
		sts := make([]*parallel.Stats, len(group))
		for i, p := range group {
			rows[i] = p.record()
			if p.Platform == hostPlat && r.ins.active() {
				sts[i] = &parallel.Stats{}
			}
		}
		for rep := 0; rep < max(reps, 1); rep++ {
			for i, p := range group {
				if p.Platform != hostPlat {
					continue
				}
				d, err := r.kernel(ctx, p, nil, sts[i])
				if err != nil {
					return err
				}
				if s := d.Seconds(); rep == 0 || s < rows[i].Runtime {
					rows[i].Runtime = s
				}
			}
		}
		for i, p := range group {
			var err error
			if p.Platform != hostPlat {
				err = r.replay(ctx, p, &rows[i])
			} else if sts[i] != nil {
				rows[i].Imbalance = sts[i].ImbalanceFactor()
			}
			if err != nil {
				return err
			}
			r.rows[p] = rows[i]
			r.order = append(r.order, rows[i])
			r.ins.RecordCell(rows[i])
		}
	}
	return nil
}

// replay runs model point p once and fills its row's counters.
func (r *runner) replay(ctx context.Context, p point, row *CellRecord) error {
	var plat cache.Platform
	switch p.Platform {
	case ivyPlat:
		plat = r.cfg.ivyPlatform()
	case micPlat:
		plat = r.cfg.micPlatform()
	case lruPlat:
		if p.Threads != 1 {
			return fmt.Errorf("harness: the %s profile replays one thread, not %d", lruPlat, p.Threads)
		}
		an := reuse.NewAnalyzer(1 << 20)
		if _, err := r.kernel(ctx, p, func(int) grid.Sink { return an }, nil); err != nil {
			return err
		}
		h := an.Histogram()
		row.Reuse = &h
		return nil
	default:
		return fmt.Errorf("harness: unknown platform %q", p.Platform)
	}
	sys := cache.NewSystem(plat, p.Threads)
	if _, err := r.kernel(ctx, p, func(w int) grid.Sink { return sys.Front(w) }, nil); err != nil {
		return err
	}
	rep := sys.Report()
	row.Metric, row.Cache = rep.PaperMetric(), rep.Snapshot()
	r.ins.AddCacheReport(rep)
	return nil
}

// kernel runs p's kernel once over its input at p's dtype and returns
// the elapsed time. With sink nil every worker reads the grid itself,
// so wall-clock runs take the flat fast path unless Config.NoFastPath;
// otherwise worker w reads through a traced view into sink(w), on the
// interface path: the paper's per-tap model, which every figure's
// counters are measured on. st, if non-nil, receives the per-worker
// scheduling stats.
func (r *runner) kernel(ctx context.Context, p point, sink func(w int) grid.Sink, st *parallel.Stats) (time.Duration, error) {
	switch p.Dtype {
	case grid.U8:
		return kernelOf[uint8](ctx, r, p, sink, st)
	case grid.U16:
		return kernelOf[uint16](ctx, r, p, sink, st)
	case grid.F64:
		return kernelOf[float64](ctx, r, p, sink, st)
	default:
		return kernelOf[float32](ctx, r, p, sink, st)
	}
}

func kernelOf[T grid.Scalar](ctx context.Context, r *runner, p point, sink func(w int) grid.Sink, st *parallel.Stats) (time.Duration, error) {
	src := inputOf[T](r, p)
	srcs := make([]grid.ReaderOf[T], p.Threads)
	for w := range srcs {
		srcs[w] = src
		if sink != nil {
			srcs[w] = grid.NewTraced(src, 0, sink(w))
		}
	}
	obs := r.ins.Observer(fmt.Sprintf("%s %s %s %s", p.Platform, p.Kernel, p.Kind, p.where()))
	noFast := r.cfg.NoFastPath || sink != nil
	if p.Kernel == volrendKernel {
		cam := render.Orbit(p.View, r.cfg.Views, p.Size, p.Size, p.Size, p.Image, p.Image)
		tf := render.DefaultTransferFunc()
		o := renderOptions(p.Threads)
		o.Stats, o.Observer, o.NoFastPath = st, obs, noFast
		start := time.Now()
		_, err := render.RenderViewsCtxOf(ctx, srcs, cam, tf, o)
		return time.Since(start), err
	}
	dst := grid.NewOf[T](src.Layout())
	dsts := make([]grid.WriterOf[T], p.Threads)
	for w := range dsts {
		dsts[w] = dst
		if sink != nil {
			dsts[w] = grid.NewTraced(dst, dstBase, sink(w))
		}
	}
	o := p.Row.options(p.Threads)
	o.Stats, o.Observer, o.NoFastPath = st, obs, noFast
	start := time.Now()
	err := filter.ApplyViewsCtxOf(ctx, srcs, dsts, o)
	return time.Since(start), err
}

// inputOf returns p's input volume as T, building it on first use: the
// dataset once per size in array order, each other layout by relayout
// of that, and each other dtype by conversion of the float32 volume in
// the same layout.
func inputOf[T grid.Scalar](r *runner, p point) *grid.Grid[T] {
	key := inputKey{p.Kernel, p.Size, p.Kind, grid.DtypeFor[T]()}
	if g, ok := r.inputs[key]; ok {
		return g.(*grid.Grid[T])
	}
	n := p.Size
	var g any
	switch {
	case key.dtype != grid.F32:
		g = grid.ConvertGrid[T](inputOf[float32](r, p))
	case p.Kind != core.ArrayKind:
		a := p
		a.Kind = core.ArrayKind
		rl, err := inputOf[float32](r, a).Relayout(core.New(p.Kind, n, n, n))
		if err != nil {
			panic(err) // same dims by construction
		}
		g = rl
	case p.Kernel == bilatKernel:
		g = volume.MRIPhantom(core.NewArrayOrder(n, n, n), r.cfg.Seed, 0.05)
	default:
		g = volume.CombustionPlume(core.NewArrayOrder(n, n, n), r.cfg.Seed)
	}
	r.inputs[key] = g
	return g.(*grid.Grid[T])
}

// ds is the paper's scaled relative difference of val between p's
// array-order and Z-order rows.
func (r *runner) ds(p point, val func(CellRecord) float64) float64 {
	az := pair(p)
	return stats.ScaledRelDiff(val(r.rows[az[0]]), val(r.rows[az[1]]))
}

func runtimeOf(c CellRecord) float64 { return c.Runtime }
func metricOf(c CellRecord) float64  { return float64(c.Metric) }
