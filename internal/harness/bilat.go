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
	"sfcmem/internal/volume"
)

// dstBase offsets the destination volume in the simulated address space
// so source and destination never alias in the simulated caches.
const dstBase = 1 << 40

func filterOrder(o Order) filter.Order {
	if o == OrderZYX {
		return filter.ZYX
	}
	return filter.XYZ
}

func (r BilatRow) options(threads int) filter.Options {
	return filter.Options{
		Radius:  r.Radius,
		Axis:    r.Axis,
		Order:   filterOrder(r.Order),
		Workers: threads,
	}
}

// BilatInput holds the phantom in each layout for one experiment, so
// figure loops do not regenerate datasets per cell.
type BilatInput struct {
	Src  map[core.Kind]*grid.Grid[float32]
	Size int
	// NoFastPath forces wall-clock runs onto the generic interface path
	// (set from Config.NoFastPath by the grid runners).
	NoFastPath bool
}

// NewBilatInput generates the MRI phantom once and relayouts it into
// every built-in layout.
func NewBilatInput(size int, seed uint64) *BilatInput {
	in := &BilatInput{Src: make(map[core.Kind]*grid.Grid[float32]), Size: size}
	base := volume.MRIPhantom(core.NewArrayOrder(size, size, size), seed, 0.05)
	in.Src[core.ArrayKind] = base
	for _, kind := range core.Kinds()[1:] { // every non-array layout
		g, err := base.Relayout(core.New(kind, size, size, size))
		if err != nil {
			panic(err) // same dims by construction
		}
		in.Src[kind] = g
	}
	return in
}

// timeBilat measures wall-clock runtime of one bilateral-filter run
// under the given layout, with optional scheduling instrumentation: st
// receives the round-robin per-worker stats, obs each completed pencil.
func timeBilat(ctx context.Context, in *BilatInput, kind core.Kind, row BilatRow, threads int,
	st *parallel.Stats, obs parallel.Observer) (time.Duration, error) {
	src := in.Src[kind]
	nx, ny, nz := src.Dims()
	dst := grid.New(core.New(kind, nx, ny, nz))
	o := row.options(threads)
	o.Stats = st
	o.Observer = obs
	o.NoFastPath = in.NoFastPath
	start := time.Now()
	if err := filter.ApplyCtxOf[float32](ctx, src, dst, o); err != nil {
		return 0, err
	}
	return time.Since(start), nil
}

// SimBilat replays one bilateral-filter configuration through the cache
// simulator with one traced view per simulated thread, returning the
// platform's paper counter (PAPI_L3_TCA-like or L2_DATA_READ_MISS-like)
// and the full report.
func SimBilat(in *BilatInput, kind core.Kind, row BilatRow, threads int, platform cache.Platform) (uint64, cache.Report, error) {
	return simBilat(context.Background(), in, kind, row, threads, platform, nil)
}

// simBilat is SimBilat with optional replay-chunk observation (each
// pencil replayed through the simulated caches becomes a timeline span).
func simBilat(ctx context.Context, in *BilatInput, kind core.Kind, row BilatRow, threads int,
	platform cache.Platform, obs parallel.Observer) (uint64, cache.Report, error) {
	src := in.Src[kind]
	nx, ny, nz := src.Dims()
	dst := grid.New(core.New(kind, nx, ny, nz))
	sys := cache.NewSystem(platform, threads)
	srcs := make([]grid.Reader, threads)
	dsts := make([]grid.Writer, threads)
	for w := 0; w < threads; w++ {
		front := sys.Front(w)
		srcs[w] = grid.NewTraced(src, 0, front)
		dsts[w] = grid.NewTraced(dst, dstBase, front)
	}
	o := row.options(threads)
	o.Observer = obs
	if err := filter.ApplyViewsCtxOf[float32](ctx, srcs, dsts, o); err != nil {
		return 0, cache.Report{}, err
	}
	rep := sys.Report()
	return rep.PaperMetric(), rep, nil
}

// Cell holds one configuration's measurements under both layouts, the
// unit the ds tables are computed from. The imbalance factors are
// per-worker max/mean busy time from the final instrumented wall-clock
// repetition (zero when the run was not instrumented).
type Cell struct {
	RuntimeA, RuntimeZ     time.Duration
	MetricA, MetricZ       uint64
	ImbalanceA, ImbalanceZ float64
}

// measurePair times one configuration under array order and Z order with
// the repetitions interleaved (a, z, a, z, ...), keeping each layout's
// minimum. Interleaving cancels slow host drift (thermal, noisy
// neighbors) that would otherwise bias whichever layout ran last. With
// instruments attached, the runs also report per-worker scheduling
// stats and pencil spans.
func measureBilatPair(ctx context.Context, wall *BilatInput, row BilatRow, threads, reps int,
	ins *Instruments) (c Cell, err error) {
	c.RuntimeA, c.RuntimeZ = time.Duration(1<<63-1), time.Duration(1<<63-1)
	if reps < 1 {
		reps = 1
	}
	var stA, stZ *parallel.Stats
	var obsA, obsZ parallel.Observer
	if ins.active() {
		stA, stZ = &parallel.Stats{}, &parallel.Stats{}
		obsA = ins.Observer(spanName("bilat", "a", row.Label))
		obsZ = ins.Observer(spanName("bilat", "z", row.Label))
	}
	for rep := 0; rep < reps; rep++ {
		ta, err := timeBilat(ctx, wall, core.ArrayKind, row, threads, stA, obsA)
		if err != nil {
			return Cell{}, err
		}
		tz, err := timeBilat(ctx, wall, core.ZKind, row, threads, stZ, obsZ)
		if err != nil {
			return Cell{}, err
		}
		c.RuntimeA = minDuration(c.RuntimeA, ta)
		c.RuntimeZ = minDuration(c.RuntimeZ, tz)
	}
	if stA != nil {
		c.ImbalanceA = stA.ImbalanceFactor()
		c.ImbalanceZ = stZ.ImbalanceFactor()
	}
	return c, nil
}

// RunBilatGrid measures the full (rows × threads) grid: interleaved
// wall-clock on the wall-clock volume, simulated counters on the sim
// volume, both layouts per cell. progress, if non-nil, is called before
// each cell; ins, if non-nil, receives cell records, cache reports, and
// timeline spans.
func RunBilatGrid(cfg Config, threadList []int, platform cache.Platform,
	progress func(msg string), ins *Instruments) (map[string][]Cell, error) {
	return RunBilatGridCtx(context.Background(), cfg, threadList, platform, progress, ins)
}

// RunBilatGridCtx is RunBilatGrid with cooperative cancellation: the
// context is checked before each cell and threaded into every kernel
// run, so a cancelled grid stops within one work item rather than one
// cell. The partial results are discarded (nil, ctx error).
func RunBilatGridCtx(ctx context.Context, cfg Config, threadList []int, platform cache.Platform,
	progress func(msg string), ins *Instruments) (map[string][]Cell, error) {
	wall := NewBilatInput(cfg.BilatSize, cfg.Seed)
	wall.NoFastPath = cfg.NoFastPath
	sim := NewBilatInput(cfg.BilatSimSize, cfg.Seed)
	out := make(map[string][]Cell)
	for _, row := range cfg.BilatRows() {
		cells := make([]Cell, len(threadList))
		for ti, threads := range threadList {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			if progress != nil {
				progress(fmt.Sprintf("bilat %s threads=%d", row.Label, threads))
			}
			c, err := measureBilatPair(ctx, wall, row, threads, cfg.Reps, ins)
			if err != nil {
				return nil, err
			}
			ma, repA, err := simBilat(ctx, sim, core.ArrayKind, row, threads, platform,
				ins.Observer(spanName("sim bilat", "a", row.Label)))
			if err != nil {
				return nil, err
			}
			mz, repZ, err := simBilat(ctx, sim, core.ZKind, row, threads, platform,
				ins.Observer(spanName("sim bilat", "z", row.Label)))
			if err != nil {
				return nil, err
			}
			ins.AddCacheReport(repA)
			ins.AddCacheReport(repZ)
			c.MetricA, c.MetricZ = ma, mz
			cells[ti] = c
			ins.RecordCell(CellRecord{
				Kernel:     "bilat",
				Strategy:   "round-robin",
				Row:        row.Label,
				Threads:    threads,
				RuntimeA:   c.RuntimeA.Seconds(),
				RuntimeZ:   c.RuntimeZ.Seconds(),
				MetricA:    ma,
				MetricZ:    mz,
				ImbalanceA: c.ImbalanceA,
				ImbalanceZ: c.ImbalanceZ,
			})
		}
		out[row.Label] = cells
	}
	return out, nil
}
