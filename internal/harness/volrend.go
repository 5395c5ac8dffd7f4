package harness

import (
	"context"
	"fmt"
	"time"

	"sfcmem/internal/cache"
	"sfcmem/internal/core"
	"sfcmem/internal/grid"
	"sfcmem/internal/parallel"
	"sfcmem/internal/render"
	"sfcmem/internal/volume"
)

// VolInput holds the combustion plume in each layout for one experiment.
type VolInput struct {
	Vol  map[core.Kind]*grid.Grid[float32]
	Size int
	// NoFastPath forces wall-clock runs onto the generic interface path
	// (set from Config.NoFastPath by the grid runners).
	NoFastPath bool
}

// NewVolInput generates the plume once and relayouts it into every
// built-in layout.
func NewVolInput(size int, seed uint64) *VolInput {
	in := &VolInput{Vol: make(map[core.Kind]*grid.Grid[float32]), Size: size}
	base := volume.CombustionPlume(core.NewArrayOrder(size, size, size), seed)
	in.Vol[core.ArrayKind] = base
	for _, kind := range core.Kinds()[1:] { // every non-array layout
		g, err := base.Relayout(core.New(kind, size, size, size))
		if err != nil {
			panic(err)
		}
		in.Vol[kind] = g
	}
	return in
}

// renderOptions are the paper's renderer settings: 32×32 tiles, unit
// step, early termination.
func renderOptions(threads int) render.Options {
	return render.Options{TileSize: 32, Workers: threads, Step: 1}
}

// timeVolrend measures wall-clock runtime of one render (viewpoint ×
// layout × threads), with optional scheduling instrumentation: st
// receives the dynamic-queue per-worker stats, obs each completed tile.
func timeVolrend(ctx context.Context, in *VolInput, kind core.Kind, view, nViews, imgSize, threads int,
	st *parallel.Stats, obs parallel.Observer) (time.Duration, error) {
	vol := in.Vol[kind]
	cam := render.Orbit(view, nViews, in.Size, in.Size, in.Size, imgSize, imgSize)
	tf := render.DefaultTransferFunc()
	o := renderOptions(threads)
	o.Stats = st
	o.Observer = obs
	o.NoFastPath = in.NoFastPath
	start := time.Now()
	if _, err := render.RenderCtxOf[float32](ctx, vol, cam, tf, o); err != nil {
		return 0, err
	}
	return time.Since(start), nil
}

// SimVolrend replays one render through the cache simulator with one
// traced view per simulated thread, returning the platform's paper
// counter and the full report.
func SimVolrend(in *VolInput, kind core.Kind, view, nViews, imgSize, threads int, platform cache.Platform) (uint64, cache.Report, error) {
	return simVolrend(context.Background(), in, kind, view, nViews, imgSize, threads, platform, nil)
}

// simVolrend is SimVolrend with optional replay-chunk observation (each
// tile replayed through the simulated caches becomes a timeline span).
func simVolrend(ctx context.Context, in *VolInput, kind core.Kind, view, nViews, imgSize, threads int,
	platform cache.Platform, obs parallel.Observer) (uint64, cache.Report, error) {
	vol := in.Vol[kind]
	cam := render.Orbit(view, nViews, in.Size, in.Size, in.Size, imgSize, imgSize)
	tf := render.DefaultTransferFunc()
	sys := cache.NewSystem(platform, threads)
	views := make([]grid.Reader, threads)
	for w := 0; w < threads; w++ {
		views[w] = grid.NewTraced(vol, 0, sys.Front(w))
	}
	o := renderOptions(threads)
	o.Observer = obs
	if _, err := render.RenderViewsCtxOf[float32](ctx, views, cam, tf, o); err != nil {
		return 0, cache.Report{}, err
	}
	rep := sys.Report()
	return rep.PaperMetric(), rep, nil
}

// measureVolrendPair interleaves array/Z wall-clock repetitions for one
// (view, threads) cell, keeping per-layout minimums (see
// measureBilatPair for the rationale and the imbalance semantics).
func measureVolrendPair(ctx context.Context, wall *VolInput, view, nViews, imgSize, threads, reps int,
	ins *Instruments) (c Cell, err error) {
	c.RuntimeA, c.RuntimeZ = time.Duration(1<<63-1), time.Duration(1<<63-1)
	if reps < 1 {
		reps = 1
	}
	var stA, stZ *parallel.Stats
	var obsA, obsZ parallel.Observer
	if ins.active() {
		stA, stZ = &parallel.Stats{}, &parallel.Stats{}
		obsA = ins.Observer(spanName("volrend", "a", fmt.Sprintf("view %d", view)))
		obsZ = ins.Observer(spanName("volrend", "z", fmt.Sprintf("view %d", view)))
	}
	for rep := 0; rep < reps; rep++ {
		ta, err := timeVolrend(ctx, wall, core.ArrayKind, view, nViews, imgSize, threads, stA, obsA)
		if err != nil {
			return Cell{}, err
		}
		tz, err := timeVolrend(ctx, wall, core.ZKind, view, nViews, imgSize, threads, stZ, obsZ)
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

// RunVolrendGrid measures the full (viewpoints × threads) grid with
// both layouts per cell; ins, if non-nil, receives cell records, cache
// reports, and timeline spans.
func RunVolrendGrid(cfg Config, threadList []int, platform cache.Platform,
	progress func(msg string), ins *Instruments) ([][]Cell, error) {
	return RunVolrendGridCtx(context.Background(), cfg, threadList, platform, progress, ins)
}

// RunVolrendGridCtx is RunVolrendGrid with cooperative cancellation; see
// RunBilatGridCtx for the semantics.
func RunVolrendGridCtx(ctx context.Context, cfg Config, threadList []int, platform cache.Platform,
	progress func(msg string), ins *Instruments) ([][]Cell, error) {
	wall := NewVolInput(cfg.VolSize, cfg.Seed)
	wall.NoFastPath = cfg.NoFastPath
	sim := NewVolInput(cfg.VolSimSize, cfg.Seed)
	out := make([][]Cell, cfg.Views)
	for view := 0; view < cfg.Views; view++ {
		out[view] = make([]Cell, len(threadList))
		for ti, threads := range threadList {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			if progress != nil {
				progress(fmt.Sprintf("volrend view=%d threads=%d", view, threads))
			}
			c, err := measureVolrendPair(ctx, wall, view, cfg.Views, cfg.ImageSize, threads, cfg.Reps, ins)
			if err != nil {
				return nil, err
			}
			ma, repA, err := simVolrend(ctx, sim, core.ArrayKind, view, cfg.Views, cfg.SimImageSize, threads, platform,
				ins.Observer(spanName("sim volrend", "a", fmt.Sprintf("view %d", view))))
			if err != nil {
				return nil, err
			}
			mz, repZ, err := simVolrend(ctx, sim, core.ZKind, view, cfg.Views, cfg.SimImageSize, threads, platform,
				ins.Observer(spanName("sim volrend", "z", fmt.Sprintf("view %d", view))))
			if err != nil {
				return nil, err
			}
			ins.AddCacheReport(repA)
			ins.AddCacheReport(repZ)
			c.MetricA, c.MetricZ = ma, mz
			out[view][ti] = c
			ins.RecordCell(CellRecord{
				Kernel:     "volrend",
				Strategy:   "dynamic",
				View:       view,
				Threads:    threads,
				RuntimeA:   c.RuntimeA.Seconds(),
				RuntimeZ:   c.RuntimeZ.Seconds(),
				MetricA:    ma,
				MetricZ:    mz,
				ImbalanceA: c.ImbalanceA,
				ImbalanceZ: c.ImbalanceZ,
			})
		}
	}
	return out, nil
}
