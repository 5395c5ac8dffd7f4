package harness

import (
	"fmt"

	"sfcmem/internal/cache"
	"sfcmem/internal/core"
	"sfcmem/internal/filter"
	"sfcmem/internal/grid"
	"sfcmem/internal/multires"
	"sfcmem/internal/parallel"
	"sfcmem/internal/render"
	"sfcmem/internal/reuse"
	"sfcmem/internal/stats"
	"sfcmem/internal/tune"
)

// fig7 is an extension beyond the paper: architecture-independent LRU
// miss-ratio curves (reuse-distance profiles) for both kernels under
// every layout. Where the paper reads two platform-specific counters,
// these curves characterize the locality itself — the knee of each
// curve shows the cache size at which that layout stops thrashing.
func fig7(cfg Config, progress func(string)) (FigureResult, error) {
	size := cfg.BilatSimSize
	if size > 32 {
		size = 32 // reuse analysis is O(log n) per access; keep traces modest
	}
	kinds := core.Kinds()
	rowLabels := make([]string, len(kinds))
	for i, k := range kinds {
		rowLabels[i] = k.String()
	}
	const fromB, toB = 6, 16 // 64 lines (4KB) .. 64K lines (4MB)
	var cols []string
	for b := fromB; b <= toB; b += 2 {
		cols = append(cols, fmt.Sprintf("%dKB", (1<<b)*64/1024))
	}

	mkTable := func(title string, profile func(kind core.Kind) (reuse.Histogram, error)) (*stats.Table, error) {
		t := stats.NewTable(title, rowLabels, cols)
		t.Format = "%8.4f"
		for r, kind := range kinds {
			if progress != nil {
				progress(fmt.Sprintf("fig7 %s %s", title, kind))
			}
			h, err := profile(kind)
			if err != nil {
				return nil, err
			}
			c := 0
			for b := fromB; b <= toB; b += 2 {
				t.Set(r, c, h.MissRatio(1<<b))
				c++
			}
		}
		return t, nil
	}

	bilatIn := NewBilatInput(size, cfg.Seed)
	row := BilatRow{Label: "pz zyx", Radius: 2, Axis: parallel.AxisZ, Order: OrderZYX}
	bt, err := mkTable(
		fmt.Sprintf("Fig 7a (extension) — LRU miss-ratio vs cache size, bilateral r3 pz zyx, %d³", size),
		func(kind core.Kind) (reuse.Histogram, error) {
			an := reuse.NewAnalyzer(1 << 20)
			src := bilatIn.Src[kind]
			dst := grid.New(core.New(kind, size, size, size))
			err := filter.ApplyViews(
				[]grid.Reader{grid.NewTraced(src, 0, an)},
				[]grid.Writer{grid.NewTraced(dst, dstBase, an)},
				row.options(1))
			return an.Histogram(), err
		})
	if err != nil {
		return FigureResult{}, err
	}

	volIn := NewVolInput(size, cfg.Seed)
	vt, err := mkTable(
		fmt.Sprintf("Fig 7b (extension) — LRU miss-ratio vs cache size, volrend view 2, %d³", size),
		func(kind core.Kind) (reuse.Histogram, error) {
			an := reuse.NewAnalyzer(1 << 20)
			cam := render.Orbit(2, cfg.Views, size, size, size, 64, 64)
			_, err := render.RenderViews(
				[]grid.Reader{grid.NewTraced(volIn.Vol[kind], 0, an)},
				cam, render.DefaultTransferFunc(), renderOptions(1))
			return an.Histogram(), err
		})
	if err != nil {
		return FigureResult{}, err
	}
	text := bt.String() + "\n" + vt.String()
	return FigureResult{Name: "fig7", Text: text, Tables: []*stats.Table{bt, vt}}, nil
}

// fig8 is an extension beyond the paper: the §V padding limitation made
// quantitative. For awkward (non-power-of-two) volume sizes it compares
// pure Z order's padded buffer against the ZTiled (Morton-in-bricks)
// remedy, and auto-tunes the brick/tile edges with the simulator.
func fig8(cfg Config, progress func(string)) (FigureResult, error) {
	sizes := []int{33, 65, 96, 100, 129}
	labels := make([]string, len(sizes))
	for i, s := range sizes {
		labels[i] = fmt.Sprintf("%d³", s)
	}
	pad := stats.NewTable(
		"Fig 8a (extension) — buffer overhead (fraction wasted) by layout and volume size",
		labels, []string{"zorder", "ztiled16", "tiled8", "array"})
	pad.Format = "%9.3f"
	for r, s := range sizes {
		z := core.NewZOrder(s, s, s)
		zt := core.NewZTiled(s, s, s, 16)
		tl := core.NewTiled(s, s, s, 8)
		ideal := float64(s) * float64(s) * float64(s)
		pad.Set(r, 0, z.Overhead())
		pad.Set(r, 1, zt.Overhead())
		pad.Set(r, 2, float64(tl.Len())/ideal-1)
		pad.Set(r, 3, 0)
	}

	if progress != nil {
		progress("fig8 tuning brick/tile edges")
	}
	tcfg := tune.FilterConfig{
		Size: 32,
		Seed: cfg.Seed,
		Options: filter.Options{
			Radius: 2, Axis: parallel.AxisZ, Order: filter.ZYX, Workers: 2,
		},
		Platform: cfg.ivyPlatform(),
	}
	bestBrick, brickResults, err := tune.BrickSize(tcfg, nil)
	if err != nil {
		return FigureResult{}, err
	}
	bestTile, tileResults, err := tune.TileSize(tcfg, nil)
	if err != nil {
		return FigureResult{}, err
	}
	text := pad.String() + "\n"
	text += "Fig 8b (extension) — auto-tuned blocking factors (simulated PAPI_L3_TCA, 32³, r3 pz zyx)\n"
	for _, r := range brickResults {
		text += fmt.Sprintf("  ztiled brick %2d: %10.0f\n", r.Param, r.Score)
	}
	for _, r := range tileResults {
		text += fmt.Sprintf("  tiled  tile  %2d: %10.0f\n", r.Param, r.Score)
	}
	text += fmt.Sprintf("  best: ztiled brick=%d, tiled tile=%d\n", bestBrick, bestTile)
	return FigureResult{Name: "fig8", Text: text, Tables: []*stats.Table{pad}}, nil
}

// cacheReport aliases cache.Report for the breakdown table helper.
type cacheReport = cache.Report

// fig9 is an extension implementing the paper's §V future-work note
// that "additional metrics ... will help to refine our understanding":
// a full per-level breakdown (L1/L2/LLC miss rates, TLB miss rate,
// memory traffic) for both kernels under array and Z order, in the
// against-the-grain configurations where the layouts differ most.
func fig9(cfg Config, progress func(string)) (FigureResult, error) {
	size := cfg.BilatSimSize
	platform := cfg.ivyPlatform()
	rows := []string{
		"bilat a-order", "bilat z-order",
		"volrend a-order", "volrend z-order",
	}
	cols := []string{"L1 miss", "L2 miss", "LLC miss", "TLB miss", "mem rd", "mem wr"}
	t := stats.NewTable(
		fmt.Sprintf("Fig 9 (extension) — per-level memory-system breakdown, %d³, %s", size, platform.Name),
		rows, cols)
	t.Format = "%10.4f"

	bilatIn := NewBilatInput(size, cfg.Seed)
	volIn := NewVolInput(size, cfg.Seed)
	row := BilatRow{Label: "r3 pz zyx", Radius: 2, Axis: parallel.AxisZ, Order: OrderZYX}
	fill := func(r int, rep cacheReport) {
		t.Set(r, 0, rep.PrivateTotal[0].MissRate())
		t.Set(r, 1, rep.PrivateTotal[1].MissRate())
		if rep.HasShared {
			t.Set(r, 2, rep.Shared.MissRate())
		}
		t.Set(r, 3, rep.TLB.MissRate())
		t.Set(r, 4, float64(rep.MemReads))
		t.Set(r, 5, float64(rep.MemWrites))
	}
	for i, kind := range []core.Kind{core.ArrayKind, core.ZKind} {
		if progress != nil {
			progress(fmt.Sprintf("fig9 bilat %s", kind))
		}
		_, rep, err := SimBilat(bilatIn, kind, row, 2, platform)
		if err != nil {
			return FigureResult{}, err
		}
		fill(i, rep)
	}
	for i, kind := range []core.Kind{core.ArrayKind, core.ZKind} {
		if progress != nil {
			progress(fmt.Sprintf("fig9 volrend %s", kind))
		}
		_, rep, err := SimVolrend(volIn, kind, 2, cfg.Views, cfg.SimImageSize, 2, platform)
		if err != nil {
			return FigureResult{}, err
		}
		fill(2+i, rep)
	}
	return FigureResult{Name: "fig9", Text: t.String(), Tables: []*stats.Table{t}}, nil
}

// fig10 is an extension reproducing the access pattern behind the
// paper's ref [7] (Pascucci & Frank 2001): the memory a layout must
// touch to serve slice and subsampling queries. It compares array
// order, plain Z order, and the hierarchical HZ order — showing both
// the Z-order slice advantage the paper cites and the fact that the
// *progressive subsampling* advantage needs the HZ regrouping.
func fig10(cfg Config, progress func(string)) (FigureResult, error) {
	size := cfg.VolSimSize
	kinds := []core.Kind{core.ArrayKind, core.ZKind, core.HZKind}
	rowLabels := make([]string, len(kinds))
	for i, k := range kinds {
		rowLabels[i] = k.String()
	}
	if progress != nil {
		progress("fig10 slice/subsample query costs")
	}

	sliceT := stats.NewTable(
		fmt.Sprintf("Fig 10a (extension) — 4KB pages touched per full-resolution slice, %d³ volume", size),
		rowLabels, []string{"xy@z", "xz@y", "yz@x", "worst/best"})
	sliceT.Format = "%10.1f"
	for r, kind := range kinds {
		l := core.New(kind, size, size, size)
		var lo, hi float64
		for c, ax := range []multires.SliceAxis{multires.SliceZ, multires.SliceY, multires.SliceX} {
			cost, err := multires.SliceCost(l, ax, size/2, 0)
			if err != nil {
				return FigureResult{}, err
			}
			v := float64(cost.Pages)
			sliceT.Set(r, c, v)
			if c == 0 || v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		if lo > 0 {
			sliceT.Set(r, 3, hi/lo)
		}
	}

	subT := stats.NewTable(
		fmt.Sprintf("Fig 10b (extension) — bytes spanned by the level-L subsample lattice, %d³ volume", size),
		rowLabels, []string{"L=0", "L=1", "L=2", "L=3"})
	subT.Format = "%10.0f"
	for r, kind := range kinds {
		l := core.New(kind, size, size, size)
		for c, level := range []int{0, 1, 2, 3} {
			cost, err := multires.SubsampleCost(l, level)
			if err != nil {
				return FigureResult{}, err
			}
			subT.Set(r, c, float64(cost.Span))
		}
	}
	text := sliceT.String() + "\n" + subT.String()
	return FigureResult{Name: "fig10", Text: text, Tables: []*stats.Table{sliceT, subT}}, nil
}
