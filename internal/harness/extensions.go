package harness

import (
	"context"
	"fmt"

	"sfcmem/internal/core"
	"sfcmem/internal/filter"
	"sfcmem/internal/grid"
	"sfcmem/internal/multires"
	"sfcmem/internal/parallel"
	"sfcmem/internal/stats"
	"sfcmem/internal/tune"
)

// fig7 is an extension beyond the paper: architecture-independent lruPlat
// miss-ratio curves (reuse-distance profiles) for both kernels under
// every layout. Where the paper reads two platform-specific counters,
// these curves characterize the locality itself — the knee of each
// curve shows the cache size at which that layout stops thrashing.
func fig7(cfg Config, progress func(string), ins *Instruments) (FigureResult, error) {
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
	bilat := point{Kernel: bilatKernel, Dtype: grid.F32, Size: size, Threads: 1, Platform: lruPlat,
		Row: BilatRow{Label: "pz zyx", Radius: 2, Axis: parallel.AxisZ, Order: OrderZYX}}
	volrend := point{Kernel: volrendKernel, Dtype: grid.F32, Size: size, Image: 64, Threads: 1, Platform: lruPlat, View: 2}
	r := newRunner(cfg, progress, ins)
	var groups [][]point
	for _, p := range []point{bilat, volrend} {
		for _, kind := range kinds {
			p.Kind = kind
			groups = append(groups, []point{p})
		}
	}
	if err := r.run(context.TODO(), groups, 1); err != nil {
		return FigureResult{}, err
	}
	curves := func(title string, p point) *stats.Table {
		t := stats.NewTable(title, rowLabels, cols)
		t.Format = "%8.4f"
		for i, kind := range kinds {
			p.Kind = kind
			h := r.rows[p].Reuse
			for c, b := 0, fromB; b <= toB; c, b = c+1, b+2 {
				t.Set(i, c, h.MissRatio(1<<b))
			}
		}
		return t
	}
	bt := curves(fmt.Sprintf("Fig 7a (extension) — LRU miss-ratio vs cache size, bilateral r3 pz zyx, %d³", size), bilat)
	vt := curves(fmt.Sprintf("Fig 7b (extension) — LRU miss-ratio vs cache size, volrend view 2, %d³", size), volrend)
	text := bt.String() + "\n" + vt.String()
	return FigureResult{Name: "fig7", Text: text, Tables: []*stats.Table{bt, vt}, Rows: r.order}, nil
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

// fig9 is an extension implementing the paper's §V future-work note
// that "additional metrics ... will help to refine our understanding":
// a full per-level breakdown (L1/L2/LLC miss rates, TLB miss rate,
// memory traffic) for both kernels under array and Z order, in the
// against-the-grain configurations where the layouts differ most.
func fig9(cfg Config, progress func(string), ins *Instruments) (FigureResult, error) {
	size := cfg.BilatSimSize
	bilat := cfg.bilatPoint(BilatRow{Label: "r3 pz zyx", Radius: 2, Axis: parallel.AxisZ, Order: OrderZYX}, 2, ivyPlat)
	volrend := cfg.volrendPoint(2, 2, ivyPlat)
	volrend.Size = size
	points := append(pair(bilat), pair(volrend)...)
	r := newRunner(cfg, progress, ins)
	if err := r.run(context.TODO(), [][]point{points}, 1); err != nil {
		return FigureResult{}, err
	}
	rows := []string{
		"bilat a-order", "bilat z-order",
		"volrend a-order", "volrend z-order",
	}
	cols := []string{"L1 miss", "L2 miss", "LLC miss", "TLB miss", "mem rd", "mem wr"}
	t := stats.NewTable(
		fmt.Sprintf("Fig 9 (extension) — per-level memory-system breakdown, %d³, %s", size, cfg.ivyPlatform().Name),
		rows, cols)
	t.Format = "%10.4f"
	for i, p := range points {
		c := r.rows[p].Cache
		missRate := func(level string) float64 {
			if c[level+".accesses"] == 0 {
				return 0
			}
			return float64(c[level+".misses"]) / float64(c[level+".accesses"])
		}
		t.Set(i, 0, missRate("l1"))
		t.Set(i, 1, missRate("l2"))
		if _, shared := c["llc.accesses"]; shared {
			t.Set(i, 2, missRate("llc"))
		}
		t.Set(i, 3, missRate("tlb"))
		t.Set(i, 4, float64(c["mem.reads"]))
		t.Set(i, 5, float64(c["mem.writes"]))
	}
	return FigureResult{Name: "fig9", Text: t.String(), Tables: []*stats.Table{t}, Rows: r.order}, nil
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

// fig11 is the element-dtype sweep. The paper stores float32 samples;
// the generic data plane also runs every kernel over uint8, uint16 and
// float64 volumes. Narrow dtypes shrink the working set 4x (uint8) or
// 2x (uint16), which moves the cache-capacity knee the same way a
// bigger cache would — the space-filling-curve story at a different
// axis. It runs the bilateral filter at the largest configured stencil,
// px/xyz, at the fixed thread count, for every configured dtype under
// four layouts. Three tables: absolute runtime, runtime scaled relative
// difference against float32 (positive = this dtype faster), and the
// volume buffer size.
func fig11(cfg Config, progress func(string), ins *Instruments) (FigureResult, error) {
	dtypes, err := cfg.DtypeList()
	if err != nil {
		return FigureResult{}, err
	}
	radius := cfg.Radii[len(cfg.Radii)-1] // largest stencil: most work per byte held
	base := cfg.bilatPoint(BilatRow{Label: radius.Label + " px xyz", Radius: radius.Radius}, cfg.FixedThreads, hostPlat)
	kinds := []core.Kind{core.ArrayKind, core.ZKind, core.TiledKind, core.HilbertKind}
	at := func(kind core.Kind, dt grid.Dtype) point {
		p := base
		p.Kind, p.Dtype = kind, dt
		return p
	}
	// One group per layout: the repetitions interleave dtype by dtype,
	// so slow host drift cannot bias one dtype's minimum.
	r := newRunner(cfg, progress, ins)
	groups := make([][]point, len(kinds))
	for i, kind := range kinds {
		for _, dt := range dtypes {
			groups[i] = append(groups[i], at(kind, dt))
		}
	}
	if err := r.run(context.TODO(), groups, cfg.Reps); err != nil {
		return FigureResult{}, err
	}

	rowLabels := make([]string, len(dtypes))
	for i, dt := range dtypes {
		rowLabels[i] = dt.String()
	}
	colLabels := make([]string, len(kinds))
	for i, k := range kinds {
		colLabels[i] = k.String()
	}
	title := fmt.Sprintf("Fig 11%%s (extension) — Bilat3d %s %d³, %d threads", base.Row.Label, base.Size, cfg.FixedThreads)
	rt := stats.NewTable(fmt.Sprintf(title, "a")+": runtime (s) by element dtype", rowLabels, colLabels)
	rt.Format = "%10.3f"
	ds := stats.NewTable(fmt.Sprintf(title, "b")+": ds runtime (float32 vs dtype)", rowLabels, colLabels)
	mem := stats.NewTable(fmt.Sprintf(title, "c")+": volume buffer MiB (with layout padding)", rowLabels, colLabels)
	mem.Format = "%10.1f"
	for di, dt := range dtypes {
		for ki, kind := range kinds {
			rt.Set(di, ki, r.rows[at(kind, dt)].Runtime)
			if f32, ok := r.rows[at(kind, grid.F32)]; ok {
				ds.Set(di, ki, stats.ScaledRelDiff(f32.Runtime, r.rows[at(kind, dt)].Runtime))
			}
			n := base.Size
			mem.Set(di, ki, float64(core.New(kind, n, n, n).Len()*dt.Size())/(1<<20))
		}
	}
	text := rt.String() + "\n" + ds.String() + "\n" + mem.String()
	return FigureResult{Name: "fig11", Text: text, Tables: []*stats.Table{rt, ds, mem}, Rows: r.order}, nil
}
