package harness

import (
	"context"
	"fmt"
	"time"

	"sfcmem/internal/core"
	"sfcmem/internal/parallel"
	"sfcmem/internal/stats"
)

// FigureResult is one reproduced paper figure: rendered text plus the
// underlying tables for programmatic access.
type FigureResult struct {
	Name   string
	Text   string
	Tables []*stats.Table
}

// fig1 quantifies the paper's Fig. 1 illustration: physical-memory
// stride statistics for unit steps along each axis and for rays at the
// orbit angles, under every layout. Array order's strides explode for
// against-the-grain directions; Z order's stay bounded and
// direction-independent.
//
// It computes the per-layout stride rows concurrently through the
// dynamic worker pool (each row is an independent pure computation, so
// the tables are identical for any schedule); with instruments attached
// the sweep reports per-worker spans, per-row timings, and the pool's
// load-imbalance factor.
func fig1(cfg Config, ins *Instruments) FigureResult {
	size := cfg.VolSimSize
	kinds := core.Kinds()
	rowLabels := make([]string, len(kinds))
	for i, k := range kinds {
		rowLabels[i] = k.String()
	}
	axisTable := stats.NewTable(
		fmt.Sprintf("Fig 1a — mean |Δoffset| (elements) per unit index step, %d³ volume", size),
		rowLabels, []string{"x-step", "y-step", "z-step", "worst/best"})
	axisTable.Format = "%10.1f"
	rayTable := stats.NewTable(
		"Fig 1b — mean |Δoffset| (elements) per sample along orbit-angle rays",
		rowLabels, []string{"view0(+x)", "view1", "view2(+z)", "view3", "max/min"})
	rayTable.Format = "%10.1f"
	angles := [][3]float64{{1, 0.02, 0.02}, {0.7, 0.02, 0.7}, {0.02, 0.02, 1}, {-0.7, 0.02, 0.7}}

	workers := len(kinds)
	if cfg.FixedThreads > 0 && cfg.FixedThreads < workers {
		workers = cfg.FixedThreads
	}
	elapsed := make([]time.Duration, len(kinds))
	// fig1 takes no context; TODO never cancels, so the error is always
	// nil.
	st, _ := parallel.Dynamic(context.TODO(), len(kinds), workers, func(_, r int) {
		start := time.Now()
		kind := kinds[r]
		l := core.New(kind, size, size, size)
		var best, worst float64
		for axis := 0; axis < 3; axis++ {
			m := core.AxisStride(l, axis).Mean
			axisTable.Set(r, axis, m)
			if axis == 0 || m < best {
				best = m
			}
			if m > worst {
				worst = m
			}
		}
		if best > 0 {
			axisTable.Set(r, 3, worst/best)
		}
		var lo, hi float64
		for c, d := range angles {
			m := core.RayStride(l, d[0], d[1], d[2]).Mean
			rayTable.Set(r, c, m)
			if c == 0 || m < lo {
				lo = m
			}
			if m > hi {
				hi = m
			}
		}
		if lo > 0 {
			rayTable.Set(r, 4, hi/lo)
		}
		elapsed[r] = time.Since(start)
	}, ins.Observer("fig1 layout"))

	for r, kind := range kinds {
		ins.RecordCell(CellRecord{Kernel: "stride", Row: kind.String(), RuntimeA: elapsed[r].Seconds()})
	}
	ins.RecordCell(CellRecord{
		Kernel: "stride-sweep", Strategy: st.Strategy, Threads: workers,
		RuntimeA: st.Elapsed.Seconds(), ImbalanceA: st.ImbalanceFactor(),
	})

	text := axisTable.String() + "\n" + rayTable.String()
	return FigureResult{Name: "fig1", Text: text, Tables: []*stats.Table{axisTable, rayTable}}
}

// bilatFigure produces one of the paper's bilateral-filter ds figures
// (Fig 2 on the IvyBridge-like platform, Fig 3 on the MIC-like one).
func bilatFigure(cfg Config, name, title string, threads []int, platName string,
	progress func(string), ins *Instruments) (FigureResult, error) {
	platform := cfg.ivyPlatform()
	if platName == "mic" {
		platform = cfg.micPlatform()
	}
	cells, err := RunBilatGrid(cfg, threads, platform, progress, ins)
	if err != nil {
		return FigureResult{}, err
	}
	rows := cfg.BilatRows()
	rowLabels := make([]string, len(rows))
	for i, r := range rows {
		rowLabels[i] = r.Label
	}
	cols := intLabels(threads)
	rt := stats.NewTable(title+" — ds runtime (a vs z)", rowLabels, cols)
	mt := stats.NewTable(title+" — ds "+metricName(platName), rowLabels, cols)
	for ri, row := range rows {
		for ti := range threads {
			c := cells[row.Label][ti]
			rt.Set(ri, ti, stats.ScaledRelDiff(c.RuntimeA.Seconds(), c.RuntimeZ.Seconds()))
			mt.Set(ri, ti, stats.ScaledRelDiff(float64(c.MetricA), float64(c.MetricZ)))
		}
	}
	text := rt.String() + "\n" + mt.String()
	return FigureResult{Name: name, Text: text, Tables: []*stats.Table{rt, mt}}, nil
}

func metricName(platName string) string {
	if platName == "mic" {
		return "L2_DATA_READ_MISS"
	}
	return "PAPI_L3_TCA"
}

// fig2 reproduces the paper's Fig. 2: bilateral filter on the
// IvyBridge-like platform, scaled relative differences of runtime and
// total L3 cache accesses over the (stencil × axis × order) rows and
// the 2..24 thread sweep.
func fig2(cfg Config, progress func(string), ins *Instruments) (FigureResult, error) {
	return bilatFigure(cfg, "fig2",
		fmt.Sprintf("Fig 2 — Bilat3d %d³ (sim %d³) IvyBridge-like", cfg.BilatSize, cfg.BilatSimSize),
		cfg.IvyThreads, "ivy", progress, ins)
}

// fig3 reproduces the paper's Fig. 3: bilateral filter on the MIC-like
// platform (59..236 threads, L2 read-miss counter).
func fig3(cfg Config, progress func(string), ins *Instruments) (FigureResult, error) {
	return bilatFigure(cfg, "fig3",
		fmt.Sprintf("Fig 3 — Bilat3d %d³ (sim %d³) MIC-like", cfg.BilatSize, cfg.BilatSimSize),
		cfg.MICThreads, "mic", progress, ins)
}

// fig4 reproduces the paper's Fig. 4: absolute runtime and L3 counter
// for both layouts as the viewpoint orbits, at a fixed thread count.
// Array order peaks at oblique views and dips at views 0 and N/2; Z
// order stays flat.
func fig4(cfg Config, progress func(string), ins *Instruments) (FigureResult, error) {
	wall := NewVolInput(cfg.VolSize, cfg.Seed)
	sim := NewVolInput(cfg.VolSimSize, cfg.Seed)
	platform := cfg.ivyPlatform()
	labels := make([]string, cfg.Views)
	aRT := make([]float64, cfg.Views)
	zRT := make([]float64, cfg.Views)
	aImb := make([]float64, cfg.Views)
	zImb := make([]float64, cfg.Views)
	var aM, zM []float64
	var stA, stZ *parallel.Stats
	var obsA, obsZ parallel.Observer
	if ins.active() {
		stA, stZ = &parallel.Stats{}, &parallel.Stats{}
		obsA = ins.Observer("fig4 volrend a")
		obsZ = ins.Observer("fig4 volrend z")
	}
	// Wall-clock: sweep the whole orbit in interleaved rounds (array and
	// Z per view, all views per round) and keep per-cell minimums, so
	// slow host drift cannot masquerade as viewpoint structure. The
	// absolute plot needs at least a few rounds even when Reps is 1.
	rounds := cfg.Reps
	if rounds < 3 {
		rounds = 3
	}
	for round := 0; round < rounds; round++ {
		for view := 0; view < cfg.Views; view++ {
			if progress != nil {
				progress(fmt.Sprintf("fig4 round=%d view=%d", round, view))
			}
			a, err := timeVolrend(context.Background(), wall, core.ArrayKind, view, cfg.Views, cfg.ImageSize, cfg.FixedThreads, stA, obsA)
			if err != nil {
				return FigureResult{}, err
			}
			z, err := timeVolrend(context.Background(), wall, core.ZKind, view, cfg.Views, cfg.ImageSize, cfg.FixedThreads, stZ, obsZ)
			if err != nil {
				return FigureResult{}, err
			}
			if round == 0 || a.Seconds() < aRT[view] {
				aRT[view] = a.Seconds()
			}
			if round == 0 || z.Seconds() < zRT[view] {
				zRT[view] = z.Seconds()
			}
			if stA != nil {
				aImb[view] = stA.ImbalanceFactor()
				zImb[view] = stZ.ImbalanceFactor()
			}
		}
	}
	for view := 0; view < cfg.Views; view++ {
		labels[view] = fmt.Sprintf("%d", view)
		ma, repA, err := simVolrend(context.Background(), sim, core.ArrayKind, view, cfg.Views, cfg.SimImageSize, cfg.FixedThreads, platform,
			ins.Observer("fig4 sim volrend a"))
		if err != nil {
			return FigureResult{}, err
		}
		mz, repZ, err := simVolrend(context.Background(), sim, core.ZKind, view, cfg.Views, cfg.SimImageSize, cfg.FixedThreads, platform,
			ins.Observer("fig4 sim volrend z"))
		if err != nil {
			return FigureResult{}, err
		}
		ins.AddCacheReport(repA)
		ins.AddCacheReport(repZ)
		aM = append(aM, float64(ma))
		zM = append(zM, float64(mz))
		ins.RecordCell(CellRecord{
			Kernel:     "volrend",
			Strategy:   "dynamic",
			View:       view,
			Threads:    cfg.FixedThreads,
			RuntimeA:   aRT[view],
			RuntimeZ:   zRT[view],
			MetricA:    uint64(aM[view]),
			MetricZ:    uint64(zM[view]),
			ImbalanceA: aImb[view],
			ImbalanceZ: zImb[view],
		})
	}
	text := stats.RenderSeries(
		fmt.Sprintf("Fig 4 — Volrend %d³ (sim %d³) IvyBridge-like, %d threads: runtime (s) and PAPI_L3_TCA vs viewpoint",
			cfg.VolSize, cfg.VolSimSize, cfg.FixedThreads),
		stats.Series{Name: "a-order rt", Labels: labels, Values: aRT},
		stats.Series{Name: "z-order rt", Labels: labels, Values: zRT},
		stats.Series{Name: "a-order L3", Labels: labels, Values: aM},
		stats.Series{Name: "z-order L3", Labels: labels, Values: zM},
	)
	return FigureResult{Name: "fig4", Text: text}, nil
}

// volrendFigure produces one of the renderer ds figures (Fig 5 / Fig 6).
func volrendFigure(cfg Config, name, title string, threads []int, platName string,
	progress func(string), ins *Instruments) (FigureResult, error) {
	platform := cfg.ivyPlatform()
	if platName == "mic" {
		platform = cfg.micPlatform()
	}
	cells, err := RunVolrendGrid(cfg, threads, platform, progress, ins)
	if err != nil {
		return FigureResult{}, err
	}
	rowLabels := make([]string, cfg.Views)
	for v := range rowLabels {
		rowLabels[v] = fmt.Sprintf("%d", v)
	}
	cols := intLabels(threads)
	rt := stats.NewTable(title+" — ds runtime (a vs z)", rowLabels, cols)
	mt := stats.NewTable(title+" — ds "+metricName(platName), rowLabels, cols)
	for v := 0; v < cfg.Views; v++ {
		for ti := range threads {
			c := cells[v][ti]
			rt.Set(v, ti, stats.ScaledRelDiff(c.RuntimeA.Seconds(), c.RuntimeZ.Seconds()))
			mt.Set(v, ti, stats.ScaledRelDiff(float64(c.MetricA), float64(c.MetricZ)))
		}
	}
	text := rt.String() + "\n" + mt.String()
	return FigureResult{Name: name, Text: text, Tables: []*stats.Table{rt, mt}}, nil
}

// fig5 reproduces the paper's Fig. 5: renderer ds tables (viewpoints ×
// threads) on the IvyBridge-like platform.
func fig5(cfg Config, progress func(string), ins *Instruments) (FigureResult, error) {
	return volrendFigure(cfg, "fig5",
		fmt.Sprintf("Fig 5 — Volrend %d³ (sim %d³) IvyBridge-like", cfg.VolSize, cfg.VolSimSize),
		cfg.IvyThreads, "ivy", progress, ins)
}

// fig6 reproduces the paper's Fig. 6: renderer ds tables on the
// MIC-like platform.
func fig6(cfg Config, progress func(string), ins *Instruments) (FigureResult, error) {
	return volrendFigure(cfg, "fig6",
		fmt.Sprintf("Fig 6 — Volrend %d³ (sim %d³) MIC-like", cfg.VolSize, cfg.VolSimSize),
		cfg.MICThreads, "mic", progress, ins)
}

// FigureObs dispatches a figure by number: 1-6 reproduce the paper's
// figures, 7-11 are this repo's extension studies (reuse-distance
// curves, the padding/auto-tuning ablation, per-level counters,
// slice/LOD query costs, and the element-dtype sweep). When ins is
// non-nil, the figure's elapsed time, per-cell measurements,
// aggregated simulated cache counters, and per-worker timeline spans
// flow into it.
func FigureObs(n int, cfg Config, progress func(string), ins *Instruments) (FigureResult, error) {
	if n < 1 || n > 11 {
		return FigureResult{}, fmt.Errorf("harness: no figure %d (valid: 1-6 paper, 7-11 extensions)", n)
	}
	end := ins.StartFigure(fmt.Sprintf("fig%d", n))
	defer end()
	switch n {
	case 1:
		return fig1(cfg, ins), nil
	case 2:
		return fig2(cfg, progress, ins)
	case 3:
		return fig3(cfg, progress, ins)
	case 4:
		return fig4(cfg, progress, ins)
	case 5:
		return fig5(cfg, progress, ins)
	case 6:
		return fig6(cfg, progress, ins)
	case 7:
		return fig7(cfg, progress)
	case 8:
		return fig8(cfg, progress)
	case 9:
		return fig9(cfg, progress)
	case 10:
		return fig10(cfg, progress)
	default:
		return fig11(cfg, progress, ins)
	}
}
