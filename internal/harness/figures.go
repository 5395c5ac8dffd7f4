package harness

import (
	"context"
	"fmt"
	"strconv"
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
	// Rows are the runner rows the tables pivot, in measurement order
	// (nil for figures that are not kernel sweeps).
	Rows []CellRecord
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
		ins.RecordCell(CellRecord{Kernel: "stride", Layout: kind.String(), Runtime: elapsed[r].Seconds()})
	}
	ins.RecordCell(CellRecord{
		Kernel: "stride-sweep", Strategy: st.Strategy, Threads: workers,
		Runtime: st.Elapsed.Seconds(), Imbalance: st.ImbalanceFactor(),
	})

	text := axisTable.String() + "\n" + rayTable.String()
	return FigureResult{Name: "fig1", Text: text, Tables: []*stats.Table{axisTable, rayTable}}
}

// dsFigures are the paper's ds figures by number. Fig 2 and 3 sweep the
// bilateral rows (stencil × pencil axis × loop order), Fig 5 and 6 the
// render viewpoints; each runs over its platform's thread list.
var dsFigures = map[int]struct{ kernel, platform string }{
	2: {bilatKernel, ivyPlat}, 3: {bilatKernel, micPlat},
	5: {volrendKernel, ivyPlat}, 6: {volrendKernel, micPlat},
}

// dsFigure produces ds figure n: at every (row or viewpoint, threads)
// cell it measures array and Z order on the host and on the platform's
// cache model, then pivots the rows into two tables of ds = (a−z)/z,
// one of wall-clock time and one of the paper counter.
func dsFigure(cfg Config, progress func(string), ins *Instruments, n int, kernel, platform string) (FigureResult, error) {
	threads, model, metric := cfg.IvyThreads, "IvyBridge-like", "PAPI_L3_TCA"
	if platform == micPlat {
		threads, model, metric = cfg.MICThreads, "MIC-like", "L2_DATA_READ_MISS"
	}
	var labels []string
	at := cfg.volrendPoint
	title := fmt.Sprintf("Fig %d — Volrend %d³ (sim %d³) %s", n, cfg.VolSize, cfg.VolSimSize, model)
	if kernel == bilatKernel {
		rows := cfg.BilatRows()
		for _, row := range rows {
			labels = append(labels, row.Label)
		}
		at = func(i, t int, platform string) point { return cfg.bilatPoint(rows[i], t, platform) }
		title = fmt.Sprintf("Fig %d — Bilat3d %d³ (sim %d³) %s", n, cfg.BilatSize, cfg.BilatSimSize, model)
	} else {
		for v := 0; v < cfg.Views; v++ {
			labels = append(labels, strconv.Itoa(v))
		}
	}
	r := newRunner(cfg, progress, ins)
	var groups [][]point
	for i := range labels {
		for _, t := range threads {
			groups = append(groups, append(pair(at(i, t, hostPlat)), pair(at(i, t, platform))...))
		}
	}
	if err := r.run(context.TODO(), groups, cfg.Reps); err != nil {
		return FigureResult{}, err
	}
	cols := intLabels(threads)
	rt := stats.NewTable(title+" — ds runtime (a vs z)", labels, cols)
	mt := stats.NewTable(title+" — ds "+metric, labels, cols)
	for i := range labels {
		for j, t := range threads {
			rt.Set(i, j, r.ds(at(i, t, hostPlat), runtimeOf))
			mt.Set(i, j, r.ds(at(i, t, platform), metricOf))
		}
	}
	text := rt.String() + "\n" + mt.String()
	return FigureResult{Name: fmt.Sprintf("fig%d", n), Text: text, Tables: []*stats.Table{rt, mt}, Rows: r.order}, nil
}

// fig4 reproduces the paper's Fig. 4: absolute runtime and L3 counter
// for both layouts as the viewpoint orbits, at a fixed thread count.
// Array order peaks at oblique views and dips at views 0 and N/2; Z
// order stays flat.
func fig4(cfg Config, progress func(string), ins *Instruments) (FigureResult, error) {
	r := newRunner(cfg, progress, ins)
	// One group: each round times the whole orbit, array and Z per view,
	// so slow host drift cannot masquerade as viewpoint structure.
	var group []point
	for _, platform := range []string{hostPlat, ivyPlat} {
		for view := 0; view < cfg.Views; view++ {
			group = append(group, pair(cfg.volrendPoint(view, cfg.FixedThreads, platform))...)
		}
	}
	// The absolute plot needs at least a few rounds even when Reps is 1.
	if err := r.run(context.TODO(), [][]point{group}, max(cfg.Reps, 3)); err != nil {
		return FigureResult{}, err
	}
	labels := make([]string, cfg.Views)
	series := make([][]float64, 4) // a rt, z rt, a L3, z L3
	for view := 0; view < cfg.Views; view++ {
		labels[view] = fmt.Sprintf("%d", view)
		wall := pair(cfg.volrendPoint(view, cfg.FixedThreads, hostPlat))
		sim := pair(cfg.volrendPoint(view, cfg.FixedThreads, ivyPlat))
		for k := 0; k < 2; k++ {
			series[k] = append(series[k], r.rows[wall[k]].Runtime)
			series[2+k] = append(series[2+k], metricOf(r.rows[sim[k]]))
		}
	}
	text := stats.RenderSeries(
		fmt.Sprintf("Fig 4 — Volrend %d³ (sim %d³) IvyBridge-like, %d threads: runtime (s) and PAPI_L3_TCA vs viewpoint",
			cfg.VolSize, cfg.VolSimSize, cfg.FixedThreads),
		stats.Series{Name: "a-order rt", Labels: labels, Values: series[0]},
		stats.Series{Name: "z-order rt", Labels: labels, Values: series[1]},
		stats.Series{Name: "a-order L3", Labels: labels, Values: series[2]},
		stats.Series{Name: "z-order L3", Labels: labels, Values: series[3]},
	)
	return FigureResult{Name: "fig4", Text: text, Rows: r.order}, nil
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
	if f, ok := dsFigures[n]; ok {
		return dsFigure(cfg, progress, ins, n, f.kernel, f.platform)
	}
	switch n {
	case 1:
		return fig1(cfg, ins), nil
	case 4:
		return fig4(cfg, progress, ins)
	case 7:
		return fig7(cfg, progress, ins)
	case 8:
		return fig8(cfg, progress)
	case 9:
		return fig9(cfg, progress, ins)
	case 10:
		return fig10(cfg, progress)
	default:
		return fig11(cfg, progress, ins)
	}
}
