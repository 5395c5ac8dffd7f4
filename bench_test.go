// Benchmarks regenerating the paper's tables and figures, one bench per
// experiment (see DESIGN.md §4 for the experiment index). Each figure
// bench times the measured kernel under both memory layouts and attaches
// the simulated memory-system counter (the paper's PAPI metric) as a
// custom benchmark metric, so `go test -bench=.` reproduces both of the
// paper's measurement channels. The full-grid tables are produced by
// cmd/sfcbench; these benches cover each figure's representative cells
// at bench-friendly sizes.
package sfcmem_test

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"sfcmem"
	"sfcmem/internal/cache"
	"sfcmem/internal/core"
	"sfcmem/internal/filter"
	"sfcmem/internal/grid"
	"sfcmem/internal/parallel"
	"sfcmem/internal/render"
	"sfcmem/internal/volume"
)

// Bench volumes are cached across benchmarks: generation (FBM noise) is
// far more expensive than a single kernel run.
var (
	benchMu     sync.Mutex
	benchMRI    = map[string]*grid.Grid[float32]{}
	benchPlume  = map[string]*grid.Grid[float32]{}
	benchImgSum float64 // defeats dead-code elimination
)

func mriFor(b *testing.B, kind core.Kind, n int) *grid.Grid[float32] {
	b.Helper()
	benchMu.Lock()
	defer benchMu.Unlock()
	key := fmt.Sprintf("%s/%d", kind, n)
	if g, ok := benchMRI[key]; ok {
		return g
	}
	g := volume.MRIPhantom(core.New(kind, n, n, n), 1, 0.05)
	benchMRI[key] = g
	return g
}

func plumeFor(b *testing.B, kind core.Kind, n int) *grid.Grid[float32] {
	b.Helper()
	benchMu.Lock()
	defer benchMu.Unlock()
	key := fmt.Sprintf("%s/%d", kind, n)
	if g, ok := benchPlume[key]; ok {
		return g
	}
	g := volume.CombustionPlume(core.New(kind, n, n, n), 1)
	benchPlume[key] = g
	return g
}

// --- E1 / Fig 1: layout locality (ray-stride analysis) ---------------

func BenchmarkFig1_RayStride(b *testing.B) {
	for _, kind := range []core.Kind{core.ArrayKind, core.ZKind} {
		for _, dir := range []struct {
			name       string
			dx, dy, dz float64
		}{
			{"alongX", 1, 0.02, 0.02},
			{"alongZ", 0.02, 0.02, 1},
		} {
			b.Run(kind.String()+"/"+dir.name, func(b *testing.B) {
				l := core.New(kind, 64, 64, 64)
				var mean float64
				for i := 0; i < b.N; i++ {
					mean = core.RayStride(l, dir.dx, dir.dy, dir.dz).Mean
				}
				b.ReportMetric(mean, "elems/step")
			})
		}
	}
}

// --- E2/E3 / Fig 2-3: bilateral filter --------------------------------

// bilatBenchRow is one representative cell of the Fig 2/3 grids. The r5
// rows run on a smaller volume to keep bench time bounded; the layout
// comparison within a row is still like-for-like.
type bilatBenchRow struct {
	label  string
	radius int
	size   int
	axis   parallel.Axis
	order  filter.Order
}

func bilatBenchRows() []bilatBenchRow {
	return []bilatBenchRow{
		{"r1_px_xyz", 1, 64, parallel.AxisX, filter.XYZ},
		{"r1_pz_zyx", 1, 64, parallel.AxisZ, filter.ZYX},
		{"r3_px_xyz", 2, 48, parallel.AxisX, filter.XYZ},
		{"r3_pz_zyx", 2, 48, parallel.AxisZ, filter.ZYX},
		{"r5_px_xyz", 5, 32, parallel.AxisX, filter.XYZ},
		{"r5_pz_zyx", 5, 32, parallel.AxisZ, filter.ZYX},
	}
}

func benchBilatFigure(b *testing.B, platform cache.Platform, simThreads int) {
	for _, row := range bilatBenchRows() {
		for _, kind := range []core.Kind{core.ArrayKind, core.ZKind} {
			b.Run(row.label+"/"+kind.String(), func(b *testing.B) {
				src := mriFor(b, kind, row.size)
				dst := grid.New(core.New(kind, row.size, row.size, row.size))
				opts := filter.Options{
					Radius: row.radius, Axis: row.axis, Order: row.order, Workers: 4,
				}
				// Simulated paper counter, attached as a custom metric
				// (computed once on a reduced volume, outside the timer).
				simSize := row.size
				if simSize > 32 {
					simSize = 32
				}
				simSrc := mriFor(b, kind, simSize)
				simDst := grid.New(core.New(kind, simSize, simSize, simSize))
				sys := cache.NewSystem(platform, simThreads)
				srcs := make([]grid.Reader, simThreads)
				dsts := make([]grid.Writer, simThreads)
				for w := 0; w < simThreads; w++ {
					srcs[w] = grid.NewTraced(simSrc, 0, sys.Front(w))
					dsts[w] = grid.NewTraced(simDst, 1<<40, sys.Front(w))
				}
				simOpts := opts
				simOpts.Workers = simThreads
				if err := filter.ApplyViews(srcs, dsts, simOpts); err != nil {
					b.Fatal(err)
				}
				metric := sys.Report().PaperMetric()

				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := filter.Apply(src, dst, opts); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(metric), sys.Report().MetricName())
			})
		}
	}
}

func BenchmarkFig2_BilatIvy(b *testing.B) {
	benchBilatFigure(b, cache.Scaled(cache.IvyBridge(), 32), 4)
}

func BenchmarkFig3_BilatMIC(b *testing.B) {
	benchBilatFigure(b, cache.Scaled(cache.MIC(), 32), 8)
}

// --- E4-E6 / Fig 4-6: raycasting volume renderer ----------------------

func benchVolrend(b *testing.B, view int, kind core.Kind, platform cache.Platform, simThreads int) {
	const n = 64
	const img = 128
	vol := plumeFor(b, kind, n)
	cam := render.Orbit(view, 8, n, n, n, img, img)
	tf := render.DefaultTransferFunc()
	opts := render.Options{TileSize: 32, Workers: 4, Step: 1}

	// Simulated counter on a reduced image, outside the timer.
	sys := cache.NewSystem(platform, simThreads)
	views := make([]grid.Reader, simThreads)
	for w := 0; w < simThreads; w++ {
		views[w] = grid.NewTraced(vol, 0, sys.Front(w))
	}
	simOpts := opts
	simOpts.Workers = simThreads
	simCam := render.Orbit(view, 8, n, n, n, 64, 64)
	if _, err := render.RenderViews(views, simCam, tf, simOpts); err != nil {
		b.Fatal(err)
	}
	metric := sys.Report().PaperMetric()

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		im, err := render.Render(vol, cam, tf, opts)
		if err != nil {
			b.Fatal(err)
		}
		benchImgSum += im.MeanAlpha()
	}
	b.ReportMetric(float64(metric), sys.Report().MetricName())
}

// BenchmarkFig4_VolrendViewpoints sweeps all 8 orbit viewpoints for both
// layouts (the paper's absolute-runtime line plot).
func BenchmarkFig4_VolrendViewpoints(b *testing.B) {
	p := cache.Scaled(cache.IvyBridge(), 32)
	for view := 0; view < 8; view++ {
		for _, kind := range []core.Kind{core.ArrayKind, core.ZKind} {
			b.Run(fmt.Sprintf("view%d/%s", view, kind), func(b *testing.B) {
				benchVolrend(b, view, kind, p, 4)
			})
		}
	}
}

// BenchmarkFig5_VolrendIvy covers Fig 5's extremes: the aligned view 0
// and the worst oblique view 2 on the IvyBridge-like platform.
func BenchmarkFig5_VolrendIvy(b *testing.B) {
	p := cache.Scaled(cache.IvyBridge(), 32)
	for _, view := range []int{0, 2} {
		for _, kind := range []core.Kind{core.ArrayKind, core.ZKind} {
			b.Run(fmt.Sprintf("view%d/%s", view, kind), func(b *testing.B) {
				benchVolrend(b, view, kind, p, 4)
			})
		}
	}
}

// BenchmarkFig6_VolrendMIC is the same sweep against the MIC-like
// platform (L2 read-miss counter, no shared L3).
func BenchmarkFig6_VolrendMIC(b *testing.B) {
	p := cache.Scaled(cache.MIC(), 32)
	for _, view := range []int{0, 2} {
		for _, kind := range []core.Kind{core.ArrayKind, core.ZKind} {
			b.Run(fmt.Sprintf("view%d/%s", view, kind), func(b *testing.B) {
				benchVolrend(b, view, kind, p, 8)
			})
		}
	}
}

// --- A1: layout ablation (array vs Z vs tiled vs Hilbert) -------------

func BenchmarkAblationLayouts(b *testing.B) {
	for _, kind := range core.Kinds() {
		b.Run("bilat/"+kind.String(), func(b *testing.B) {
			src := mriFor(b, kind, 48)
			dst := grid.New(core.New(kind, 48, 48, 48))
			opts := filter.Options{Radius: 2, Axis: parallel.AxisZ, Order: filter.ZYX, Workers: 4}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := filter.Apply(src, dst, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("render/"+kind.String(), func(b *testing.B) {
			vol := plumeFor(b, kind, 48)
			cam := render.Orbit(2, 8, 48, 48, 48, 96, 96)
			tf := render.DefaultTransferFunc()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				im, err := render.Render(vol, cam, tf, render.Options{Workers: 4})
				if err != nil {
					b.Fatal(err)
				}
				benchImgSum += im.MeanAlpha()
			}
		})
	}
}

// --- A2: renderer tile-size ablation (paper §IV-B5 discussion) --------

func BenchmarkAblationTileSize(b *testing.B) {
	vol := plumeFor(b, core.ZKind, 48)
	cam := render.Orbit(3, 8, 48, 48, 48, 128, 128)
	tf := render.DefaultTransferFunc()
	for _, tile := range []int{8, 16, 32, 64, 128} {
		b.Run(fmt.Sprintf("tile%d", tile), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				im, err := render.Render(vol, cam, tf, render.Options{TileSize: tile, Workers: 4})
				if err != nil {
					b.Fatal(err)
				}
				benchImgSum += im.MeanAlpha()
			}
		})
	}
}

// --- A3: Z-order padding ablation (paper §V limitation) ---------------

func BenchmarkAblationPadding(b *testing.B) {
	for _, size := range []int{64, 60} { // 60³ pads to the 64³ index space
		b.Run(fmt.Sprintf("size%d", size), func(b *testing.B) {
			l := core.NewZOrder(size, size, size)
			b.ReportMetric(float64(l.Len())/float64(size*size*size)-1, "pad-overhead")
			src := mriFor(b, core.ZKind, size)
			dst := grid.New(core.NewZOrder(size, size, size))
			opts := filter.Options{Radius: 1, Axis: parallel.AxisZ, Order: filter.ZYX, Workers: 4}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := filter.Apply(src, dst, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Morton index-cost ablation (the paper's equal-footing claim) -----

func BenchmarkAblationIndexCost(b *testing.B) {
	layouts := map[string]core.Layout{
		"array":   core.NewArrayOrder(256, 256, 256),
		"zorder":  core.NewZOrder(256, 256, 256),
		"tiled":   core.NewTiled(256, 256, 256, core.DefaultTile),
		"hilbert": core.NewHilbert(256, 256, 256),
		"ztiled":  core.NewZTiled(256, 256, 256, core.DefaultBrick),
		"hzorder": core.NewHZOrder(256, 256, 256),
	}
	for _, name := range []string{"array", "zorder", "tiled", "hilbert", "ztiled", "hzorder"} {
		l := layouts[name]
		b.Run(name, func(b *testing.B) {
			var sink int
			for i := 0; i < b.N; i++ {
				sink += l.Index(i&255, i>>8&255, i>>16&255)
			}
			benchImgSum += float64(sink & 1)
		})
	}
}

// --- A7: flat-access fast-path ablation --------------------------------

// BenchmarkFastPathBilatR5 measures what the flat-access fast path buys
// on the paper's heaviest bilateral configuration (r5, 11³ stencil):
// flat resolves the layout to raw buffer + per-axis offset tables once
// per pencil batch, iface forces the generic Reader.At → Layout.Index
// double-dispatch per access. DESIGN.md §7 records the numbers.
func BenchmarkFastPathBilatR5(b *testing.B) {
	const n = 32
	for _, kind := range []core.Kind{core.ArrayKind, core.ZKind} {
		for _, path := range []struct {
			name string
			off  bool
		}{{"flat", false}, {"iface", true}} {
			b.Run(kind.String()+"/"+path.name, func(b *testing.B) {
				src := mriFor(b, kind, n)
				dst := grid.New(core.New(kind, n, n, n))
				opts := filter.Options{
					Radius: 5, Axis: parallel.AxisX, Order: filter.XYZ,
					Workers: 4, NoFastPath: path.off,
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := filter.Apply(src, dst, opts); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkFastPathVolrend is the renderer-side ablation: trilinear
// sampling and shading gradients through the flat view vs the interface
// path, on the oblique view 2.
func BenchmarkFastPathVolrend(b *testing.B) {
	const n = 64
	for _, kind := range []core.Kind{core.ArrayKind, core.ZKind} {
		for _, path := range []struct {
			name string
			off  bool
		}{{"flat", false}, {"iface", true}} {
			b.Run(kind.String()+"/"+path.name, func(b *testing.B) {
				vol := plumeFor(b, kind, n)
				cam := render.Orbit(2, 8, n, n, n, 128, 128)
				tf := render.DefaultTransferFunc()
				o := render.Options{Workers: 4, NoFastPath: path.off}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					im, err := render.Render(vol, cam, tf, o)
					if err != nil {
						b.Fatal(err)
					}
					benchImgSum += im.MeanAlpha()
				}
			})
		}
	}
}

// --- A8: row-cached bilateral kernel per layout and dtype --------------

// BenchmarkBilateralR5 runs the heaviest bilateral configuration (r5,
// 11³ stencil) on the flat fast path for each layout family the
// kernels workload filters in — array, Z order, Z-tiled and a
// generalized interleave (4³ row-major bricks on a Morton spine) — at
// two element widths. The row-cached kernel pays the layout once per
// gathered row, so the four layouts should land close together; a cell
// drifting away from the others is a gather or row-reuse regression.
// DESIGN.md §13 records the numbers.
func BenchmarkBilateralR5(b *testing.B) {
	const n = 32
	bit, err := core.NewBitLayout(n, n, n, "xxyyzz"+"xyzxyzxyz")
	if err != nil {
		b.Fatal(err)
	}
	for _, l := range []struct {
		name   string
		layout core.Layout
	}{
		{"array", core.NewArrayOrder(n, n, n)},
		{"zorder", core.NewZOrder(n, n, n)},
		{"ztiled", core.NewZTiled(n, n, n, 8)},
		{"bit", bit},
	} {
		benchBilatR5[float32](b, l.name, l.layout)
		benchBilatR5[uint8](b, l.name, l.layout)
	}
}

func benchBilatR5[T grid.Scalar](b *testing.B, name string, l core.Layout) {
	b.Run(name+"/"+grid.DtypeFor[T]().String(), func(b *testing.B) {
		src := volume.MRIPhantomOf[T](l, 1, 0.05)
		dst := grid.NewOf[T](l)
		opts := filter.Options{Radius: 5, Axis: parallel.AxisX, Order: filter.XYZ, Workers: 4}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := filter.ApplyCtxOf[T](context.Background(), src, dst, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// A sanity assertion disguised as a test so bench runs that include
// tests verify the public API is alive.
func TestBenchInputsAreSane(t *testing.T) {
	g := sfcmem.MRIPhantom(sfcmem.NewLayout(sfcmem.ZOrder, 8, 8, 8), 1, 0.05)
	lo, hi := g.MinMax()
	if lo < 0 || hi > 1 || hi == 0 {
		t.Errorf("phantom range [%v, %v]", lo, hi)
	}
}

// --- A4: renderer empty-space-skipping ablation ------------------------

func BenchmarkAblationEmptySkip(b *testing.B) {
	const n = 64
	vol := plumeFor(b, core.ZKind, n)
	cam := render.Orbit(1, 8, n, n, n, 128, 128)
	tf := render.DefaultTransferFunc()
	for _, skip := range []bool{false, true} {
		name := "off"
		var accel *render.Accel
		if skip {
			name = "on"
			// The map is built once per volume (sfcserved caches it per
			// generation), so its build stays outside the timed loop.
			accel = render.BuildAccelOf(vol, tf)
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				im, err := render.Render(vol, cam, tf, render.Options{Workers: 4, Accel: accel})
				if err != nil {
					b.Fatal(err)
				}
				benchImgSum += im.MeanAlpha()
			}
		})
	}
}

// --- A5: Gaussian separability ablation --------------------------------

func BenchmarkAblationSeparableGaussian(b *testing.B) {
	const n = 48
	src := mriFor(b, core.ArrayKind, n)
	dst := grid.New(core.NewArrayOrder(n, n, n))
	o := filter.Options{Radius: 3, SigmaSpatial: 2, Workers: 4}
	b.Run("brute", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := filter.GaussianConvolve(src, dst, o); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("separable", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := filter.GaussianSeparable(src, dst, o); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- A6: work-distribution ablation (paper §III: dynamic pool wins) ----

func BenchmarkAblationSchedule(b *testing.B) {
	const n = 48
	vol := plumeFor(b, core.ZKind, n)
	cam := render.Orbit(2, 8, n, n, n, 128, 128)
	tf := render.DefaultTransferFunc()
	for _, s := range []struct {
		name string
		sch  render.Schedule
	}{{"dynamic", render.DynamicSchedule}, {"static", render.StaticSchedule}} {
		b.Run(s.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				im, err := render.Render(vol, cam, tf, render.Options{Workers: 4, Schedule: s.sch})
				if err != nil {
					b.Fatal(err)
				}
				benchImgSum += im.MeanAlpha()
			}
		})
	}
}

// --- A11: generalized-Morton (BitLayout) cost and tuning payoff ---------

// BenchmarkBitLayoutIndex prices the software-PDEP Index against the
// native Z-order dilation tables at 256³: the round-robin spec computes
// the same curve, so the delta is pure parameterization overhead.
func BenchmarkBitLayoutIndex(b *testing.B) {
	rr, err := core.NewBitLayout(256, 256, 256, core.RoundRobinSpec(256, 256, 256))
	if err != nil {
		b.Fatal(err)
	}
	brick, err := core.NewBitLayout(256, 256, 256, "xyzxyz"+"xxxxxx"+"yyyyyy"+"zzzzzz")
	if err != nil {
		b.Fatal(err)
	}
	for _, l := range []struct {
		name   string
		layout core.Layout
	}{
		{"zorder", core.NewZOrder(256, 256, 256)},
		{"bit-zspine", rr},
		{"bit-brick4", brick},
	} {
		b.Run(l.name, func(b *testing.B) {
			var sink int
			for i := 0; i < b.N; i++ {
				sink += l.layout.Index(i&255, i>>8&255, i>>16&255)
			}
			benchImgSum += float64(sink & 1)
		})
	}
}

// BenchmarkBitLayoutBilatR5 runs the heavyweight bilateral configuration
// over BitLayout on the flat fast path — the cost a tuned interleave
// pays at kernel time, comparable against BilateralR5's zorder cell.
func BenchmarkBitLayoutBilatR5(b *testing.B) {
	const n = 32
	for _, spec := range []struct {
		name  string
		order string
	}{
		{"zspine", core.RoundRobinSpec(n, n, n)},
		// The 16³ tune-smoke winner's shape (z-major low bits for the
		// z-inner stencil), lifted to 32³'s five bits per axis.
		{"tuned", "zzzzzyxyyyyxxxx"},
	} {
		l, err := core.NewBitLayout(n, n, n, spec.order)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(spec.name, func(b *testing.B) {
			src := volume.MRIPhantom(l, 1, 0.05)
			dst := grid.New(l)
			opts := filter.Options{
				Radius: 5, Axis: parallel.AxisX, Order: filter.XYZ, Workers: 4,
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := filter.Apply(src, dst, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
