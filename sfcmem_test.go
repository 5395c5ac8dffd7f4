package sfcmem_test

import (
	"bytes"
	"context"
	"testing"

	"sfcmem"
	"sfcmem/internal/filter"
)

// The facade tests exercise the public API exactly as a downstream user
// would, end to end.

func TestPublicAPILayoutsAndGrid(t *testing.T) {
	for _, kind := range []sfcmem.Kind{sfcmem.Array, sfcmem.ZOrder, sfcmem.Tiled, sfcmem.Hilbert} {
		l := sfcmem.NewLayout(kind, 8, 8, 8)
		g := sfcmem.NewGrid(l)
		g.Set(1, 2, 3, 4.5)
		if g.At(1, 2, 3) != 4.5 {
			t.Errorf("%v: roundtrip failed", kind)
		}
	}
	if _, err := sfcmem.ParseLayout("zorder"); err != nil {
		t.Error(err)
	}
	if _, err := sfcmem.ParseLayout("nope"); err == nil {
		t.Error("bad layout name accepted")
	}
}

func TestPublicAPIStrides(t *testing.T) {
	a := sfcmem.NewLayout(sfcmem.Array, 16, 16, 16)
	if s := sfcmem.AxisStride(a, 0); s.Mean != 1 {
		t.Errorf("x stride %v", s.Mean)
	}
	if s := sfcmem.RayStride(a, 1, 0.01, 0.01); s.Steps == 0 {
		t.Error("ray stride measured nothing")
	}
}

func TestPublicAPIFilterPipeline(t *testing.T) {
	l := sfcmem.NewLayout(sfcmem.ZOrder, 12, 12, 12)
	src := sfcmem.MRIPhantom(l, 1, 0.05)
	dst := sfcmem.NewGrid(sfcmem.NewLayout(sfcmem.ZOrder, 12, 12, 12))
	err := sfcmem.Bilateral(src, dst, sfcmem.FilterOptions{
		Radius: 1, Axis: sfcmem.AxisZ, Order: sfcmem.ZYX, Workers: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := sfcmem.GaussianConvolveAnyCtx(ctx, sfcmem.WrapAny(src), sfcmem.WrapAny(dst), sfcmem.FilterOptions{Radius: 1}); err != nil {
		t.Fatal(err)
	}
}

func TestPublicAPIRenderPipeline(t *testing.T) {
	l := sfcmem.NewLayout(sfcmem.ZOrder, 16, 16, 16)
	vol := sfcmem.CombustionPlume(l, 1)
	cam := sfcmem.Orbit(1, 8, 16, 16, 16, 24, 24)
	ctx, avol := context.Background(), sfcmem.WrapAny(vol)
	img, err := sfcmem.RenderAnyCtx(ctx, avol, cam, sfcmem.DefaultTransferFunc(), sfcmem.RenderOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if img.W != 24 || img.H != 24 {
		t.Errorf("image %dx%d", img.W, img.H)
	}
	custom, err := sfcmem.NewTransferFunc([]sfcmem.ControlPoint{
		{Value: 0, Color: sfcmem.RGBA{}},
		{Value: 1, Color: sfcmem.RGBA{R: 1, A: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sfcmem.RenderAnyCtx(ctx, avol, cam, custom, sfcmem.RenderOptions{}); err != nil {
		t.Fatal(err)
	}
}

func TestPublicAPICacheSimulation(t *testing.T) {
	p := sfcmem.ScaledPlatform(sfcmem.IvyBridgePlatform(), 32)
	sys := sfcmem.NewCacheSystem(p, 2)
	l := sfcmem.NewLayout(sfcmem.ZOrder, 16, 16, 16)
	src := sfcmem.MRIPhantom(l, 1, 0.05)
	dst := sfcmem.NewGrid(sfcmem.NewLayout(sfcmem.ZOrder, 16, 16, 16))
	srcs := []sfcmem.Reader{sfcmem.NewTraced(src, 0, sys.Front(0)), sfcmem.NewTraced(src, 0, sys.Front(1))}
	dsts := []sfcmem.Writer{sfcmem.NewTraced(dst, 1<<40, sys.Front(0)), sfcmem.NewTraced(dst, 1<<40, sys.Front(1))}
	err := sfcmem.BilateralViews(srcs, dsts, sfcmem.FilterOptions{Radius: 1, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	rep := sys.Report()
	if rep.PaperMetric() == 0 {
		t.Error("no simulated L3 traffic recorded")
	}
	if rep.MetricName() != "PAPI_L3_TCA" {
		t.Errorf("metric %q", rep.MetricName())
	}
	if sfcmem.MICPlatform().Shared.SizeBytes != 0 {
		t.Error("MIC platform should have no shared level")
	}
}

func TestPublicAPIZTiledAndReuse(t *testing.T) {
	l := sfcmem.NewZTiledLayout(20, 20, 20, 8)
	if l.Name() != "ztiled" {
		t.Errorf("Name %q", l.Name())
	}
	if k, err := sfcmem.ParseLayout("ztiled"); err != nil || k != sfcmem.ZTiled {
		t.Errorf("ParseLayout: %v %v", k, err)
	}
	g := sfcmem.NewGrid(l)
	an := sfcmem.NewReuseAnalyzer(0)
	tg := sfcmem.NewTraced(g, 0, an)
	for i := 0; i < 20; i++ {
		tg.At(i, 0, 0)
	}
	h := an.Histogram()
	if h.Total != 20 {
		t.Errorf("analyzer saw %d accesses", h.Total)
	}
	if h.MissRatio(1<<20) <= 0 {
		t.Error("cold misses missing from profile")
	}
}

func TestPublicAPITraceRoundtrip(t *testing.T) {
	var buf bytes.Buffer
	w, err := sfcmem.NewTraceWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	w.Access(64, false)
	w.Access(128, true)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	an := sfcmem.NewReuseAnalyzer(0)
	n, err := sfcmem.ReplayTrace(&buf, an)
	if err != nil || n != 2 {
		t.Fatalf("replayed %d, %v", n, err)
	}
}

func TestPublicAPITuning(t *testing.T) {
	cfg := sfcmem.TuneConfig{
		Size:     16,
		Seed:     1,
		Options:  sfcmem.FilterOptions{Radius: 1, Workers: 1},
		Platform: sfcmem.ScaledPlatform(sfcmem.IvyBridgePlatform(), 32),
	}
	best, results, err := sfcmem.TuneTileSize(cfg, []int{4, 8})
	if err != nil || (best != 4 && best != 8) || len(results) != 2 {
		t.Errorf("TuneTileSize: best=%d results=%v err=%v", best, results, err)
	}
	if _, _, err := sfcmem.TuneBrickSize(cfg, []int{4, 8}); err != nil {
		t.Errorf("TuneBrickSize: %v", err)
	}
}

func TestPublicAPIStorageTraversal(t *testing.T) {
	l := sfcmem.NewLayout(sfcmem.ZOrder, 6, 6, 6)
	if _, ok := l.(sfcmem.InverseLayout); !ok {
		t.Fatal("zorder layout does not expose inversion")
	}
	g := sfcmem.GridFromFunc(l, func(i, j, k int) float32 { return float32(i + j + k) })
	count := 0
	if !g.ForEachStorage(func(_, _, _ int, _ float32) { count++ }) {
		t.Fatal("storage traversal unsupported")
	}
	if count != 216 {
		t.Errorf("visited %d cells", count)
	}
}

func TestPublicAPIMultires(t *testing.T) {
	l := sfcmem.NewLayout(sfcmem.HZOrder, 8, 8, 8)
	if l.Name() != "hzorder" {
		t.Errorf("Name %q", l.Name())
	}
	g := sfcmem.GridFromFunc(l, func(i, j, k int) float32 { return float32(i) })
	sub, err := sfcmem.Subsample(g, 1, func(nx, ny, nz int) sfcmem.Layout {
		return sfcmem.NewLayout(sfcmem.Array, nx, ny, nz)
	})
	if err != nil {
		t.Fatal(err)
	}
	if nx, _, _ := sub.Dims(); nx != 4 {
		t.Errorf("subsample nx=%d", nx)
	}
	if sub.At(1, 0, 0) != 2 {
		t.Errorf("subsample value %v", sub.At(1, 0, 0))
	}
	c, err := sfcmem.SliceCost(l, sfcmem.SliceX, 4, 0)
	if err != nil || c.Samples != 64 {
		t.Errorf("SliceCost: %+v, %v", c, err)
	}
	sc, err := sfcmem.SubsampleCost(l, 2)
	if err != nil || sc.Samples != 8 {
		t.Errorf("SubsampleCost: %+v, %v", sc, err)
	}
}

func TestPublicAPIGaussianAndRawIO(t *testing.T) {
	l := sfcmem.NewLayout(sfcmem.Array, 8, 8, 8)
	src := sfcmem.MRIPhantom(l, 1, 0.02)
	dst := sfcmem.NewGrid(sfcmem.NewLayout(sfcmem.Array, 8, 8, 8))
	if err := filter.GaussianSeparable(src, dst, sfcmem.FilterOptions{Radius: 1}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := sfcmem.SaveRawVolume(&buf, src); err != nil {
		t.Fatal(err)
	}
	back, err := sfcmem.LoadRawVolume(&buf, sfcmem.NewLayout(sfcmem.ZOrder, 8, 8, 8))
	if err != nil {
		t.Fatal(err)
	}
	if back.At(4, 4, 4) != src.At(4, 4, 4) {
		t.Error("raw roundtrip changed values")
	}
}

func TestPublicAPIFlatten(t *testing.T) {
	g := sfcmem.MRIPhantom(sfcmem.NewLayout(sfcmem.ZOrder, 8, 8, 8), 1, 0.05)
	f := sfcmem.Flatten(g)
	if f == nil {
		t.Fatal("Flatten returned nil for a separable layout")
	}
	if f.At(1, 2, 3) != g.At(1, 2, 3) {
		t.Error("flat view disagrees with the grid")
	}
	if _, ok := sfcmem.NewLayout(sfcmem.ZOrder, 8, 8, 8).(sfcmem.SeparableLayout); !ok {
		t.Error("Z order should be separable")
	}
	if _, ok := sfcmem.NewLayout(sfcmem.Hilbert, 8, 8, 8).(sfcmem.SeparableLayout); ok {
		t.Error("Hilbert must not be separable")
	}
	if sfcmem.Flatten(sfcmem.NewGrid(sfcmem.NewLayout(sfcmem.Hilbert, 8, 8, 8))) != nil {
		t.Error("Hilbert grid flattened")
	}
}
