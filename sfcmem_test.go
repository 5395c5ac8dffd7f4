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
	avol := sfcmem.CombustionPlumeAny(sfcmem.F32, l, 1)
	cam := sfcmem.Orbit(1, 8, 16, 16, 16, 24, 24)
	ctx := context.Background()
	img, err := sfcmem.RenderAnyCtx(ctx, avol, cam, sfcmem.DefaultTransferFunc(), sfcmem.RenderOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if img.W != 24 || img.H != 24 {
		t.Errorf("image %dx%d", img.W, img.H)
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
}

func TestPublicAPIZTiled(t *testing.T) {
	l := sfcmem.NewLayout(sfcmem.ZTiled, 20, 20, 20)
	if l.Name() != "ztiled" {
		t.Errorf("Name %q", l.Name())
	}
	if k, err := sfcmem.ParseLayout("ztiled"); err != nil || k != sfcmem.ZTiled {
		t.Errorf("ParseLayout: %v %v", k, err)
	}
}

func TestPublicAPIStorageTraversal(t *testing.T) {
	g := sfcmem.NewGrid(sfcmem.NewLayout(sfcmem.ZOrder, 6, 6, 6))
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
	if err := sfcmem.SaveRawAny(&buf, sfcmem.WrapAny(src)); err != nil {
		t.Fatal(err)
	}
	back, err := sfcmem.LoadRawAny(&buf, sfcmem.F32, sfcmem.NewLayout(sfcmem.ZOrder, 8, 8, 8))
	if err != nil {
		t.Fatal(err)
	}
	if sfcmem.Grids[float32](back).At(4, 4, 4) != src.At(4, 4, 4) {
		t.Error("raw roundtrip changed values")
	}
}
