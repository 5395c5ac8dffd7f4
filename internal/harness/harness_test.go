package harness

import (
	"math"
	"strings"
	"testing"

	"sfcmem/internal/cache"
	"sfcmem/internal/core"
	"sfcmem/internal/parallel"
)

// microConfig is a minimal grid that exercises every harness code path
// in well under a second per figure.
func microConfig() Config {
	c := DefaultConfig()
	c.BilatSize = 16
	c.BilatSimSize = 16
	c.VolSize = 24
	c.VolSimSize = 16
	c.ImageSize = 24
	c.SimImageSize = 16
	c.IvyThreads = []int{2}
	c.MICThreads = []int{3}
	c.Views = 4
	c.FixedThreads = 2
	c.Radii = []RadiusSpec{{Label: "r1", Radius: 1}}
	return c
}

func TestBilatRows(t *testing.T) {
	rows := DefaultConfig().BilatRows()
	if len(rows) != 6 {
		t.Fatalf("%d rows, want 6", len(rows))
	}
	if rows[0].Label != "r1 px xyz" || rows[5].Label != "r5 pz zyx" {
		t.Errorf("row labels %q .. %q", rows[0].Label, rows[5].Label)
	}
	if rows[4].Radius != 5 {
		t.Errorf("r5 radius %d", rows[4].Radius)
	}
}

func TestFig1Structure(t *testing.T) {
	res := fig1(microConfig(), nil)
	if res.Name != "fig1" || len(res.Tables) != 2 {
		t.Fatalf("unexpected result %q with %d tables", res.Name, len(res.Tables))
	}
	axis := res.Tables[0]
	// Array order: x-stride exactly 1, z-stride = nx*ny.
	if got := axis.At(0, 0); got != 1 {
		t.Errorf("array x-stride %v", got)
	}
	if got := axis.At(0, 2); got != 16*16 {
		t.Errorf("array z-stride %v", got)
	}
	// Z order's worst/best axis ratio beats array order's.
	if axis.At(1, 3) >= axis.At(0, 3) {
		t.Errorf("zorder anisotropy %v not below array %v", axis.At(1, 3), axis.At(0, 3))
	}
	// Ray table: every cell filled (no NaN from empty marches).
	ray := res.Tables[1]
	for r := range ray.RowLabels {
		for c := range ray.ColLabels {
			if math.IsNaN(ray.At(r, c)) {
				t.Errorf("ray table cell (%d,%d) is NaN", r, c)
			}
		}
	}
}

func TestRunBilatGridPopulatesCells(t *testing.T) {
	cfg := microConfig()
	cells, err := RunBilatGrid(cfg, cfg.IvyThreads, cfg.ivyPlatform(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 2 {
		t.Fatalf("%d rows, want 2", len(cells))
	}
	for label, row := range cells {
		for ti, c := range row {
			if c.RuntimeA <= 0 || c.RuntimeZ <= 0 {
				t.Errorf("%s[%d]: non-positive runtimes %+v", label, ti, c)
			}
			if c.MetricA == 0 || c.MetricZ == 0 {
				t.Errorf("%s[%d]: zero metrics %+v", label, ti, c)
			}
		}
	}
}

func TestSimBilatDeterministic(t *testing.T) {
	cfg := microConfig()
	in := NewBilatInput(cfg.BilatSimSize, cfg.Seed)
	row := cfg.BilatRows()[0]
	m1, _, err := SimBilat(in, core.ZKind, row, 1, cfg.ivyPlatform())
	if err != nil {
		t.Fatal(err)
	}
	m2, _, err := SimBilat(in, core.ZKind, row, 1, cfg.ivyPlatform())
	if err != nil {
		t.Fatal(err)
	}
	if m1 != m2 {
		t.Errorf("single-thread sim not deterministic: %d vs %d", m1, m2)
	}
}

func TestSimVolrendDeterministicAndViewDependent(t *testing.T) {
	cfg := microConfig()
	in := NewVolInput(32, cfg.Seed)
	p := cfg.ivyPlatform()
	a0, _, err := SimVolrend(in, core.ArrayKind, 0, 8, 32, 1, p)
	if err != nil {
		t.Fatal(err)
	}
	a0b, _, err := SimVolrend(in, core.ArrayKind, 0, 8, 32, 1, p)
	if err != nil {
		t.Fatal(err)
	}
	if a0 != a0b {
		t.Errorf("sim not deterministic: %d vs %d", a0, a0b)
	}
	a2, _, err := SimVolrend(in, core.ArrayKind, 2, 8, 32, 1, p)
	if err != nil {
		t.Fatal(err)
	}
	z0, _, err := SimVolrend(in, core.ZKind, 0, 8, 32, 1, p)
	if err != nil {
		t.Fatal(err)
	}
	z2, _, err := SimVolrend(in, core.ZKind, 2, 8, 32, 1, p)
	if err != nil {
		t.Fatal(err)
	}
	// The paper's central renderer claim: array order's counter is much
	// more viewpoint-sensitive than Z order's.
	ratioA := float64(a2) / float64(a0)
	ratioZ := float64(z2) / float64(z0)
	if ratioA <= ratioZ {
		t.Errorf("array view sensitivity %v not above zorder %v", ratioA, ratioZ)
	}
}

func TestFiguresSmoke(t *testing.T) {
	cfg := microConfig()
	for n := 1; n <= 11; n++ {
		res, err := FigureObs(n, cfg, nil, nil)
		if err != nil {
			t.Fatalf("fig %d: %v", n, err)
		}
		if res.Text == "" {
			t.Errorf("fig %d: empty text", n)
		}
		if !strings.Contains(res.Text, "Fig") {
			t.Errorf("fig %d: missing title:\n%s", n, res.Text)
		}
	}
	if _, err := FigureObs(12, cfg, nil, nil); err == nil {
		t.Error("figure 12 accepted")
	}
	if _, err := FigureObs(0, cfg, nil, nil); err == nil {
		t.Error("figure 0 accepted")
	}
}

func TestProgressCallbackInvoked(t *testing.T) {
	cfg := microConfig()
	var n int
	_, err := fig2(cfg, func(string) { n++ }, nil)
	if err != nil {
		t.Fatal(err)
	}
	// 2 rows × 1 thread count.
	if n != 2 {
		t.Errorf("progress called %d times, want 2", n)
	}
}

func TestQuickAndDefaultConfigsSane(t *testing.T) {
	for _, cfg := range []Config{DefaultConfig(), QuickConfig()} {
		if cfg.BilatSize < 8 || cfg.VolSize < 8 || cfg.Views < 2 {
			t.Errorf("degenerate config %+v", cfg)
		}
		if len(cfg.IvyThreads) == 0 || len(cfg.MICThreads) == 0 {
			t.Errorf("empty thread lists in %+v", cfg)
		}
		if cfg.CacheScale&(cfg.CacheScale-1) != 0 {
			t.Errorf("cache scale %d not a power of two", cfg.CacheScale)
		}
	}
}

// Golden-shape integration test: the paper's headline Fig 2 sign
// structure must hold on the simulated counter at test scale — array
// order wins only its most favorable configuration (small stencil,
// x-pencils, xyz order) and loses against the grain.
func TestPaperShapeBilateralSigns(t *testing.T) {
	in := NewBilatInput(32, 1)
	platform := cache.Scaled(cache.IvyBridge(), 32)
	ds := func(row BilatRow) float64 {
		a, _, err := SimBilat(in, core.ArrayKind, row, 2, platform)
		if err != nil {
			t.Fatal(err)
		}
		z, _, err := SimBilat(in, core.ZKind, row, 2, platform)
		if err != nil {
			t.Fatal(err)
		}
		return (float64(a) - float64(z)) / float64(z)
	}
	favorable := ds(BilatRow{Radius: 1, Axis: parallel.AxisX, Order: OrderXYZ})
	hostile := ds(BilatRow{Radius: 1, Axis: parallel.AxisZ, Order: OrderZYX})
	if favorable >= 0 {
		t.Errorf("r1 px xyz ds = %.2f, want negative (array order's best case)", favorable)
	}
	if hostile <= 0 {
		t.Errorf("r1 pz zyx ds = %.2f, want positive (Z order wins against the grain)", hostile)
	}
	if hostile <= favorable {
		t.Errorf("ordering broken: hostile %.2f <= favorable %.2f", hostile, favorable)
	}
}

func TestFig10Structure(t *testing.T) {
	res, err := fig10(microConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tables) != 2 {
		t.Fatalf("%d tables", len(res.Tables))
	}
	// Fig 10a: array's worst/best slice anisotropy exceeds zorder's.
	slice := res.Tables[0]
	if slice.At(0, 3) <= slice.At(1, 3) {
		t.Errorf("array anisotropy %v not above zorder %v", slice.At(0, 3), slice.At(1, 3))
	}
	// Fig 10b: hzorder's span is non-increasing and ends far below L=0.
	sub := res.Tables[1]
	hzRow := 2
	for c := 1; c < 4; c++ {
		if sub.At(hzRow, c) > sub.At(hzRow, c-1) {
			t.Errorf("hz span grew at level %d: %v -> %v", c, sub.At(hzRow, c-1), sub.At(hzRow, c))
		}
	}
	if sub.At(hzRow, 3) >= sub.At(hzRow, 0)/64 {
		t.Errorf("hz L=3 span %v not far below L=0 %v", sub.At(hzRow, 3), sub.At(hzRow, 0))
	}
}
