package tune

import (
	"fmt"
	"math/rand/v2"
	"strings"
	"testing"

	"sfcmem/internal/cache"
	"sfcmem/internal/core"
	"sfcmem/internal/filter"
	"sfcmem/internal/grid"
	"sfcmem/internal/parallel"
)

func TestSweepTieBreakPrefersSmaller(t *testing.T) {
	// All candidates score identically; the smaller parameter must win
	// regardless of input order (it wastes less padding).
	for _, params := range [][]int{{16, 4, 8}, {4, 8, 16}, {8, 16, 4}} {
		best, _, err := Sweep(params, func(int) (float64, error) { return 7, nil })
		if err != nil {
			t.Fatal(err)
		}
		if best != 4 {
			t.Errorf("params %v: tied best = %d, want 4", params, best)
		}
	}
	// A strictly better later candidate still wins.
	best, _, err := Sweep([]int{4, 8}, func(p int) (float64, error) {
		if p == 8 {
			return 1, nil
		}
		return 2, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if best != 8 {
		t.Errorf("best = %d, want 8", best)
	}
}

// interleaveConfig is the small deterministic search CI's tune-smoke
// job replays: 16³, radius-1 z-inner stencil, tiny population.
func interleaveConfig() InterleaveConfig {
	return InterleaveConfig{
		Nx: 16, Ny: 16, Nz: 16,
		Seed:   1,
		Kernel: KernelBilateral,
		Dtype:  grid.F32,
		Options: filter.Options{
			Radius: 1, Axis: parallel.AxisZ, Order: filter.ZYX, Workers: 2,
		},
		Platform:    cache.Scaled(cache.IvyBridge(), 32),
		Population:  8,
		Generations: 3,
	}
}

func TestInterleaveDeterministic(t *testing.T) {
	a, err := Interleave(interleaveConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Interleave(interleaveConfig())
	if err != nil {
		t.Fatal(err)
	}
	if a.Spec != b.Spec || a.Score != b.Score {
		t.Errorf("same config, different results: %q/%d vs %q/%d", a.Spec, a.Score, b.Spec, b.Score)
	}
	if len(a.Evals) != len(b.Evals) {
		t.Fatalf("eval counts differ: %d vs %d", len(a.Evals), len(b.Evals))
	}
	for i := range a.Evals {
		if a.Evals[i] != b.Evals[i] {
			t.Errorf("eval %d differs: %+v vs %+v", i, a.Evals[i], b.Evals[i])
		}
	}
}

func TestInterleaveBeatsOrMatchesZOrder(t *testing.T) {
	// The gate CI enforces: the tuned layout's simulated L1 misses may
	// not exceed plain Z order's. The z-inner iteration order gives the
	// search headroom over Z order's x-first interleave.
	res, err := Interleave(interleaveConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.Score > res.ZOrder {
		t.Errorf("tuned layout %q scored %d misses, worse than z-order's %d", res.Spec, res.Score, res.ZOrder)
	}
	t.Logf("tuned %q: %d misses vs z-order %d (%d candidates)", res.Spec, res.Score, res.ZOrder, len(res.Evals))
	if !strings.HasPrefix(res.Layout, core.BitSpecPrefix) {
		t.Errorf("Layout = %q, want %q prefix", res.Layout, core.BitSpecPrefix)
	}
	if _, err := core.NewBitLayout(16, 16, 16, res.Spec); err != nil {
		t.Errorf("winning spec does not reconstruct: %v", err)
	}
}

// TestInterleavePinned pins whole search results — winner, both
// scores and the evaluation log in order — so a change to the tuner or
// to the cache simulator under it cannot move a simulated count
// unnoticed. The cubes reuse the round-robin seed's replay as the Z
// order baseline; the 16×8×4 box, whose Z order pads past the compact
// spec, replays Z order separately.
func TestInterleavePinned(t *testing.T) {
	volrend := interleaveConfig()
	volrend.Kernel = KernelVolrend
	volrend.Options.Workers = 1 // the renderer's dynamic schedule would vary per-thread streams
	volrend.ImgW, volrend.ImgH = 32, 32
	volrend.Population, volrend.Generations = 6, 2
	box := interleaveConfig()
	box.Nx, box.Ny, box.Nz = 16, 8, 4
	box.Options.Workers = 1
	churn := interleaveConfig()
	churn.Nx, churn.Ny, churn.Nz = 32, 32, 32
	churn.Options.Workers = 1
	churn.Population, churn.Generations = 4, 1
	for _, c := range []struct {
		name          string
		cfg           InterleaveConfig
		spec          string
		score, zorder uint64
		evals         string
	}{
		{"smoke", interleaveConfig(), "zzzzyxyyyxxx", 5568, 9008,
			"xyzxyzxyzxyz:9008 xxxxyyyyzzzz:15872 zzzzyyyyxxxx:5568 xyzxxxyyyzzz:9264 xyzxyzxxyyzz:9008 " +
				"zyyzxxzzxyyx:8860 yzyzyxzxzxyx:8104 xzzzxxxyyzyy:6212 xzzzxxyzyyxy:6212 xzzzxyxyyzxy:6212 " +
				"xzzyzyyyzxxx:6856 zzzzyxyyyxxx:5568 zzzyzyyxxxyx:6436 xzzzxxzyyyyx:6212 zzzzyyxxyxxy:5568 " +
				"yzzzyxzyyxxx:6464 zzxzyzyyyxxx:6016 xzzzxxxyzyyy:6212 zzxzyyyyxzxx:6016 zzzzyyxxyyxx:5568 " +
				"yzzzzyxxyxxy:6436 xzzzyyyyxxzx:6016 zzxzyxyyyzxx:6016"},
		{"volrend", volrend, "xyzxxxyyyzzz", 5021, 5227,
			"xyzxyzxyzxyz:5227 xxxxyyyyzzzz:16000 zzzzyyyyxxxx:15586 xyzxxxyyyzzz:5021 xyzxyzxxyyzz:5227 " +
				"zyyzxxzzxyyx:10264 xyzxxyzxyzyz:5021 xyzxyxyzxyzz:5227 yyzxxzxyzxyz:7563 xyzxyxyxyzzz:5227 " +
				"xyzxyxxyzyzz:5227 zyxyzxxyyxzz:7916"},
		{"box", box, "xxxxyyyzz", 64, 139,
			"xyzxyzxyx:139 xxxxyyyzz:64 zzyyyxxxx:192 xyzxxxyyz:134 xyzxyzxxy:139 yxxxzyxyz:245 " +
				"xzzxyyxxy:88 xyzxxyyzx:134 xzzxxyyxy:97 zxxxyyyxz:76 xxzzxxyyy:97 xxyxyyxzz:302 " +
				"xxxxzyyyz:649 xzzyyxxxy:139 xzzxyxyxy:88 xzzxyxxyy:88 xxxxyzyzy:64 zxxxyxyyz:76 " +
				"xzxxxyyyz:292 yxxxxyyzz:709 zxxzxyyyx:97 xzxxyzyxy:76"},
		{"churn", churn, "xyzzzzzyyyyxxxx", 63048, 78400,
			"xyzxyzxyzxyzxyz:78400 xxxxxyyyyyzzzzz:764080 zzzzzyyyyyxxxxx:276100 xyzxxxxyyyyzzzz:78400 " +
				"xyzzzzzyyyyxxxx:63048"},
	} {
		res, err := Interleave(c.cfg)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		var log []string
		for _, e := range res.Evals {
			log = append(log, fmt.Sprintf("%s:%d", e.Spec, e.Score))
		}
		if got := strings.Join(log, " "); res.Spec != c.spec || res.Score != c.score || res.ZOrder != c.zorder || got != c.evals {
			t.Errorf("%s: got %q score %d z-order %d\nevals %s\nwant %q score %d z-order %d\nevals %s",
				c.name, res.Spec, res.Score, res.ZOrder, got, c.spec, c.score, c.zorder, c.evals)
		}
	}
}

func TestInterleaveVolrend(t *testing.T) {
	cfg := interleaveConfig()
	cfg.Kernel = KernelVolrend
	cfg.ImgW, cfg.ImgH = 32, 32
	cfg.Population, cfg.Generations = 6, 2
	res, err := Interleave(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Score == 0 || res.ZOrder == 0 {
		t.Errorf("volrend replay produced no misses: tuned %d, z-order %d", res.Score, res.ZOrder)
	}
	if res.Score > res.ZOrder {
		t.Errorf("tuned %q scored %d, worse than z-order %d", res.Spec, res.Score, res.ZOrder)
	}
	t.Logf("volrend tuned %q: %d misses vs z-order %d (%d candidates)",
		res.Spec, res.Score, res.ZOrder, len(res.Evals))
}

func TestInterleaveDtypes(t *testing.T) {
	// Every dtype lane evaluates and returns a valid spec (the issue's
	// per-dtype tuning cells).
	for _, dt := range []grid.Dtype{grid.U8, grid.U16, grid.F64} {
		cfg := interleaveConfig()
		cfg.Dtype = dt
		cfg.Population, cfg.Generations = 4, 1
		res, err := Interleave(cfg)
		if err != nil {
			t.Fatalf("dtype %v: %v", dt, err)
		}
		if _, err := core.NewBitLayout(16, 16, 16, res.Spec); err != nil {
			t.Errorf("dtype %v: spec %q invalid: %v", dt, res.Spec, err)
		}
	}
}

func TestInterleaveDegenerate(t *testing.T) {
	// A 1×1×8 volume has only z letters: nothing to permute, but the
	// search still returns the (unique) spec.
	cfg := interleaveConfig()
	cfg.Nx, cfg.Ny, cfg.Nz = 1, 1, 8
	res, err := Interleave(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Spec != "zzz" {
		t.Errorf("degenerate spec = %q, want zzz", res.Spec)
	}
}

func TestParseKernel(t *testing.T) {
	if k, err := ParseKernel("bilateral"); err != nil || k != KernelBilateral {
		t.Errorf("bilateral: %v %v", k, err)
	}
	if k, err := ParseKernel("volrend"); err != nil || k != KernelVolrend {
		t.Errorf("volrend: %v %v", k, err)
	}
	if _, err := ParseKernel("fft"); err == nil {
		t.Error("unknown kernel accepted")
	}
}

func TestCrossoverPreservesMultiset(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 7))
	a, b := "xyzxyzxyz", "zzzyyyxxx"
	for i := 0; i < 50; i++ {
		child := crossoverSpecs(a, b, rng)
		if len(child) != len(a) {
			t.Fatalf("child %q wrong length", child)
		}
		cx, cy, cz := letterCounts(child)
		if cx != 3 || cy != 3 || cz != 3 {
			t.Fatalf("child %q lost the multiset (%d,%d,%d)", child, cx, cy, cz)
		}
		child = swapMutate(child, rng)
		cx, cy, cz = letterCounts(child)
		if cx != 3 || cy != 3 || cz != 3 {
			t.Fatalf("mutant %q lost the multiset", child)
		}
	}
}

func TestMicrobenchSmoke(t *testing.T) {
	cfg := interleaveConfig()
	cfg.Nx, cfg.Ny, cfg.Nz = 8, 8, 8
	specs := []string{core.RoundRobinSpec(8, 8, 8), "zzzyyyxxx"}
	best, results, err := Microbench(cfg, specs, 1)
	if err != nil {
		t.Fatal(err)
	}
	if best != specs[0] && best != specs[1] {
		t.Errorf("best %q not among candidates", best)
	}
	if len(results) != 2 {
		t.Fatalf("%d results", len(results))
	}
	for _, r := range results {
		if r.Elapsed <= 0 {
			t.Errorf("spec %q elapsed %v", r.Spec, r.Elapsed)
		}
	}
}

// BenchmarkInterleaveChurn times one interleave search of the shape
// perfbench's serve-churn workload submits through POST /tune: a 32³
// float32 volume, bilateral r1 z-inner, one simulated worker on the
// 1/32-scaled IvyBridge hierarchy, population 4, one generation. Its
// cost is the cache simulator's replay of every candidate.
func BenchmarkInterleaveChurn(b *testing.B) {
	cfg := interleaveConfig()
	cfg.Nx, cfg.Ny, cfg.Nz = 32, 32, 32
	cfg.Options.Workers = 1
	cfg.Population, cfg.Generations = 4, 1
	var res *InterleaveResult
	for n := 0; n < b.N; n++ {
		var err error
		if res, err = Interleave(cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(res.Evals)), "candidates")
}
