package render

import (
	"bytes"
	"image/png"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"testing/quick"

	"sfcmem/internal/core"
	"sfcmem/internal/grid"
	"sfcmem/internal/volume"
)

func TestVec3Ops(t *testing.T) {
	a := Vec3{1, 2, 3}
	b := Vec3{4, 5, 6}
	if a.Add(b) != (Vec3{5, 7, 9}) {
		t.Error("Add")
	}
	if b.Sub(a) != (Vec3{3, 3, 3}) {
		t.Error("Sub")
	}
	if a.Scale(2) != (Vec3{2, 4, 6}) {
		t.Error("Scale")
	}
	if a.Dot(b) != 32 {
		t.Error("Dot")
	}
	if (Vec3{1, 0, 0}).Cross(Vec3{0, 1, 0}) != (Vec3{0, 0, 1}) {
		t.Error("Cross")
	}
	if (Vec3{0, 0, 0}).Normalize() != (Vec3{0, 0, 0}) {
		t.Error("Normalize zero")
	}
}

func TestCrossOrthogonalProperty(t *testing.T) {
	f := func(ax, ay, az, bx, by, bz float64) bool {
		if anyNaNInf(ax, ay, az, bx, by, bz) {
			return true
		}
		a := Vec3{math.Mod(ax, 100), math.Mod(ay, 100), math.Mod(az, 100)}
		b := Vec3{math.Mod(bx, 100), math.Mod(by, 100), math.Mod(bz, 100)}
		c := a.Cross(b)
		scale := a.Len()*b.Len() + 1
		return math.Abs(c.Dot(a))/scale < 1e-9 && math.Abs(c.Dot(b))/scale < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNormalizeUnitLength(t *testing.T) {
	f := func(x, y, z float64) bool {
		if anyNaNInf(x, y, z) {
			return true
		}
		v := Vec3{math.Mod(x, 1000), math.Mod(y, 1000), math.Mod(z, 1000)}
		if v.Len() == 0 {
			return true
		}
		return math.Abs(v.Normalize().Len()-1) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func anyNaNInf(vs ...float64) bool {
	for _, v := range vs {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return true
		}
	}
	return false
}

func TestIntersectBox(t *testing.T) {
	lo, hi := Vec3{0, 0, 0}, Vec3{10, 10, 10}
	// Straight through.
	tmin, tmax, hit := intersectBox(Vec3{-5, 5, 5}, Vec3{1, 0, 0}, lo, hi)
	if !hit || tmin != 5 || tmax != 15 {
		t.Errorf("through: %v %v %v", tmin, tmax, hit)
	}
	// Miss.
	if _, _, hit := intersectBox(Vec3{-5, 20, 5}, Vec3{1, 0, 0}, lo, hi); hit {
		t.Error("miss reported as hit")
	}
	// Origin inside: tmin clamps to 0.
	tmin, tmax, hit = intersectBox(Vec3{5, 5, 5}, Vec3{1, 0, 0}, lo, hi)
	if !hit || tmin != 0 || tmax != 5 {
		t.Errorf("inside: %v %v %v", tmin, tmax, hit)
	}
	// Pointing away.
	if _, _, hit := intersectBox(Vec3{-5, 5, 5}, Vec3{-1, 0, 0}, lo, hi); hit {
		t.Error("behind-ray hit")
	}
	// Zero direction component inside the slab.
	if _, _, hit := intersectBox(Vec3{-5, 5, 5}, Vec3{1, 0, 0}, lo, hi); !hit {
		t.Error("axis-parallel ray missed")
	}
	// Zero direction component outside the slab.
	if _, _, hit := intersectBox(Vec3{-5, 20, 5}, Vec3{1, 0, 0}, lo, hi); hit {
		t.Error("axis-parallel outside hit")
	}
}

func TestCameraCenterRay(t *testing.T) {
	cam := Camera{
		Eye: Vec3{0, 0, -10}, Center: Vec3{0, 0, 0}, Up: Vec3{0, 1, 0},
		FOVY: 45, Width: 101, Height: 101,
	}
	_, dir := cam.Ray(50, 50)
	if math.Abs(dir.X) > 0.02 || math.Abs(dir.Y) > 0.02 || dir.Z < 0.99 {
		t.Errorf("center ray %v not toward +z", dir)
	}
	// Corner rays diverge (perspective, not orthographic).
	_, d2 := cam.Ray(0, 0)
	if math.Abs(d2.X-dir.X) < 1e-3 && math.Abs(d2.Y-dir.Y) < 1e-3 {
		t.Error("corner ray equals center ray; projection not perspective")
	}
}

func TestOrbitAlignment(t *testing.T) {
	// View 0: rays run parallel to +x (the paper's memory-aligned case).
	cam := Orbit(0, 8, 64, 64, 64, 64, 64)
	_, dir := cam.Ray(32, 32)
	if dir.X < 0.99 {
		t.Errorf("view 0 center ray %v not along +x", dir)
	}
	// View 4: -x.
	cam = Orbit(4, 8, 64, 64, 64, 64, 64)
	_, dir = cam.Ray(32, 32)
	if dir.X > -0.99 {
		t.Errorf("view 4 center ray %v not along -x", dir)
	}
	// View 2: along z (against the grain).
	cam = Orbit(2, 8, 64, 64, 64, 64, 64)
	_, dir = cam.Ray(32, 32)
	if math.Abs(dir.Z) < 0.99 {
		t.Errorf("view 2 center ray %v not along z", dir)
	}
	// Eye distance is view-independent.
	d0 := Orbit(0, 8, 64, 64, 64, 64, 64).Eye.Sub(Vec3{31.5, 31.5, 31.5}).Len()
	d3 := Orbit(3, 8, 64, 64, 64, 64, 64).Eye.Sub(Vec3{31.5, 31.5, 31.5}).Len()
	if math.Abs(d0-d3) > 1e-9 {
		t.Errorf("orbit radius varies: %v vs %v", d0, d3)
	}
}

func TestOrbitPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Orbit with nViews=0 did not panic")
		}
	}()
	Orbit(0, 0, 8, 8, 8, 8, 8)
}

func TestTransferFuncInterpolation(t *testing.T) {
	tf, err := NewTransferFunc([]ControlPoint{
		{Value: 0, Color: RGBA{0, 0, 0, 0}},
		{Value: 1, Color: RGBA{1, 0.5, 0, 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	mid := tf.Eval(0.5)
	if math.Abs(float64(mid.R)-0.5) > 0.01 || math.Abs(float64(mid.A)-0.5) > 0.01 {
		t.Errorf("midpoint %+v", mid)
	}
	if tf.Eval(-5) != tf.Eval(0) || tf.Eval(5) != tf.Eval(1) {
		t.Error("clamping broken")
	}
}

func TestTransferFuncEmpty(t *testing.T) {
	if _, err := NewTransferFunc(nil); err == nil {
		t.Error("empty transfer function accepted")
	}
}

func TestTransferFuncUnsortedInput(t *testing.T) {
	a, err := NewTransferFunc([]ControlPoint{
		{Value: 1, Color: RGBA{1, 1, 1, 1}},
		{Value: 0, Color: RGBA{0, 0, 0, 0}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if a.Eval(0).A != 0 || a.Eval(1).A != 1 {
		t.Error("points not sorted by value")
	}
}

func TestRenderEmptyVolumeTransparent(t *testing.T) {
	vol := volume.Constant(core.NewArrayOrder(16, 16, 16), 0)
	cam := Orbit(0, 8, 16, 16, 16, 32, 32)
	img, err := Render(vol, cam, DefaultTransferFunc(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if img.MeanAlpha() != 0 {
		t.Errorf("empty volume rendered alpha %v", img.MeanAlpha())
	}
}

func TestRenderDenseVolumeOpaqueCenter(t *testing.T) {
	vol := volume.Constant(core.NewArrayOrder(16, 16, 16), 1)
	// Wide aspect so the horizontal extremes look past the volume.
	cam := Orbit(0, 8, 16, 16, 16, 99, 33)
	img, err := Render(vol, cam, grayscaleTransferFunc(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if c := img.At(49, 16); c.A < 0.9 {
		t.Errorf("center pixel alpha %v, want near-opaque", c.A)
	}
	// The left edge looks past the volume.
	if c := img.At(0, 16); c.A != 0 {
		t.Errorf("edge alpha %v", c.A)
	}
}

func TestRenderLayoutInvariance(t *testing.T) {
	const n = 16
	ref := volume.CombustionPlume(core.NewArrayOrder(n, n, n), 1)
	cam := Orbit(3, 8, n, n, n, 24, 24)
	var first *Image
	for _, kind := range core.Kinds() {
		vol, err := ref.Relayout(core.New(kind, n, n, n))
		if err != nil {
			t.Fatal(err)
		}
		img, err := Render(vol, cam, DefaultTransferFunc(), Options{})
		if err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = img
		} else if d := MaxDiff(first, img); d != 0 {
			t.Errorf("image differs by %v under %v layout", d, kind)
		}
	}
	if first.MeanAlpha() == 0 {
		t.Error("plume render came out empty; test vacuous")
	}
}

func TestRenderWorkerAndTileInvariance(t *testing.T) {
	const n = 16
	vol := volume.CombustionPlume(core.NewZOrder(n, n, n), 2)
	cam := Orbit(1, 8, n, n, n, 40, 40)
	ref, err := Render(vol, cam, DefaultTransferFunc(), Options{Workers: 1, TileSize: 32})
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range []Options{
		{Workers: 4, TileSize: 32},
		{Workers: 2, TileSize: 8},
		{Workers: 7, TileSize: 5},
	} {
		img, err := Render(vol, cam, DefaultTransferFunc(), o)
		if err != nil {
			t.Fatal(err)
		}
		if d := MaxDiff(ref, img); d != 0 {
			t.Errorf("options %+v changed image by %v", o, d)
		}
	}
}

func TestRenderEarlyTermination(t *testing.T) {
	// With a fully opaque volume, a lower MaxAlpha must strictly reduce
	// the number of samples taken.
	const n = 32
	vol := volume.Constant(core.NewArrayOrder(n, n, n), 1)
	cam := Orbit(0, 8, n, n, n, 16, 16)
	count := func(maxAlpha float64) uint64 {
		var sink grid.CountingSink
		tv := grid.NewTraced(vol, 0, &sink)
		_, err := RenderViews([]grid.Reader{tv}, cam, grayscaleTransferFunc(),
			Options{MaxAlpha: maxAlpha})
		if err != nil {
			t.Fatal(err)
		}
		return sink.Reads
	}
	early, late := count(0.5), count(1.0)
	if early >= late {
		t.Errorf("early termination ineffective: %d >= %d reads", early, late)
	}
}

func TestRenderShadeChangesImage(t *testing.T) {
	const n = 16
	vol := volume.CombustionPlume(core.NewArrayOrder(n, n, n), 3)
	cam := Orbit(2, 8, n, n, n, 24, 24)
	plain, err := Render(vol, cam, DefaultTransferFunc(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	shaded, err := Render(vol, cam, DefaultTransferFunc(), Options{Shade: true})
	if err != nil {
		t.Fatal(err)
	}
	if MaxDiff(plain, shaded) == 0 {
		t.Error("shading had no effect")
	}
}

func TestRenderValidation(t *testing.T) {
	vol := volume.Constant(core.NewArrayOrder(8, 8, 8), 1)
	cam := Orbit(0, 8, 8, 8, 8, 16, 16)
	tf := grayscaleTransferFunc()
	if _, err := Render(vol, cam, nil, Options{}); err == nil {
		t.Error("nil transfer function accepted")
	}
	if _, err := Render(vol, cam, tf, Options{Step: -1}); err == nil {
		t.Error("negative step accepted")
	}
	if _, err := Render(vol, cam, tf, Options{MaxAlpha: 2}); err == nil {
		t.Error("alpha > 1 accepted")
	}
	if _, err := Render(vol, cam, tf, Options{Workers: -2}); err == nil {
		t.Error("negative workers accepted")
	}
	if _, err := Render(vol, cam, tf, Options{TileSize: -1}); err == nil {
		t.Error("negative tile size accepted")
	}
	// Validation runs on the caller's values, before defaulting: zeros
	// mean "use the default" and must all be accepted.
	if _, err := Render(vol, cam, tf, Options{}); err != nil {
		t.Errorf("all-zero options rejected: %v", err)
	}
	badCam := cam
	badCam.Width = 0
	if _, err := Render(vol, badCam, tf, Options{}); err == nil {
		t.Error("zero-width image accepted")
	}
	small := volume.Constant(core.NewArrayOrder(4, 4, 4), 1)
	if _, err := RenderViews([]grid.Reader{vol, small}, cam, tf, Options{Workers: 2}); err == nil {
		t.Error("view dimension mismatch accepted")
	}
	if _, err := RenderViews([]grid.Reader{vol}, cam, tf, Options{Workers: 2}); err == nil {
		t.Error("view count mismatch accepted")
	}
}

func TestImagePPM(t *testing.T) {
	img := NewImage(2, 2)
	img.Set(0, 0, RGBA{1, 0, 0, 1})
	var buf bytes.Buffer
	if err := img.WritePPM(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.HasPrefix(out, "P6\n2 2\n255\n") {
		t.Errorf("bad PPM header: %q", out[:20])
	}
	if len(out) != len("P6\n2 2\n255\n")+2*2*3 {
		t.Errorf("PPM body length %d", len(out))
	}
	// Red pixel: first byte near 255, second near 0.
	body := out[len("P6\n2 2\n255\n"):]
	if body[0] < 250 || body[1] > 60 {
		t.Errorf("red pixel bytes % x", body[:3])
	}
}

func TestNewImagePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewImage(0,5) did not panic")
		}
	}()
	NewImage(0, 5)
}

func TestMaxDiffPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MaxDiff size mismatch did not panic")
		}
	}()
	MaxDiff(NewImage(2, 2), NewImage(3, 2))
}

func BenchmarkRenderAligned(b *testing.B) { benchRender(b, 0) }
func BenchmarkRenderOblique(b *testing.B) { benchRender(b, 3) }

func benchRender(b *testing.B, view int) {
	b.Helper()
	const n = 32
	vol := volume.CombustionPlume(core.NewZOrder(n, n, n), 1)
	cam := Orbit(view, 8, n, n, n, 64, 64)
	tf := DefaultTransferFunc()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Render(vol, cam, tf, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func TestOrthographicRaysParallel(t *testing.T) {
	cam := Orbit(1, 8, 32, 32, 32, 40, 40)
	cam.Ortho = true
	o1, d1 := cam.Ray(0, 0)
	o2, d2 := cam.Ray(39, 39)
	if d1 != d2 {
		t.Errorf("orthographic rays diverge: %v vs %v", d1, d2)
	}
	if o1 == o2 {
		t.Error("orthographic origins should differ across pixels")
	}
	// Default plane height: nonzero footprint.
	if o1.Sub(o2).Len() == 0 {
		t.Error("zero image-plane footprint")
	}
}

func TestOrthographicRenderSeesVolume(t *testing.T) {
	const n = 16
	vol := volume.Constant(core.NewArrayOrder(n, n, n), 1)
	cam := Orbit(0, 8, n, n, n, 32, 32)
	cam.Ortho = true
	cam.OrthoHeight = float64(n) * 2
	img, err := Render(vol, cam, grayscaleTransferFunc(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if c := img.At(16, 16); c.A < 0.9 {
		t.Errorf("ortho center alpha %v", c.A)
	}
	if c := img.At(0, 0); c.A != 0 {
		t.Errorf("ortho corner alpha %v (plane is 2x the volume)", c.A)
	}
}

// Under orthographic projection every ray has the same slope, so the
// aligned-view access stream is maximally regular; the traced read count
// must not depend on which layout is used (identical sample positions).
func TestOrthographicSampleCountLayoutInvariant(t *testing.T) {
	const n = 16
	base := volume.CombustionPlume(core.NewArrayOrder(n, n, n), 1)
	zvol, err := base.Relayout(core.NewZOrder(n, n, n))
	if err != nil {
		t.Fatal(err)
	}
	count := func(g *grid.Grid[float32]) uint64 {
		var sink grid.CountingSink
		cam := Orbit(2, 8, n, n, n, 24, 24)
		cam.Ortho = true
		_, err := RenderViews([]grid.Reader{grid.NewTraced(g, 0, &sink)},
			cam, DefaultTransferFunc(), Options{})
		if err != nil {
			t.Fatal(err)
		}
		return sink.Reads
	}
	if a, z := count(base), count(zvol); a != z {
		t.Errorf("read counts differ across layouts: %d vs %d", a, z)
	}
}

func TestPNGRoundtrip(t *testing.T) {
	img := NewImage(3, 2)
	img.Set(0, 0, RGBA{1, 0, 0, 1})
	img.Set(2, 1, RGBA{0, 1, 0, 1})
	var buf bytes.Buffer
	if err := img.WritePNG(&buf); err != nil {
		t.Fatal(err)
	}
	decoded, err := png.Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	b := decoded.Bounds()
	if b.Dx() != 3 || b.Dy() != 2 {
		t.Errorf("decoded size %dx%d", b.Dx(), b.Dy())
	}
	r, g, _, _ := decoded.At(0, 0).RGBA()
	if r < 0xf000 || g > 0x4000 {
		t.Errorf("red pixel decoded as r=%04x g=%04x", r, g)
	}
}

func TestSaveImageFiles(t *testing.T) {
	dir := t.TempDir()
	img := NewImage(4, 4)
	img.Set(1, 1, RGBA{0.5, 0.5, 0.5, 1})
	ppm := filepath.Join(dir, "x.ppm")
	if err := img.SavePPM(ppm); err != nil {
		t.Fatal(err)
	}
	pngPath := filepath.Join(dir, "x.png")
	if err := img.SavePNG(pngPath); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{ppm, pngPath} {
		st, err := os.Stat(p)
		if err != nil || st.Size() == 0 {
			t.Errorf("%s: %v, size %v", p, err, st)
		}
	}
	// Unwritable path errors.
	if err := img.SavePPM(filepath.Join(dir, "no/such/dir.ppm")); err == nil {
		t.Error("bad path accepted")
	}
	if err := img.SavePNG(filepath.Join(dir, "no/such/dir.png")); err == nil {
		t.Error("bad png path accepted")
	}
}

func TestStaticScheduleSameImage(t *testing.T) {
	const n = 16
	vol := volume.CombustionPlume(core.NewZOrder(n, n, n), 4)
	cam := Orbit(2, 8, n, n, n, 48, 48)
	tf := DefaultTransferFunc()
	dyn, err := Render(vol, cam, tf, Options{Workers: 3, Schedule: DynamicSchedule})
	if err != nil {
		t.Fatal(err)
	}
	stat, err := Render(vol, cam, tf, Options{Workers: 3, Schedule: StaticSchedule})
	if err != nil {
		t.Fatal(err)
	}
	if MaxDiff(dyn, stat) != 0 {
		t.Error("scheduling strategy changed the image")
	}
}

func TestRenderFastPathBitIdentical(t *testing.T) {
	// The flat sampling fast path must produce a bitwise-identical image
	// to the interface path for every layout, including with shading
	// (gradient fetches) and empty-space skipping enabled. Non-separable
	// layouts silently stay on the interface path and trivially agree.
	const n = 16
	base := volume.CombustionPlume(core.NewArrayOrder(n, n, n), 5)
	cam := Orbit(3, 8, n, n, n, 32, 32)
	tf := DefaultTransferFunc()
	for _, kind := range core.Kinds() {
		vol, err := base.Relayout(core.New(kind, n, n, n))
		if err != nil {
			t.Fatal(err)
		}
		for _, o := range []Options{
			{Workers: 2},
			{Workers: 2, Shade: true},
			{Workers: 2, Accel: BuildAccelOf(vol, tf)},
		} {
			fast, err := Render(vol, cam, tf, o)
			if err != nil {
				t.Fatal(err)
			}
			o.NoFastPath = true
			slow, err := Render(vol, cam, tf, o)
			if err != nil {
				t.Fatal(err)
			}
			if d := MaxDiff(fast, slow); d != 0 {
				t.Errorf("%v %+v: fast path image differs by %v", kind, o, d)
			}
		}
	}
}

func TestRenderNonCubicVolume(t *testing.T) {
	const nx, ny, nz = 24, 10, 17
	base := volume.CombustionPlume(core.NewArrayOrder(nx, ny, nz), 6)
	cam := Orbit(3, 8, nx, ny, nz, 32, 32)
	var ref *Image
	for _, kind := range core.Kinds() {
		vol, err := base.Relayout(core.New(kind, nx, ny, nz))
		if err != nil {
			t.Fatal(err)
		}
		img, err := Render(vol, cam, DefaultTransferFunc(), Options{Workers: 2})
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		if ref == nil {
			ref = img
		} else if MaxDiff(ref, img) != 0 {
			t.Errorf("%v: non-cubic render differs", kind)
		}
	}
}

// grayscaleTransferFunc maps value v to gray with opacity proportional
// to v.
func grayscaleTransferFunc() *TransferFunc {
	tf, err := NewTransferFunc([]ControlPoint{
		{Value: 0, Color: RGBA{0, 0, 0, 0}},
		{Value: 1, Color: RGBA{1, 1, 1, 0.8}},
	})
	if err != nil {
		panic(err)
	}
	return tf
}
