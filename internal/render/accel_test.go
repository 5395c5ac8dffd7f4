package render

import (
	"context"
	"math"
	"math/rand/v2"
	"testing"

	"sfcmem/internal/core"
	"sfcmem/internal/grid"
	"sfcmem/internal/volume"
)

func TestBuildAccelRanges(t *testing.T) {
	// One bright voxel at x = 8 of an otherwise dark 24³ volume: cell
	// (1,0,0) holds it, and cell (0,0,0) reaches it through its apron
	// (its samples interpolate up to x = 8). The cell below it in x
	// never reads it, so the other 25 cells are empty.
	g := grid.New(core.NewArrayOrder(24, 24, 24))
	g.Set(8, 0, 0, 1)
	a := BuildAccelOf(g, grayscaleTransferFunc())
	for _, c := range []struct {
		x, y, z float64
		want    bool
	}{
		{0.5, 0.5, 0.5, true}, // cell (0,0,0): apron reaches x = 8
		{7.9, 7.9, 7.9, true}, // last position of cell (0,0,0)
		{8.0, 0, 0, true},     // cell (1,0,0)
		{16.0, 0, 0, false},   // cell (2,0,0)
		{0, 8.0, 0, false},    // cell (0,1,0)
		{0, 0, 23.0, false},   // cell (0,0,2)
		{-0.5, 0, 0, true},    // truncates into cell (0,0,0)
		{24.0, 0, 0, true},    // off the map: sampled as usual
		{math.NaN(), 0, 0, true},
	} {
		if got := a.occupied(c.x, c.y, c.z); got != c.want {
			t.Errorf("occupied(%v,%v,%v) = %v, want %v", c.x, c.y, c.z, got, c.want)
		}
	}
	if got, want := a.EmptyFraction(), 25.0/27; got != want {
		t.Errorf("EmptyFraction = %v, want %v", got, want)
	}
}

func TestAccelMismatchRejected(t *testing.T) {
	const n = 16
	vol := volume.CombustionPlume(core.NewZOrder(n, n, n), 1)
	cam := Orbit(1, 8, n, n, n, 16, 16)
	tf := DefaultTransferFunc()
	other := volume.CombustionPlume(core.NewZOrder(n, n, n+1), 1)
	if _, err := Render(vol, cam, tf, Options{Accel: BuildAccelOf(other, tf)}); err == nil {
		t.Error("map of a 16x16x17 volume accepted for a 16³ render")
	}
	if _, err := Render(vol, cam, tf, Options{Accel: BuildAccelOf(vol, grayscaleTransferFunc())}); err == nil {
		t.Error("map built for another opacity threshold accepted")
	}
	if _, err := Render(vol, cam, tf, Options{Accel: BuildAccelOf(vol, tf)}); err != nil {
		t.Errorf("matching map refused: %v", err)
	}
}

func TestMinOpaqueValue(t *testing.T) {
	tf, err := NewTransferFunc([]ControlPoint{
		{Value: 0.0, Color: RGBA{}},
		{Value: 0.5, Color: RGBA{}},
		{Value: 0.6, Color: RGBA{1, 1, 1, 0.5}},
		{Value: 1.0, Color: RGBA{1, 1, 1, 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	th := tf.MinOpaqueValue()
	if th < 0.45 || th > 0.55 {
		t.Errorf("threshold %v, want ≈0.5 (first bin with nonzero alpha)", th)
	}
	// Fully transparent function: threshold above any value.
	clear, err := NewTransferFunc([]ControlPoint{{Value: 0, Color: RGBA{}}})
	if err != nil {
		t.Fatal(err)
	}
	if clear.MinOpaqueValue() <= 1 {
		t.Errorf("transparent TF threshold %v", clear.MinOpaqueValue())
	}
}

func TestEmptySkipBitwiseIdentical(t *testing.T) {
	const n = 32
	vol := volume.CombustionPlume(core.NewZOrder(n, n, n), 1)
	tf := DefaultTransferFunc()
	accel := BuildAccelOf(vol, tf)
	if accel.EmptyFraction() == 0 {
		t.Fatal("vacuous comparison: the plume map has no empty cell")
	}
	for _, view := range []int{0, 1, 2, 3} {
		cam := Orbit(view, 8, n, n, n, 48, 48)
		plain, err := Render(vol, cam, tf, Options{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		skip, err := Render(vol, cam, tf, Options{Workers: 2, Accel: accel})
		if err != nil {
			t.Fatal(err)
		}
		if d := MaxDiff(plain, skip); d != 0 {
			t.Errorf("view %d: empty-skip changed the image by %v", view, d)
		}
		if plain.MeanAlpha() == 0 {
			t.Fatalf("view %d: vacuous comparison (empty image)", view)
		}
	}
}

// TestAccelOpaqueAtZero is the regression test for a transfer function
// that is opaque at 0: Eval maps negative and NaN samples to the first
// table entry, so a volume of negative values is drawn, and a map that
// compared raw cell maxima against the threshold skipped all of it.
func TestAccelOpaqueAtZero(t *testing.T) {
	const n = 32
	vol := grid.New(core.NewArrayOrder(n, n, n))
	d := vol.Data()
	for i := range d {
		d[i] = -0.5
	}
	vol.Set(n/2, n/2, n/2, float32(math.NaN()))
	tf, err := NewTransferFunc([]ControlPoint{
		{Value: 0, Color: RGBA{1, 0, 0, 0.3}},
		{Value: 1, Color: RGBA{1, 1, 1, 0.9}},
	})
	if err != nil {
		t.Fatal(err)
	}
	cam := Orbit(1, 8, n, n, n, 32, 32)
	plain, err := Render(vol, cam, tf, Options{})
	if err != nil {
		t.Fatal(err)
	}
	skip, err := Render(vol, cam, tf, Options{Accel: BuildAccelOf(vol, tf)})
	if err != nil {
		t.Fatal(err)
	}
	if plain.MeanAlpha() < 0.5 {
		t.Fatalf("plain march mean alpha %v: the volume should be drawn", plain.MeanAlpha())
	}
	if d := MaxDiff(plain, skip); d != 0 {
		t.Errorf("map changed the image by %v (mean alpha %v plain, %v with map)",
			d, plain.MeanAlpha(), skip.MeanAlpha())
	}
}

func TestEmptySkipReducesSamples(t *testing.T) {
	// A small dense sphere in a big empty volume: most macrocells skip.
	const n = 64
	vol := volume.SolidSphere(core.NewArrayOrder(n, n, n), 0.25)
	cam := Orbit(1, 8, n, n, n, 32, 32)
	tf := grayscaleTransferFunc()
	accel := BuildAccelOf(vol, tf)
	count := func(accel *Accel) uint64 {
		var sink grid.CountingSink
		tv := grid.NewTraced(vol, 0, &sink)
		_, err := RenderViews([]grid.Reader{tv}, cam, tf, Options{Accel: accel})
		if err != nil {
			t.Fatal(err)
		}
		return sink.Reads
	}
	plain, skipped := count(nil), count(accel)
	if skipped >= plain/2 {
		t.Errorf("empty-skip marching reads %d vs plain %d: not skipping", skipped, plain)
	}
}

func TestEmptySkipWorkerInvariance(t *testing.T) {
	const n = 24
	vol := volume.CombustionPlume(core.NewArrayOrder(n, n, n), 5)
	cam := Orbit(3, 8, n, n, n, 40, 40)
	tf := DefaultTransferFunc()
	accel := BuildAccelOf(vol, tf)
	ref, err := Render(vol, cam, tf, Options{Workers: 1, Accel: accel})
	if err != nil {
		t.Fatal(err)
	}
	multi, err := Render(vol, cam, tf, Options{Workers: 5, Accel: accel, TileSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	if MaxDiff(ref, multi) != 0 {
		t.Error("empty-skip result depends on workers/tiles")
	}
}

// FuzzAccelExact renders a random volume of a random dtype under a
// random transfer function, step and camera, with and without its
// empty-space map, and demands the two frames agree bit for bit.
func FuzzAccelExact(f *testing.F) {
	for seed := uint64(0); seed < 12; seed++ {
		f.Add(seed, uint8(seed))
	}
	f.Fuzz(func(t *testing.T, seed uint64, dtype uint8) {
		rng := rand.New(rand.NewPCG(seed, 0xacce1))
		switch dtype % 4 {
		case 0:
			checkAccelExact[uint8](t, rng)
		case 1:
			checkAccelExact[uint16](t, rng)
		case 2:
			checkAccelExact[float32](t, rng)
		default:
			checkAccelExact[float64](t, rng)
		}
	})
}

func checkAccelExact[T grid.Scalar](t *testing.T, rng *rand.Rand) {
	t.Helper()
	tf := randomTF(rng)
	vol := randomVolume[T](rng, tf.MinOpaqueValue())
	nx, ny, nz := vol.Dims()
	o := Options{
		Step:       0.2 + 1.8*rng.Float64(),
		Shade:      rng.IntN(2) == 0,
		NoFastPath: rng.IntN(4) == 0,
		MaxAlpha:   0.5 + 0.5*rng.Float64(),
	}
	cam := randomCamera(rng, nx, ny, nz)
	plain, err := RenderCtxOf[T](context.Background(), vol, cam, tf, o)
	if err != nil {
		t.Fatal(err)
	}
	o.Accel = BuildAccelOf(vol, tf)
	skip, err := RenderCtxOf[T](context.Background(), vol, cam, tf, o)
	if err != nil {
		t.Fatal(err)
	}
	for y := 0; y < plain.H; y++ {
		for x := 0; x < plain.W; x++ {
			if p, q := plain.At(x, y), skip.At(x, y); !sameBits(p, q) {
				t.Fatalf("%v %dx%dx%d, %.0f%% empty, %+v: pixel (%d,%d) %v plain, %v with map",
					grid.DtypeFor[T](), nx, ny, nz, 100*o.Accel.EmptyFraction(), cam, x, y, p, q)
			}
		}
	}
}

func sameBits(p, q RGBA) bool {
	b := math.Float32bits
	return b(p.R) == b(q.R) && b(p.G) == b(q.G) && b(p.B) == b(q.B) && b(p.A) == b(q.A)
}

// randomTF draws 1–5 control points with transparent stretches, the
// first at 0; one in four is opaque at 0.
func randomTF(rng *rand.Rand) *TransferFunc {
	pts := make([]ControlPoint, 1+rng.IntN(5))
	for i := range pts {
		var a float32
		if rng.IntN(2) == 0 {
			a = rng.Float32()
		}
		pts[i] = ControlPoint{Value: rng.Float64(), Color: RGBA{rng.Float32(), rng.Float32(), rng.Float32(), a}}
	}
	pts[0].Value, pts[0].Color.A = 0, 0
	if rng.IntN(4) == 0 {
		pts[0].Color.A = 0.05 + 0.95*rng.Float32()
	}
	tf, err := NewTransferFunc(pts)
	if err != nil {
		panic(err)
	}
	return tf
}

// randomVolume fills a random-sized, random-layout volume cell by cell
// (8³, the map's own cells) with one of: dark values below th (half the
// cells), values a hair either side of th, anything in [0,1], or — for
// float dtypes — negatives, NaN and ±Inf.
func randomVolume[T grid.Scalar](rng *rand.Rand, th float32) *grid.Grid[T] {
	nx, ny, nz := 2+rng.IntN(24), 2+rng.IntN(24), 2+rng.IntN(24)
	kinds := core.Kinds()
	g := grid.NewOf[T](core.New(kinds[rng.IntN(len(kinds))], nx, ny, nz))
	scale := grid.NormScale[T]()
	isFloat := scale == 1
	modes := map[[3]int]int{}
	for z := 0; z < nz; z++ {
		for y := 0; y < ny; y++ {
			for x := 0; x < nx; x++ {
				cell := [3]int{x >> 3, y >> 3, z >> 3}
				m, ok := modes[cell]
				if !ok {
					m = max(0, rng.IntN(6)-2) // half the cells dark
					modes[cell] = m
				}
				var v T
				switch m {
				case 0: // dark
					v = grid.FromNorm[T](float64(th)*0.9*rng.Float64(), scale)
				case 1: // either side of the threshold
					if isFloat {
						v = T(float64(th) + (rng.Float64()-0.5)*4*accelMargin)
					} else {
						code := math.Round(float64(th)*scale) + float64(rng.IntN(5)-2)
						v = T(max(0, min(scale, code)))
					}
				case 2:
					v = grid.FromNorm[T](rng.Float64(), scale)
				default:
					if !isFloat {
						v = grid.FromNorm[T](float64(th)*rng.Float64(), scale)
						break
					}
					switch rng.IntN(8) {
					case 0:
						v = T(math.NaN())
					case 1:
						v = T(math.Inf(-1 + 2*rng.IntN(2)))
					default:
						v = T(-2 * rng.Float64())
					}
				}
				g.Set(x, y, z, v)
			}
		}
	}
	return g
}

// randomCamera looks at a random point of the volume from a random eye,
// sometimes inside the volume, sometimes orthographic.
func randomCamera(rng *rand.Rand, nx, ny, nz int) Camera {
	ext := Vec3{float64(nx), float64(ny), float64(nz)}
	in := func() Vec3 {
		return Vec3{rng.Float64() * ext.X, rng.Float64() * ext.Y, rng.Float64() * ext.Z}
	}
	center := in()
	var dir Vec3
	for dir.Len() < 1e-3 {
		dir = Vec3{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
	}
	dist := (0.2 + 2.5*rng.Float64()) * ext.Len()
	up := Vec3{0, 1, 0}
	if math.Abs(dir.Normalize().Y) > 0.9 {
		up = Vec3{1, 0, 0}
	}
	return Camera{
		Eye:         center.Add(dir.Normalize().Scale(dist)),
		Center:      center,
		Up:          up,
		FOVY:        20 + 60*rng.Float64(),
		Width:       4 + rng.IntN(14),
		Height:      4 + rng.IntN(14),
		Ortho:       rng.IntN(4) == 0,
		OrthoHeight: rng.Float64() * ext.Len(),
	}
}
