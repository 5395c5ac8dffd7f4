package render

import (
	"context"
	"math"
	"testing"

	"sfcmem/internal/core"
	"sfcmem/internal/grid"
	"sfcmem/internal/volume"
)

func imagesEqual(a, b *Image) bool {
	if a.W != b.W || a.H != b.H {
		return false
	}
	for y := 0; y < a.H; y++ {
		for x := 0; x < a.W; x++ {
			if a.At(x, y) != b.At(x, y) {
				return false
			}
		}
	}
	return true
}

// checkRenderDtype renders one dtype instantiation four ways — flat vs
// interface path, empty-space map on vs off — and demands identical
// frames: the fast path must be bit-identical and the map must never
// skip a contributing sample, for every element width.
func checkRenderDtype[T grid.Scalar](t *testing.T, kind core.Kind) {
	t.Helper()
	const n = 24
	vol := volume.CombustionPlumeOf[T](core.New(kind, n, n, n), 9)
	cam := Orbit(1, 8, n, n, n, 48, 48)
	tf := DefaultTransferFunc()
	base, err := RenderCtxOf[T](context.Background(), vol, cam, tf, Options{Workers: 2, Shade: true})
	if err != nil {
		t.Fatal(err)
	}
	accel := BuildAccelOf(vol, tf)
	variants := []Options{
		{Workers: 2, Shade: true, NoFastPath: true},
		{Workers: 2, Shade: true, Accel: accel},
		{Workers: 2, Shade: true, Accel: accel, NoFastPath: true},
	}
	for _, o := range variants {
		img, err := RenderCtxOf[T](context.Background(), vol, cam, tf, o)
		if err != nil {
			t.Fatal(err)
		}
		if !imagesEqual(base, img) {
			t.Errorf("%v/%v: frame differs (nofast=%v accel=%v)",
				grid.DtypeFor[T](), kind, o.NoFastPath, o.Accel != nil)
		}
	}
	// The frame must not be trivially empty.
	var sum float32
	for y := 0; y < base.H; y++ {
		for x := 0; x < base.W; x++ {
			sum += base.At(x, y).A
		}
	}
	if sum == 0 {
		t.Fatalf("%v/%v: rendered frame is empty", grid.DtypeFor[T](), kind)
	}
}

func TestRenderDtypesFlatVsInterfaceVsSkip(t *testing.T) {
	for _, kind := range []core.Kind{core.ZKind, core.HilbertKind} {
		checkRenderDtype[uint8](t, kind)
		checkRenderDtype[uint16](t, kind)
		checkRenderDtype[float32](t, kind)
		checkRenderDtype[float64](t, kind)
	}
}

func TestRenderDtypeTracksFloat32(t *testing.T) {
	// A uint16 volume quantizes the same plume to 65535 codes; the
	// rendered frame should be visually indistinguishable from the
	// float32 frame (small per-channel deviation), confirming the
	// normalization keeps the transfer function domain aligned.
	const n = 20
	l := core.NewZOrder(n, n, n)
	cam := Orbit(1, 8, n, n, n, 40, 40)
	tf := DefaultTransferFunc()
	f32, err := Render(volume.CombustionPlume(l, 4), cam, tf, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	u16, err := RenderCtxOf[uint16](context.Background(), volume.CombustionPlumeOf[uint16](l, 4), cam, tf, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	var worst float64
	for y := 0; y < f32.H; y++ {
		for x := 0; x < f32.W; x++ {
			a, b := f32.At(x, y), u16.At(x, y)
			for _, d := range []float32{a.R - b.R, a.G - b.G, a.B - b.B, a.A - b.A} {
				if fd := float64(d); fd > worst {
					worst = fd
				} else if -fd > worst {
					worst = -fd
				}
			}
		}
	}
	if worst > 0.02 {
		t.Errorf("uint16 frame deviates from float32 by %v per channel", worst)
	}
}

// checkAccelCells classifies every cell of vol's map by brute force:
// a cell the map proves empty may hold no voxel (apron included) at or
// above the opacity threshold, and a cell it keeps must hold one within
// the rounding margin of it.
func checkAccelCells[T grid.Scalar](t *testing.T, vol *grid.Grid[T], tf *TransferFunc) {
	t.Helper()
	a := BuildAccelOf(vol, tf)
	th := float64(tf.MinOpaqueValue())
	scale := grid.NormScale[T]()
	nx, ny, nz := vol.Dims()
	empty := 0
	for iz := uint(0); iz < a.cz; iz++ {
		for iy := uint(0); iy < a.cy; iy++ {
			for ix := uint(0); ix < a.cx; ix++ {
				x0, x1 := cellSpan(ix, nx)
				y0, y1 := cellSpan(iy, ny)
				z0, z1 := cellSpan(iz, nz)
				hi := math.Inf(-1)
				for z := z0; z <= z1; z++ {
					for y := y0; y <= y1; y++ {
						for x := x0; x <= x1; x++ {
							hi = math.Max(hi, float64(vol.At(x, y, z))/scale)
						}
					}
				}
				occ := a.occupied(float64(x0), float64(y0), float64(z0))
				switch {
				case !occ && hi >= th:
					t.Errorf("%v cell (%d,%d,%d): max %v ≥ threshold %v, yet empty", grid.DtypeFor[T](), ix, iy, iz, hi, th)
				case occ && hi < th-accelMargin:
					t.Errorf("%v cell (%d,%d,%d): max %v well below threshold %v, yet kept", grid.DtypeFor[T](), ix, iy, iz, hi, th)
				case !occ:
					empty++
				}
			}
		}
	}
	if empty == 0 {
		t.Errorf("%v: vacuous check, no empty cell", grid.DtypeFor[T]())
	}
}

func TestBuildAccelConservativePerDtype(t *testing.T) {
	l := core.NewZOrder(40, 24, 32)
	tf := DefaultTransferFunc()
	checkAccelCells(t, volume.CombustionPlumeOf[uint8](l, 7), tf)
	checkAccelCells(t, volume.CombustionPlumeOf[uint16](l, 7), tf)
	checkAccelCells(t, volume.CombustionPlumeOf[float32](l, 7), tf)
	checkAccelCells(t, volume.CombustionPlumeOf[float64](l, 7), tf)
}
