package filter

import (
	"context"
	"testing"

	"sfcmem/internal/core"
	"sfcmem/internal/grid"
	"sfcmem/internal/volume"
)

// checkFilterDtype runs the bilateral filter and the Gaussian baseline
// for one element type over a phantom, once per layout, and checks the
// flat fast path against the forced interface path voxel for voxel.
func checkFilterDtype[T grid.Scalar](t *testing.T, kind core.Kind) {
	t.Helper()
	const n = 14
	l := core.New(kind, n, n, n)
	src := volume.MRIPhantomOf[T](l, 11, 0.04)
	o := Options{Radius: 2, Workers: 2}

	fast := grid.NewOf[T](l)
	if err := ApplyCtxOf[T](context.Background(), src, fast, o); err != nil {
		t.Fatal(err)
	}
	slow := grid.NewOf[T](l)
	oSlow := o
	oSlow.NoFastPath = true
	if err := ApplyCtxOf[T](context.Background(), src, slow, oSlow); err != nil {
		t.Fatal(err)
	}
	if !grid.Equal(fast, slow) {
		t.Errorf("%v/%v: bilateral flat path disagrees with interface path", grid.DtypeFor[T](), kind)
	}

	gfast := grid.NewOf[T](l)
	if err := GaussianConvolveCtxOf[T](context.Background(), src, gfast, o); err != nil {
		t.Fatal(err)
	}
	gslow := grid.NewOf[T](l)
	if err := GaussianConvolveCtxOf[T](context.Background(), src, gslow, oSlow); err != nil {
		t.Fatal(err)
	}
	if !grid.Equal(gfast, gslow) {
		t.Errorf("%v/%v: gaussian flat path disagrees with interface path", grid.DtypeFor[T](), kind)
	}
}

func TestBilateralDtypesFlatVsInterface(t *testing.T) {
	for _, kind := range []core.Kind{core.ArrayKind, core.ZKind, core.TiledKind, core.HilbertKind} {
		checkFilterDtype[uint8](t, kind)
		checkFilterDtype[uint16](t, kind)
		checkFilterDtype[float32](t, kind)
		checkFilterDtype[float64](t, kind)
	}
}

func TestBilateralUint8PreservesConstant(t *testing.T) {
	// A constant field has zero value differences everywhere, so every
	// photometric weight is 1 and the filter must return the input code
	// exactly — including the round trip through [0,1] normalization.
	l := core.NewZOrder(10, 10, 10)
	for _, code := range []uint8{0, 1, 127, 254, 255} {
		src := grid.FromFuncOf[uint8](l, func(_, _, _ int) uint8 { return code })
		dst := grid.NewOf[uint8](l)
		if err := ApplyCtxOf[uint8](context.Background(), src, dst, Options{Radius: 1, Workers: 2}); err != nil {
			t.Fatal(err)
		}
		if !grid.Equal(src, dst) {
			got := dst.At(5, 5, 5)
			t.Errorf("constant uint8 field %d filtered to %d", code, got)
		}
	}
}

func TestBilateralDtypeTracksFloat32(t *testing.T) {
	// The uint16 result should match the float32 result to within the
	// quantization granularity: the kernels run the same normalized
	// arithmetic, differing only in sample storage precision.
	const n = 12
	l := core.NewArrayOrder(n, n, n)
	f32 := volume.MRIPhantomOf[float32](l, 5, 0.03)
	u16 := volume.MRIPhantomOf[uint16](l, 5, 0.03)
	o := Options{Radius: 2, Workers: 2}
	dstF := grid.New(l)
	if err := Apply(f32, dstF, o); err != nil {
		t.Fatal(err)
	}
	dstU := grid.NewOf[uint16](l)
	if err := ApplyCtxOf[uint16](context.Background(), u16, dstU, o); err != nil {
		t.Fatal(err)
	}
	back := grid.ConvertGrid[float32](dstU)
	// Input quantization (±½ code) can move samples across photometric
	// bins, so allow a few codes of slack rather than exactly one.
	if d := grid.MaxAbsDiff(dstF, back); d > 8.0/65535 {
		t.Errorf("uint16 bilateral deviates from float32 by %v (> 8 codes)", d)
	}
}

func TestBilateralTracedViewsPerDtype(t *testing.T) {
	// Traced views must keep working for narrow dtypes and must stay on
	// the interface path (every access observed).
	l := core.NewZOrder(8, 8, 8)
	src := volume.MRIPhantomOf[uint8](l, 3, 0.05)
	dst := grid.NewOf[uint8](l)
	var sink grid.CountingSink
	srcs := []grid.ReaderOf[uint8]{grid.NewTraced(src, 0, &sink)}
	dsts := []grid.WriterOf[uint8]{grid.NewTraced(dst, 1<<40, &sink)}
	if err := ApplyViewsCtxOf(context.Background(), srcs, dsts, Options{Radius: 1, Workers: 1}); err != nil {
		t.Fatal(err)
	}
	if sink.Writes != 8*8*8 {
		t.Errorf("traced writes = %d, want %d", sink.Writes, 8*8*8)
	}
	if sink.Reads == 0 {
		t.Error("traced reads not observed")
	}
	// And the traced (interface-path) result matches the plain run.
	plain := grid.NewOf[uint8](l)
	if err := ApplyCtxOf[uint8](context.Background(), src, plain, Options{Radius: 1, Workers: 1}); err != nil {
		t.Fatal(err)
	}
	if !grid.Equal(dst, plain) {
		t.Error("traced result differs from plain result")
	}
}
