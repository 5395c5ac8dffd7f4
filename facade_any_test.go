package sfcmem_test

import (
	"bytes"
	"context"
	"math"
	"strings"
	"testing"

	"sfcmem"
	"sfcmem/internal/filter"
	"sfcmem/internal/grid"
	"sfcmem/internal/render"
)

func TestAnyGridBasics(t *testing.T) {
	l := sfcmem.NewLayout(sfcmem.ZOrder, 8, 8, 8)
	for _, dt := range grid.Dtypes() {
		a := sfcmem.NewAnyGrid(dt, l)
		if a.Dtype() != dt {
			t.Errorf("NewAnyGrid(%v).Dtype() = %v", dt, a.Dtype())
		}
		nx, ny, nz := a.Dims()
		if nx != 8 || ny != 8 || nz != 8 {
			t.Errorf("%v: dims %dx%dx%d", dt, nx, ny, nz)
		}
		if want := int64(8 * 8 * 8 * dt.Size()); a.Bytes() != want {
			t.Errorf("%v: Bytes() = %d, want %d", dt, a.Bytes(), want)
		}
	}
}

func TestAnyGridWrapAndTypedAccess(t *testing.T) {
	l := sfcmem.NewLayout(sfcmem.Array, 4, 4, 4)
	g := sfcmem.NewGridOf[uint16](l)
	g.Set(1, 2, 3, 32768)
	a := sfcmem.WrapAny(g)
	if a.Dtype() != sfcmem.U16 {
		t.Fatalf("wrapped dtype %v", a.Dtype())
	}
	if back := sfcmem.Grids[uint16](a); back == nil || back.At(1, 2, 3) != 32768 {
		t.Error("Grids[uint16] did not recover the wrapped grid")
	}
	if sfcmem.Grids[float32](a) != nil {
		t.Error("Grids[float32] should be nil for a uint16 AnyGrid")
	}
	// 32768/65535 ≈ 0.50000763; Norm must normalize by the dtype scale.
	if n := a.Norm(1, 2, 3); n < 0.5 || n > 0.501 {
		t.Errorf("Norm = %v", n)
	}
}

func TestAnyGridConvertAndFloat32(t *testing.T) {
	l := sfcmem.NewLayout(sfcmem.Hilbert, 6, 5, 4)
	src := sfcmem.MRIPhantomAny(sfcmem.U8, l, 3, 0.02)
	u16 := src.Convert(sfcmem.U16)
	if u16.Dtype() != sfcmem.U16 {
		t.Fatalf("converted dtype %v", u16.Dtype())
	}
	// uint8 -> uint16 is exact in code space, so converting back must
	// reproduce the original codes.
	back := u16.Convert(sfcmem.U8)
	a8, b8 := sfcmem.Grids[uint8](src), sfcmem.Grids[uint8](back)
	f := src.Float32()
	a8.ForEachIndex(func(i, j, k int, v uint8) {
		if b8.At(i, j, k) != v {
			t.Fatalf("u8->u16->u8 changed code at (%d,%d,%d)", i, j, k)
		}
		if want := float32(v) / 255; f.At(i, j, k) != want {
			t.Fatalf("Float32() at (%d,%d,%d) = %v, want %v", i, j, k, f.At(i, j, k), want)
		}
	})
}

func TestAnyGridRelayout(t *testing.T) {
	src := sfcmem.CombustionPlumeAny(sfcmem.U16, sfcmem.NewLayout(sfcmem.Array, 8, 8, 8), 5)
	out, err := src.Relayout(sfcmem.NewLayout(sfcmem.ZOrder, 8, 8, 8))
	if err != nil {
		t.Fatal(err)
	}
	a, b := sfcmem.Grids[uint16](src), sfcmem.Grids[uint16](out)
	a.ForEachIndex(func(i, j, k int, v uint16) {
		if b.At(i, j, k) != v {
			t.Fatalf("relayout changed sample (%d,%d,%d)", i, j, k)
		}
	})
}

// TestAnyKernelsRunPerDtype pins the dynamic dispatch for every dtype:
// each *Any kernel's output is bit-identical to the typed kernel it
// dispatches to, run on the same grid. The golden digests cover only
// float32.
func TestAnyKernelsRunPerDtype(t *testing.T) {
	l := sfcmem.NewLayout(sfcmem.ZOrder, 12, 12, 12)
	t.Run("uint8", func(t *testing.T) { checkAnyMatchesTyped[uint8](t, l) })
	t.Run("uint16", func(t *testing.T) { checkAnyMatchesTyped[uint16](t, l) })
	t.Run("float32", func(t *testing.T) { checkAnyMatchesTyped[float32](t, l) })
	t.Run("float64", func(t *testing.T) { checkAnyMatchesTyped[float64](t, l) })
}

func checkAnyMatchesTyped[T sfcmem.Scalar](t *testing.T, l sfcmem.Layout) {
	ctx := context.Background()
	dt := sfcmem.WrapAny(sfcmem.NewGridOf[T](l)).Dtype()
	src := sfcmem.MRIPhantomAny(dt, l, 7, 0.05)
	o := sfcmem.FilterOptions{Radius: 1, Workers: 2}
	for _, k := range []struct {
		name  string
		any   func(context.Context, *sfcmem.AnyGrid, *sfcmem.AnyGrid, sfcmem.FilterOptions) error
		typed func(context.Context, sfcmem.ReaderOf[T], sfcmem.WriterOf[T], sfcmem.FilterOptions) error
	}{
		{"bilateral", sfcmem.BilateralAnyCtx, filter.ApplyCtxOf[T]},
		{"gaussian", sfcmem.GaussianConvolveAnyCtx, filter.GaussianConvolveCtxOf[T]},
	} {
		got := sfcmem.NewAnyGrid(dt, l)
		if err := k.any(ctx, src, got, o); err != nil {
			t.Fatalf("%s: %v", k.name, err)
		}
		want := sfcmem.NewGridOf[T](l)
		if err := k.typed(ctx, sfcmem.Grids[T](src), want, o); err != nil {
			t.Fatalf("%s typed: %v", k.name, err)
		}
		if !bytes.Equal(rawBytes(t, got), rawBytes(t, sfcmem.WrapAny(want))) {
			t.Errorf("%s: dynamic-dtype output differs from the typed kernel's", k.name)
		}
	}

	vol := sfcmem.CombustionPlumeAny(dt, l, 7)
	cam := sfcmem.Orbit(0, 8, 12, 12, 12, 24, 24)
	ro := sfcmem.RenderOptions{Workers: 2}
	img, err := sfcmem.RenderAnyCtx(ctx, vol, cam, sfcmem.DefaultTransferFunc(), ro)
	if err != nil {
		t.Fatalf("render: %v", err)
	}
	ref, err := render.RenderCtxOf[T](ctx, sfcmem.Grids[T](vol), cam, sfcmem.DefaultTransferFunc(), ro)
	if err != nil {
		t.Fatalf("render typed: %v", err)
	}
	bits := func(c sfcmem.RGBA) [4]uint32 {
		return [4]uint32{math.Float32bits(c.R), math.Float32bits(c.G), math.Float32bits(c.B), math.Float32bits(c.A)}
	}
	var sum float32
	for y := 0; y < img.H; y++ {
		for x := 0; x < img.W; x++ {
			if a, b := img.At(x, y), ref.At(x, y); bits(a) != bits(b) {
				t.Fatalf("render: pixel (%d,%d) = %v, typed kernel gives %v", x, y, a, b)
			}
			sum += img.At(x, y).A
		}
	}
	if sum == 0 {
		t.Error("rendered frame is empty")
	}
}

// rawBytes is a grid's samples at their native width, for bit-exact
// comparison.
func rawBytes(t *testing.T, a *sfcmem.AnyGrid) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := sfcmem.SaveRawAny(&buf, a); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestAnyKernelDtypeMismatch(t *testing.T) {
	l := sfcmem.NewLayout(sfcmem.Array, 8, 8, 8)
	src := sfcmem.NewAnyGrid(sfcmem.U8, l)
	dst := sfcmem.NewAnyGrid(sfcmem.F32, l)
	err := sfcmem.BilateralAnyCtx(context.Background(), src, dst, sfcmem.FilterOptions{Radius: 1})
	if err == nil || !strings.Contains(err.Error(), "dtype mismatch") {
		t.Errorf("mismatched dtypes accepted: %v", err)
	}
}

func TestAnyRawRoundTrip(t *testing.T) {
	l := sfcmem.NewLayout(sfcmem.Tiled, 5, 6, 7)
	for _, dt := range grid.Dtypes() {
		src := sfcmem.MRIPhantomAny(dt, l, 9, 0.03)
		var buf bytes.Buffer
		if err := sfcmem.SaveRawAny(&buf, src); err != nil {
			t.Fatal(err)
		}
		if want := int64(5 * 6 * 7 * dt.Size()); int64(buf.Len()) != want {
			t.Errorf("%v: raw stream %d bytes, want %d", dt, buf.Len(), want)
		}
		back, err := sfcmem.LoadRawAny(bytes.NewReader(buf.Bytes()), dt, sfcmem.NewLayout(sfcmem.ZOrder, 5, 6, 7))
		if err != nil {
			t.Fatal(err)
		}
		sf, bf := src.Float32(), back.Float32()
		sf.ForEachIndex(func(i, j, k int, v float32) {
			if bf.At(i, j, k) != v {
				t.Fatalf("%v: raw round trip changed sample (%d,%d,%d)", dt, i, j, k)
			}
		})
		// Truncated payloads must be rejected with byte counts.
		_, err = sfcmem.LoadRawAny(bytes.NewReader(buf.Bytes()[:buf.Len()-1]), dt, l)
		if err == nil || !strings.Contains(err.Error(), "truncated") {
			t.Errorf("%v: truncated payload accepted: %v", dt, err)
		}
	}
}

func TestParseDtype(t *testing.T) {
	for _, c := range []struct {
		in   string
		want sfcmem.Dtype
	}{{"uint8", sfcmem.U8}, {"u16", sfcmem.U16}, {"float32", sfcmem.F32}, {"double", sfcmem.F64}} {
		got, err := sfcmem.ParseDtype(c.in)
		if err != nil || got != c.want {
			t.Errorf("ParseDtype(%q) = %v, %v", c.in, got, err)
		}
	}
	if _, err := sfcmem.ParseDtype("int9"); err == nil ||
		!strings.Contains(err.Error(), "recognized") {
		t.Errorf("ParseDtype error should list recognized dtypes: %v", err)
	}
}

func TestSubsampleAnyPreservesDtypeAndBits(t *testing.T) {
	for _, dt := range grid.Dtypes() {
		l := sfcmem.NewLayout(sfcmem.ZOrder, 16, 16, 16)
		src := sfcmem.MRIPhantomAny(dt, l, 3, 0.01)
		sub, err := sfcmem.SubsampleAny(src, 1, func(nx, ny, nz int) sfcmem.Layout {
			return sfcmem.NewLayout(sfcmem.ZOrder, nx, ny, nz)
		})
		if err != nil {
			t.Fatalf("%v: %v", dt, err)
		}
		if sub.Dtype() != dt {
			t.Fatalf("%v: subsample came back as %v", dt, sub.Dtype())
		}
		nx, ny, nz := sub.Dims()
		if nx != 8 || ny != 8 || nz != 8 {
			t.Fatalf("%v: dims %dx%dx%d, want 8³", dt, nx, ny, nz)
		}
		for k := 0; k < nz; k++ {
			for j := 0; j < ny; j++ {
				for i := 0; i < nx; i++ {
					if sub.Norm(i, j, k) != src.Norm(i*2, j*2, k*2) {
						t.Fatalf("%v: sample (%d,%d,%d) differs from source lattice", dt, i, j, k)
					}
				}
			}
		}
		if _, err := sfcmem.SubsampleAny(src, -1, nil); err == nil {
			t.Errorf("%v: negative level accepted", dt)
		}
	}
}
