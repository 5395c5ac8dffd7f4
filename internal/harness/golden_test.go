package harness

// Golden regression tests for the generic-element refactor: the float32
// kernel outputs must stay bit-identical to the pre-generic code. The
// hashes below were captured on the last float32-only revision with
// exactly these configurations; any float32 arithmetic drift in the
// bilateral filter, Gaussian convolution, or raycaster — on either the
// flat fast path or the interface path — changes a hash and fails here.

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"math"
	"testing"

	"sfcmem/internal/core"
	"sfcmem/internal/filter"
	"sfcmem/internal/grid"
	"sfcmem/internal/parallel"
	"sfcmem/internal/render"
	"sfcmem/internal/volume"
)

const (
	goldenBilat  = "67eb27075f0f26cc5ce52e49529b1b9d6e47a2d9577ba0ea3c60faf1165cd526"
	goldenGauss  = "f77684eb12a5266de5986b5fa1b68852657b7a7574948ee8fe158ebf556b352f"
	goldenRender = "6ac3b167a35d983b5f4611c73d9c7857ee2142ef91f9a1031f212e0637ac875d"
)

func hashGrid(h hash.Hash, g *grid.Grid[float32]) {
	nx, ny, nz := g.Dims()
	var buf [4]byte
	for k := 0; k < nz; k++ {
		for j := 0; j < ny; j++ {
			for i := 0; i < nx; i++ {
				binary.LittleEndian.PutUint32(buf[:], math.Float32bits(g.At(i, j, k)))
				h.Write(buf[:])
			}
		}
	}
}

func hashImage(h hash.Hash, img *render.Image) {
	var buf [4]byte
	for y := 0; y < img.H; y++ {
		for x := 0; x < img.W; x++ {
			c := img.At(x, y)
			for _, f := range []float32{c.R, c.G, c.B, c.A} {
				binary.LittleEndian.PutUint32(buf[:], math.Float32bits(f))
				h.Write(buf[:])
			}
		}
	}
}

func gridDigest(g *grid.Grid[float32]) string {
	h := sha256.New()
	hashGrid(h, g)
	return fmt.Sprintf("%x", h.Sum(nil))
}

// mustBit builds a BitLayout or fails the test; the golden matrices use
// it to put generalized interleaves (tuner outputs) on the same digests
// as the registry layouts.
func mustBit(t *testing.T, nx, ny, nz int, spec string) core.Layout {
	t.Helper()
	l, err := core.NewBitLayout(nx, ny, nz, spec)
	if err != nil {
		t.Fatalf("NewBitLayout(%q): %v", spec, err)
	}
	return l
}

// accessPaths are the bilateral filter's two access paths: the
// row-cached flat kernel and the generic interface path.
var accessPaths = []struct {
	label  string
	noFast bool
}{{"flat", false}, {"iface", true}}

func TestGoldenFloat32Bilateral(t *testing.T) {
	const nx, ny, nz = 40, 36, 28
	base := volume.MRIPhantom(core.NewArrayOrder(nx, ny, nz), 7, 0.05)
	layouts := []core.Layout{
		core.New(core.ArrayKind, nx, ny, nz),
		core.New(core.ZKind, nx, ny, nz),
		core.New(core.TiledKind, nx, ny, nz),
		core.New(core.ZTiledKind, nx, ny, nz),
		core.New(core.HilbertKind, nx, ny, nz),
		// A generalized interleave (4×4×4 row-major-ish bricks on a
		// Morton spine) — it must land on the same digest as every
		// other layout/path combination.
		mustBit(t, nx, ny, nz, "xxyyzzxyzxyzxyzxy"),
	}
	for _, layout := range layouts {
		src, err := base.Relayout(layout)
		if err != nil {
			t.Fatal(err)
		}
		for _, cfg := range []struct {
			label string
			axis  parallel.Axis
			order filter.Order
		}{
			{"px-xyz", parallel.AxisX, filter.XYZ},
			{"pz-zyx", parallel.AxisZ, filter.ZYX},
		} {
			// Both access paths share one digest: the row-cached flat
			// kernel (default) and the generic interface path
			// (NoFastPath).
			for _, path := range accessPaths {
				dst := grid.New(layout)
				err := filter.Apply(src, dst, filter.Options{
					Radius: 2, Axis: cfg.axis, Order: cfg.order, Workers: 3,
					NoFastPath: path.noFast,
				})
				if err != nil {
					t.Fatal(err)
				}
				if got := gridDigest(dst); got != goldenBilat {
					t.Errorf("bilat %s %s %s: hash %s, want %s (float32 output drifted from pre-generic kernel)",
						layout.Name(), cfg.label, path.label, got, goldenBilat)
				}
			}
		}
	}
}

// hashGridOf is hashGrid for any element type: logical (k,j,i) iteration
// makes the digest layout-independent, and samples serialize as their
// storage bits little-endian (1/2/4/8 bytes), so a digest pins the exact
// stored values of a configuration across layouts and access paths.
func hashGridOf[T grid.Scalar](h hash.Hash, g *grid.Grid[T]) {
	nx, ny, nz := g.Dims()
	var buf [8]byte
	size := grid.DtypeFor[T]().Size()
	for k := 0; k < nz; k++ {
		for j := 0; j < ny; j++ {
			for i := 0; i < nx; i++ {
				switch v := any(g.At(i, j, k)).(type) {
				case uint8:
					buf[0] = v
				case uint16:
					binary.LittleEndian.PutUint16(buf[:2], v)
				case float32:
					binary.LittleEndian.PutUint32(buf[:4], math.Float32bits(v))
				case float64:
					binary.LittleEndian.PutUint64(buf[:8], math.Float64bits(v))
				}
				h.Write(buf[:size])
			}
		}
	}
}

func gridDigestOf[T grid.Scalar](g *grid.Grid[T]) string {
	h := sha256.New()
	hashGridOf(h, g)
	return fmt.Sprintf("%x", h.Sum(nil))
}

// goldenBilatDtype pins the bilateral filter's exact output per element
// type. checkGoldenBilatDtype verifies both access paths against it,
// so integer rounding, normalization, and the flat kernel's row cache
// are all locked per dtype.
var goldenBilatDtype = map[grid.Dtype]string{
	grid.U8:  "2d62755cd234c65e0241dc351e695508129b178b34da02a5a8f1d6bce78e086e",
	grid.U16: "910863f2f50bae02cc314b583313af90d22b1d902bc5b95ec1ee5338e583e8c9",
	grid.F32: goldenBilat, // same configuration as the float32 golden
	grid.F64: "5f42d51f5f8af718319346c15ed5adc8ef422dad5604aa7de33785b6d8e0f89f",
}

func checkGoldenBilatDtype[T grid.Scalar](t *testing.T, layout core.Layout) {
	t.Helper()
	want := goldenBilatDtype[grid.DtypeFor[T]()]
	src := volume.MRIPhantomOf[T](layout, 7, 0.05)
	for _, path := range accessPaths {
		dst := grid.NewOf[T](layout)
		err := filter.ApplyCtxOf[T](context.Background(), src, dst, filter.Options{
			Radius: 2, Axis: parallel.AxisX, Order: filter.XYZ, Workers: 3,
			NoFastPath: path.noFast,
		})
		if err != nil {
			t.Fatal(err)
		}
		if got := gridDigestOf(dst); got != want {
			t.Errorf("bilat %v %s %s: hash %s, want %s",
				grid.DtypeFor[T](), layout.Name(), path.label, got, want)
		}
	}
}

// TestGoldenBilateralDtypes pins the per-dtype bilateral output across
// the flat and interface paths on the curve layouts (whole-volume
// Morton, Morton-in-bricks, and a generalized interleave) plus the
// stride layout. One digest per dtype across all of it.
func TestGoldenBilateralDtypes(t *testing.T) {
	const nx, ny, nz = 40, 36, 28
	layouts := []core.Layout{
		core.New(core.ArrayKind, nx, ny, nz),
		core.New(core.ZKind, nx, ny, nz),
		core.New(core.ZTiledKind, nx, ny, nz),
		mustBit(t, nx, ny, nz, "xxyyzzxyzxyzxyzxy"),
	}
	for _, layout := range layouts {
		checkGoldenBilatDtype[uint8](t, layout)
		checkGoldenBilatDtype[uint16](t, layout)
		checkGoldenBilatDtype[float32](t, layout)
		checkGoldenBilatDtype[float64](t, layout)
	}
}

func TestGoldenFloat32Gaussian(t *testing.T) {
	const nx, ny, nz = 40, 36, 28
	base := volume.MRIPhantom(core.NewArrayOrder(nx, ny, nz), 7, 0.05)
	for _, kind := range []core.Kind{core.ArrayKind, core.HilbertKind} {
		src, err := base.Relayout(core.New(kind, nx, ny, nz))
		if err != nil {
			t.Fatal(err)
		}
		for _, noFast := range []bool{false, true} {
			dst := grid.New(core.New(kind, nx, ny, nz))
			if err := filter.GaussianConvolve(src, dst, filter.Options{
				Radius: 2, Axis: parallel.AxisX, Workers: 3, NoFastPath: noFast,
			}); err != nil {
				t.Fatal(err)
			}
			if got := gridDigest(dst); got != goldenGauss {
				t.Errorf("gauss %v nofast=%v: hash %s, want %s", kind, noFast, got, goldenGauss)
			}
		}
	}
}

func TestGoldenFloat32Render(t *testing.T) {
	const vn = 32
	layouts := []core.Layout{
		core.New(core.ZKind, vn, vn, vn),
		core.New(core.HilbertKind, vn, vn, vn),
		// A tuned-shape interleave: the renderer's flat sampling must be
		// bit-identical to the Z-order render of the same volume — the
		// guarantee the /tune endpoint relies on when it swaps layouts.
		mustBit(t, vn, vn, vn, "yzxyzxyzxyzxyzx"),
	}
	for _, layout := range layouts {
		vol := volume.CombustionPlume(layout, 3)
		cam := render.Orbit(1, 8, vn, vn, vn, 64, 64)
		tf := render.DefaultTransferFunc()
		for _, skip := range []bool{false, true} {
			var accel *render.Accel
			if skip {
				accel = render.BuildAccelOf(vol, tf)
			}
			for _, noFast := range []bool{false, true} {
				img, err := render.Render(vol, cam, tf, render.Options{
					Workers: 2, Shade: true, Accel: accel, NoFastPath: noFast,
				})
				if err != nil {
					t.Fatal(err)
				}
				h := sha256.New()
				hashImage(h, img)
				if got := fmt.Sprintf("%x", h.Sum(nil)); got != goldenRender {
					t.Errorf("render %s skip=%v nofast=%v: hash %s, want %s", layout.Name(), skip, noFast, got, goldenRender)
				}
			}
		}
	}
}
