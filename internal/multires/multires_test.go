package multires

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"sfcmem/internal/core"
	"sfcmem/internal/grid"
	"sfcmem/internal/volume"
)

func coordGrid(kind core.Kind, n int) *grid.Grid[float32] {
	return grid.FromFunc(core.New(kind, n, n, n), func(i, j, k int) float32 {
		return float32(i + j*1000 + k*1000000)
	})
}

func TestSubsampleLevel0IsCopy(t *testing.T) {
	src := coordGrid(core.ZKind, 8)
	out, err := Subsample(src, 0, func(nx, ny, nz int) core.Layout {
		return core.NewArrayOrder(nx, ny, nz)
	})
	if err != nil {
		t.Fatal(err)
	}
	if !grid.Equal(src, out) {
		t.Error("level 0 subsample is not the identity")
	}
}

func TestSubsampleStride(t *testing.T) {
	src := coordGrid(core.ArrayKind, 9) // odd extent: ceil(9/2)=5, ceil(9/4)=3
	for _, tc := range []struct{ level, dim int }{{1, 5}, {2, 3}, {3, 2}} {
		out, err := Subsample(src, tc.level, func(nx, ny, nz int) core.Layout {
			return core.NewZOrder(nx, ny, nz)
		})
		if err != nil {
			t.Fatal(err)
		}
		ox, oy, oz := out.Dims()
		if ox != tc.dim || oy != tc.dim || oz != tc.dim {
			t.Fatalf("level %d dims %dx%dx%d, want %d³", tc.level, ox, oy, oz, tc.dim)
		}
		s := 1 << tc.level
		for k := 0; k < oz; k++ {
			for j := 0; j < oy; j++ {
				for i := 0; i < ox; i++ {
					if out.At(i, j, k) != src.At(i*s, j*s, k*s) {
						t.Fatalf("level %d sample (%d,%d,%d) wrong", tc.level, i, j, k)
					}
				}
			}
		}
	}
	if _, err := Subsample(src, -1, nil); err == nil {
		t.Error("negative level accepted")
	}
}

func TestSliceCostArrayOrderAnisotropy(t *testing.T) {
	// Array order: an xy slice (z fixed) is one contiguous slab — few
	// pages; a yz slice (x fixed) touches every row — one line per
	// sample and a span covering the whole buffer.
	const n = 64
	a := core.NewArrayOrder(n, n, n)
	xy, err := SliceCost(a, SliceZ, n/2, 0)
	if err != nil {
		t.Fatal(err)
	}
	yz, err := SliceCost(a, SliceX, n/2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if xy.Samples != n*n || yz.Samples != n*n {
		t.Fatalf("sample counts %d/%d", xy.Samples, yz.Samples)
	}
	// xy slice: n*n*4 bytes contiguous → n*n*4/64 lines.
	if xy.Lines != n*n*4/64 {
		t.Errorf("xy slice lines %d, want %d", xy.Lines, n*n*4/64)
	}
	// yz slice: every sample on its own line.
	if yz.Lines != n*n {
		t.Errorf("yz slice lines %d, want %d", yz.Lines, n*n)
	}
	if yz.Span <= xy.Span {
		t.Errorf("yz span %d should exceed xy span %d", yz.Span, xy.Span)
	}
}

func TestSliceCostZOrderBalanced(t *testing.T) {
	// Z order: slice cost is orientation-independent by symmetry, and
	// its worst orientation touches far fewer pages than array order's.
	const n = 64
	z := core.NewZOrder(n, n, n)
	a := core.NewArrayOrder(n, n, n)
	var zWorst, aWorst int
	for _, ax := range []SliceAxis{SliceX, SliceY, SliceZ} {
		zc, err := SliceCost(z, ax, n/2, 0)
		if err != nil {
			t.Fatal(err)
		}
		ac, err := SliceCost(a, ax, n/2, 0)
		if err != nil {
			t.Fatal(err)
		}
		if zc.Pages > zWorst {
			zWorst = zc.Pages
		}
		if ac.Pages > aWorst {
			aWorst = ac.Pages
		}
	}
	if zWorst >= aWorst {
		t.Errorf("zorder worst-slice pages %d not below array %d", zWorst, aWorst)
	}
}

func TestSubsampleCostHZContiguousPrefix(t *testing.T) {
	// An instructive negative result first: *plain* Z order does not
	// help coarse subsampling — its strided lattice lands one sample per
	// line, like (or worse than) array order. The hierarchical win of
	// ref [7] needs the HZ reordering, whose level-L lattice is a
	// contiguous prefix: minimal span, minimal pages.
	const n = 64
	a := core.NewArrayOrder(n, n, n)
	z := core.NewZOrder(n, n, n)
	hz := core.NewHZOrder(n, n, n)
	ac, err := SubsampleCost(a, 2)
	if err != nil {
		t.Fatal(err)
	}
	zc, err := SubsampleCost(z, 2)
	if err != nil {
		t.Fatal(err)
	}
	hc, err := SubsampleCost(hz, 2)
	if err != nil {
		t.Fatal(err)
	}
	if hc.Samples != 16*16*16 || ac.Samples != hc.Samples || zc.Samples != hc.Samples {
		t.Fatalf("sample counts %d/%d/%d", ac.Samples, zc.Samples, hc.Samples)
	}
	// HZ: the 4096-sample lattice is the first 4096 elements = 16KB.
	if hc.Span != 4096*4 {
		t.Errorf("hz span %d bytes, want %d (contiguous prefix)", hc.Span, 4096*4)
	}
	if hc.Pages != 4096*4/4096 {
		t.Errorf("hz pages %d, want %d", hc.Pages, 4)
	}
	// Plain layouts stride across (nearly) the whole buffer.
	if ac.Span < n*n*n*4/2 || zc.Span < n*n*n*4/2 {
		t.Errorf("plain spans implausibly small: array %d, zorder %d", ac.Span, zc.Span)
	}
	if hc.Pages >= ac.Pages || hc.Pages >= zc.Pages {
		t.Errorf("hz pages %d not below array %d / zorder %d", hc.Pages, ac.Pages, zc.Pages)
	}
	if _, err := SubsampleCost(z, -1); err == nil {
		t.Error("negative level accepted")
	}
}

func TestSliceCostValidation(t *testing.T) {
	l := core.NewArrayOrder(4, 4, 4)
	if _, err := SliceCost(l, SliceY, 9, 0); err == nil {
		t.Error("out-of-range accepted")
	}
	if _, err := SliceCost(l, SliceAxis(7), 0, 0); err == nil {
		t.Error("bad axis accepted")
	}
}

func TestSubsampleOnRealVolume(t *testing.T) {
	src := volume.MRIPhantom(core.NewZOrder(16, 16, 16), 1, 0)
	out, err := Subsample(src, 1, func(nx, ny, nz int) core.Layout {
		return core.NewZOrder(nx, ny, nz)
	})
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := out.MinMax()
	if lo < 0 || hi > 1 || hi == 0 {
		t.Errorf("subsample range [%v,%v]", lo, hi)
	}
}

// hashGrid hashes a grid's sample buffer as little-endian bytes, the
// same canonical form the PR 4 kernel goldens use.
func hashGrid[T grid.Scalar](t *testing.T, g *grid.Grid[T]) string {
	t.Helper()
	var buf bytes.Buffer
	if err := binary.Write(&buf, binary.LittleEndian, g.Data()); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:])
}

// checkSubsampleDtype exercises the generic Subsample at one element
// type: every output sample must be bit-identical to its source lattice
// point (subsampling does no arithmetic), and the whole output buffer
// must match a pinned golden hash so a future refactor cannot quietly
// introduce conversion or rounding.
func checkSubsampleDtype[T grid.Scalar](t *testing.T, golden string) {
	src := volume.MRIPhantomOf[T](core.NewZOrder(16, 16, 16), 7, 0.05)
	out, err := Subsample(src, 1, func(nx, ny, nz int) core.Layout {
		return core.NewZOrder(nx, ny, nz)
	})
	if err != nil {
		t.Fatal(err)
	}
	ox, oy, oz := out.Dims()
	if ox != 8 || oy != 8 || oz != 8 {
		t.Fatalf("dims %dx%dx%d, want 8³", ox, oy, oz)
	}
	for k := 0; k < oz; k++ {
		for j := 0; j < oy; j++ {
			for i := 0; i < ox; i++ {
				if out.At(i, j, k) != src.At(i*2, j*2, k*2) {
					t.Fatalf("sample (%d,%d,%d) not bit-identical to source", i, j, k)
				}
			}
		}
	}
	if got := hashGrid(t, out); got != golden {
		t.Errorf("golden hash %s, want %s", got, golden)
	}
}

func TestSubsampleGoldenPerDtype(t *testing.T) {
	t.Run("uint8", func(t *testing.T) {
		checkSubsampleDtype[uint8](t, "f2306e6dcd33d19a51f0dd3605b2607a54f875964d22a51309f34be9186fdbf6")
	})
	t.Run("uint16", func(t *testing.T) {
		checkSubsampleDtype[uint16](t, "9056526f215a63ecdab840d2783288f07a5608d9f0a93c97e5d14132f3ca6086")
	})
	t.Run("float32", func(t *testing.T) {
		checkSubsampleDtype[float32](t, "8a0ce5cf1d2e408c3aa40621ddb22c9ced56d32093ad70754e3cc634709abd28")
	})
	t.Run("float64", func(t *testing.T) {
		checkSubsampleDtype[float64](t, "34b5cd7358d641720d7b349249c06e0c796145ba7a481ae77b9e4f63ba9c3478")
	})
}

func TestSliceAxisString(t *testing.T) {
	if SliceX.String() != "yz@x" || SliceY.String() != "xz@y" || SliceZ.String() != "xy@z" {
		t.Error("axis names wrong")
	}
}
