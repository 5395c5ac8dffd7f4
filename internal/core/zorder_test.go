package core

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"sfcmem/internal/morton"
)

// zorderExtents mixes cubes, non-power-of-two, anisotropic and
// degenerate grids: the cases where a round-robin interleave and the
// per-axis dilated tables of the paper could first disagree.
var zorderExtents = [][3]int{
	{1, 1, 1}, {13, 6, 9}, {17, 17, 17}, {2, 1, 64}, {32, 32, 32}, {5, 6, 7}, {1, 300, 3},
}

// TestZOrderMatchesEncode3 pins ZOrder's index to the magic-bit Morton
// reference for every cell.
func TestZOrderMatchesEncode3(t *testing.T) {
	for _, e := range zorderExtents {
		z := NewZOrder(e[0], e[1], e[2])
		for k := 0; k < e[2]; k++ {
			for j := 0; j < e[1]; j++ {
				for i := 0; i < e[0]; i++ {
					want := int(morton.Encode3(uint32(i), uint32(j), uint32(k)))
					if got := z.Index(i, j, k); got != want {
						t.Fatalf("%v: Index(%d,%d,%d) = %d, Encode3 %d", e, i, j, k, got, want)
					}
				}
			}
		}
	}
}

// TestZOrderLenIsFarCornerPlusOne pins the padded length: one past the
// far corner's code, dense on cubic power-of-two grids.
func TestZOrderLenIsFarCornerPlusOne(t *testing.T) {
	for _, e := range zorderExtents {
		z := NewZOrder(e[0], e[1], e[2])
		want := int(morton.Encode3(uint32(e[0]-1), uint32(e[1]-1), uint32(e[2]-1))) + 1
		if z.Len() != want {
			t.Errorf("%v: Len = %d, want %d", e, z.Len(), want)
		}
		if e[0] == e[1] && e[1] == e[2] && morton.NextPow2(e[0]) == e[0] && z.Len() != e[0]*e[1]*e[2] {
			t.Errorf("%v: Len = %d, want dense %d", e, z.Len(), e[0]*e[1]*e[2])
		}
	}
}

// TestZOrderCoordsRoundTrip checks that Coords inverts Index on every
// cell and, over the whole buffer of the smaller grids, that exactly the
// offsets no cell maps to are flagged as padding.
func TestZOrderCoordsRoundTrip(t *testing.T) {
	for _, e := range zorderExtents {
		z := NewZOrder(e[0], e[1], e[2])
		live := 0
		for k := 0; k < e[2]; k++ {
			for j := 0; j < e[1]; j++ {
				for i := 0; i < e[0]; i++ {
					gi, gj, gk, ok := z.Coords(z.Index(i, j, k))
					if !ok || gi != i || gj != j || gk != k {
						t.Fatalf("%v: Coords(Index(%d,%d,%d)) = (%d,%d,%d,%v)", e, i, j, k, gi, gj, gk, ok)
					}
					live++
				}
			}
		}
		if z.Len() > 1<<16 {
			continue
		}
		flagged := 0
		for idx := 0; idx < z.Len(); idx++ {
			i, j, k, ok := z.Coords(idx)
			if !ok {
				continue
			}
			flagged++
			if z.Index(i, j, k) != idx {
				t.Fatalf("%v: Index(Coords(%d)) = %d", e, idx, z.Index(i, j, k))
			}
		}
		if flagged != live {
			t.Errorf("%v: %d offsets decode to cells, want %d (the rest are padding)", e, flagged, live)
		}
	}
}

// TestZOrderIsRoundRobinBitLayout pins what Z order is made of: the
// "xyz"-repeated interleave with Morton's lanes, under its own registry
// name whichever way it is constructed.
func TestZOrderIsRoundRobinBitLayout(t *testing.T) {
	z := NewZOrder(5, 6, 7)
	if nx, ny, nz := z.Dims(); nx != 5 || ny != 6 || nz != 7 {
		t.Errorf("Dims = %d,%d,%d, want 5,6,7", nx, ny, nz)
	}
	if z.Spec() != "xyzxyzxyz" {
		t.Errorf("Spec = %q, want xyzxyzxyz", z.Spec())
	}
	const lanes = 1<<9 - 1 // three bits per axis: the 8³ padded index space
	if mx, my, mz := z.Masks(); mx != morton.XMask&lanes || my != morton.YMask&lanes || mz != morton.ZMask&lanes {
		t.Errorf("Masks = %#b, %#b, %#b, want Morton lanes", mx, my, mz)
	}
	if one := NewZOrder(1, 1, 1); one.Spec() != "x" || one.Len() != 1 {
		t.Errorf("1³: Spec %q, Len %d; want x, 1", one.Spec(), one.Len())
	}
	parsed, err := ParseSpec("zorder", 13, 6, 9)
	if err != nil {
		t.Fatalf("ParseSpec(zorder): %v", err)
	}
	for _, l := range []Layout{z, parsed, New(ZKind, 13, 6, 9)} {
		if l.Name() != "zorder" {
			t.Errorf("%T Name = %q, want zorder", l, l.Name())
		}
	}
}

// TestNewZOrderPanics checks that extents the 63-bit index cannot hold
// panic before any table is built, with a message naming the extent.
func TestNewZOrderPanics(t *testing.T) {
	for _, bad := range [][3]int{{0, 1, 1}, {1, -1, 1}, {1, 1, morton.Max3 + 2}} {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		var r any
		func() {
			defer func() { r = recover() }()
			NewZOrder(bad[0], bad[1], bad[2])
		}()
		runtime.ReadMemStats(&ms)
		if r == nil {
			t.Errorf("NewZOrder(%v) did not panic", bad)
			continue
		}
		if big := bad[2]; big > morton.Max3 && !strings.Contains(fmt.Sprint(r), fmt.Sprint(big)) {
			t.Errorf("NewZOrder(%v) panic %q does not name the extent", bad, r)
		}
		// One 2²¹-entry offset table alone is 16 MiB.
		if grew := ms.TotalAlloc - before; grew > 1<<20 {
			t.Errorf("NewZOrder(%v) allocated %d bytes before panicking", bad, grew)
		}
	}
}
