package filter

import (
	"math"
	"testing"

	"sfcmem/internal/core"
	"sfcmem/internal/grid"
	"sfcmem/internal/parallel"
	"sfcmem/internal/volume"
)

// TestNaNVoxel filters an MRI phantom holding one NaN voxel. A NaN
// value difference gets photometric weight 0 instead of indexing the
// weight table at a negative bin, so neither path panics; both paths
// agree bit for bit, and every voxel whose stencil misses the NaN
// keeps exactly its NaN-free output.
func TestNaNVoxel(t *testing.T) {
	const n, ni, nj, nk = 8, 3, 4, 5
	l := core.NewZOrder(n, n, n)
	clean := volume.MRIPhantom(l, 9, 0.05)
	src := volume.MRIPhantom(l, 9, 0.05)
	src.Set(ni, nj, nk, float32(math.NaN()))
	for _, order := range []Order{XYZ, ZYX} {
		o := Options{Radius: 1, Order: order, Axis: parallel.AxisZ, Workers: 2}
		want := grid.New(l)
		if err := Apply(clean, want, o); err != nil {
			t.Fatal(err)
		}
		var outs [2]*grid.Grid[float32]
		for p, noFast := range []bool{false, true} {
			o.NoFastPath = noFast
			outs[p] = grid.New(l)
			if err := Apply(src, outs[p], o); err != nil {
				t.Fatal(err)
			}
		}
		outs[0].ForEachIndex(func(i, j, k int, v float32) {
			if math.Float32bits(v) != math.Float32bits(outs[1].At(i, j, k)) {
				t.Fatalf("%v (%d,%d,%d): flat %v, interface %v", order, i, j, k, v, outs[1].At(i, j, k))
			}
			near := abs(i-ni) <= 1 && abs(j-nj) <= 1 && abs(k-nk) <= 1
			if !near && v != want.At(i, j, k) {
				t.Fatalf("%v (%d,%d,%d) outside the NaN's stencil: %v, want %v", order, i, j, k, v, want.At(i, j, k))
			}
		})
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
