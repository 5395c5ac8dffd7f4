package core

import (
	"testing"

	"sfcmem/internal/morton"
)

// separableKinds are the layouts that must implement Separable; Hilbert
// and HZ order are excluded by design (cross-coordinate dependencies).
var separableKinds = []Kind{ArrayKind, ZKind, TiledKind, ZTiledKind}

func TestAxisOffsetsMatchIndex(t *testing.T) {
	// Non-cubic, non-power-of-two extents so padding paths are exercised.
	const nx, ny, nz = 13, 6, 9
	for _, kind := range separableKinds {
		l := New(kind, nx, ny, nz)
		sep, ok := l.(Separable)
		if !ok {
			t.Fatalf("%v: does not implement Separable", kind)
		}
		xs, ys, zs := sep.AxisOffsets()
		if len(xs) != nx || len(ys) != ny || len(zs) != nz {
			t.Fatalf("%v: table lengths %d/%d/%d, want %d/%d/%d",
				kind, len(xs), len(ys), len(zs), nx, ny, nz)
		}
		for k := 0; k < nz; k++ {
			for j := 0; j < ny; j++ {
				for i := 0; i < nx; i++ {
					if got, want := xs[i]+ys[j]+zs[k], l.Index(i, j, k); got != want {
						t.Fatalf("%v: offsets(%d,%d,%d) = %d, Index = %d",
							kind, i, j, k, got, want)
					}
				}
			}
		}
	}
}

func TestNonSeparableKindsExcluded(t *testing.T) {
	for _, kind := range []Kind{HilbertKind, HZKind} {
		if _, ok := New(kind, 8, 8, 8).(Separable); ok {
			t.Errorf("%v: claims Separable but its index is not axis-separable", kind)
		}
	}
}

func TestArrayOrderStrides(t *testing.T) {
	a := NewArrayOrder(7, 5, 3)
	sx, sy, sz := a.Strides()
	for k := 0; k < 3; k++ {
		for j := 0; j < 5; j++ {
			for i := 0; i < 7; i++ {
				idx := a.Index(i, j, k)
				if i+1 < 7 && a.Index(i+1, j, k) != idx+sx {
					t.Fatalf("x stride broken at (%d,%d,%d)", i, j, k)
				}
				if j+1 < 5 && a.Index(i, j+1, k) != idx+sy {
					t.Fatalf("y stride broken at (%d,%d,%d)", i, j, k)
				}
				if k+1 < 3 && a.Index(i, j, k+1) != idx+sz {
					t.Fatalf("z stride broken at (%d,%d,%d)", i, j, k)
				}
			}
		}
	}
}

// TestZOrderSteppers walks a padded Z-order grid: StepX, and the masked
// y/z increments its StepSpec describes, must agree with Index on every
// in-grid step.
func TestZOrderSteppers(t *testing.T) {
	z := NewZOrder(12, 8, 5)
	s := StepSpecFor(z)
	for k := 0; k < 5; k++ {
		for j := 0; j < 8; j++ {
			for i := 0; i < 12; i++ {
				idx := z.Index(i, j, k)
				if i+1 < 12 && z.StepX(idx) != z.Index(i+1, j, k) {
					t.Fatalf("StepX broken at (%d,%d,%d)", i, j, k)
				}
				if j+1 < 8 && int(morton.IncMask(uint64(idx), s.MY)) != z.Index(i, j+1, k) {
					t.Fatalf("+y step broken at (%d,%d,%d)", i, j, k)
				}
				if k+1 < 5 && int(morton.IncMask(uint64(idx), s.MZ)) != z.Index(i, j, k+1) {
					t.Fatalf("+z step broken at (%d,%d,%d)", i, j, k)
				}
			}
		}
	}
}

func TestAxisOffsetDeltasAreStrideDeltas(t *testing.T) {
	// The flat fast path advances an index by table deltas
	// (xs[i+1]-xs[i], ...); verify the deltas reproduce Index exactly for
	// every separable layout, which is the incremental-update contract.
	const nx, ny, nz = 10, 10, 10
	for _, kind := range separableKinds {
		l := New(kind, nx, ny, nz)
		xs, ys, zs := l.(Separable).AxisOffsets()
		for k := 0; k < nz-1; k++ {
			for j := 0; j < ny-1; j++ {
				for i := 0; i < nx-1; i++ {
					idx := l.Index(i, j, k)
					if idx+xs[i+1]-xs[i] != l.Index(i+1, j, k) ||
						idx+ys[j+1]-ys[j] != l.Index(i, j+1, k) ||
						idx+zs[k+1]-zs[k] != l.Index(i, j, k+1) {
						t.Fatalf("%v: delta step broken at (%d,%d,%d)", kind, i, j, k)
					}
				}
			}
		}
	}
}
