package filter

import (
	"context"
	"testing"

	"sfcmem/internal/core"
	"sfcmem/internal/grid"
	"sfcmem/internal/parallel"
	"sfcmem/internal/volume"
)

// gauntletWorkers are the worker counts every kernel check runs: one
// worker walks consecutive pencils (maximal row reuse); two, three and
// five stride by fewer than, exactly and more than the r1 stencil edge,
// so row reuse is exercised across worker striding and plane wraps.
var gauntletWorkers = []int{1, 2, 3, 5}

// checkKernel runs the bilateral filter from src into a fresh dstL grid
// on the flat fast path, for every pencil axis and gauntlet worker
// count, and compares each result bit for bit with the interface path.
// The interface path computes each voxel on its own, so its output
// depends on neither the axis nor the worker count and runs once.
func checkKernel[T grid.Scalar](t *testing.T, src *grid.Grid[T], dstL core.Layout, radius int, order Order) {
	t.Helper()
	iface := grid.NewOf[T](dstL)
	o := Options{Radius: radius, Order: order, NoFastPath: true}
	if err := ApplyCtxOf[T](context.Background(), src, iface, o); err != nil {
		t.Fatal(err)
	}
	o.NoFastPath = false
	for _, axis := range []parallel.Axis{parallel.AxisX, parallel.AxisY, parallel.AxisZ} {
		for _, workers := range gauntletWorkers {
			o.Axis, o.Workers = axis, workers
			flat := grid.NewOf[T](dstL)
			if err := ApplyCtxOf[T](context.Background(), src, flat, o); err != nil {
				t.Fatal(err)
			}
			if !grid.Equal(flat, iface) {
				t.Errorf("%s -> %s/%v/r%d/%v/p%v/w%d: flat kernel disagrees with interface path",
					src.Layout().Name(), dstL.Name(), grid.DtypeFor[T](), radius, order, axis, workers)
			}
		}
	}
}

// checkKernelLayout is checkKernel over an MRI phantom in layout l,
// filtered into the same layout, for both stencil orders.
func checkKernelLayout[T grid.Scalar](t *testing.T, l core.Layout, radius int) {
	t.Helper()
	src := volume.MRIPhantomOf[T](l, 17, 0.05)
	for _, order := range []Order{XYZ, ZYX} {
		checkKernel(t, src, l, radius, order)
	}
}

// gauntletLayouts are the geometries the kernel gauntlet runs: every
// separable layout family, with extents chosen so the offset tables
// are irregular — partial ZTiled and Tiled bricks on every axis, Z
// order padded to a power of two, a generalized interleave, and a
// volume thinner than the stencil on every axis.
func gauntletLayouts(t *testing.T) []core.Layout {
	bit, err := core.NewBitLayout(13, 6, 9, "xxyyzzxyzxz")
	if err != nil {
		t.Fatal(err)
	}
	return []core.Layout{
		core.NewArrayOrder(13, 6, 9),
		core.NewZOrder(13, 6, 9), // pads to 16x8x16
		core.NewTiled(11, 9, 10, 4),
		core.NewZTiled(11, 9, 10, 4), // partial bricks on all axes
		core.NewZTiled(8, 12, 8, 8),  // pencils cross one brick face
		bit,
		core.NewArrayOrder(3, 2, 4), // every voxel is a pencil end
	}
}

// TestStepperEdgeGeometry is the kernel's geometry gauntlet for
// float32: every gauntlet layout, radius 1 to 3, both stencil orders,
// and (through checkKernel) every pencil axis and worker count. (The
// Stepper tests keep the names of the neighbor-stepping kernels they
// were written against.)
func TestStepperEdgeGeometry(t *testing.T) {
	for _, l := range gauntletLayouts(t) {
		for radius := 1; radius <= 3; radius++ {
			checkKernelLayout[float32](t, l, radius)
		}
	}
}

// TestStepperEdgeGeometryDtypes runs the gauntlet for the other element
// types: integer dtypes round on store and normalize through a scale
// other than 1, and float64 widens nothing on load.
func TestStepperEdgeGeometryDtypes(t *testing.T) {
	for _, l := range gauntletLayouts(t) {
		checkKernelLayout[uint8](t, l, 2)
		checkKernelLayout[uint16](t, l, 1)
		checkKernelLayout[float64](t, l, 3)
	}
}

// TestStepperRadiusExceedsBrick pins a stencil wider than a whole brick
// (radius 5 over brick 4): every row of the cache gathers across
// several brick faces, and every pencil's stencil spans more rows than
// one brick holds.
func TestStepperRadiusExceedsBrick(t *testing.T) {
	l := core.NewZTiled(14, 12, 9, 4)
	src := volume.MRIPhantomOf[float32](l, 17, 0.05)
	checkKernel(t, src, l, 5, XYZ)
	checkKernel(t, src, l, 5, ZYX)
}

// TestStepperBrickOne is the degenerate brick==1 ZTiled, whose offset
// tables are plain Morton tables.
func TestStepperBrickOne(t *testing.T) {
	checkKernelLayout[float32](t, core.NewZTiled(7, 6, 5, 1), 2)
}

// TestStepperTiledStaysOnTables pins Tiled, the layout without a
// neighbor step: the flat kernel gathers its rows through the offset
// tables like every other separable layout.
func TestStepperTiledStaysOnTables(t *testing.T) {
	checkKernelLayout[uint8](t, core.NewTiled(11, 9, 10, 4), 3)
}

// TestStepperMixedLayouts filters from one layout into a destination
// with a different one: the row cache gathers through the source's
// tables while the pencil writes through the destination's.
func TestStepperMixedLayouts(t *testing.T) {
	const nx, ny, nz = 11, 9, 10
	src := volume.MRIPhantomOf[float32](core.NewZTiled(nx, ny, nz, 4), 23, 0.05)
	for _, dstL := range []core.Layout{
		core.NewArrayOrder(nx, ny, nz),
		core.NewZOrder(nx, ny, nz),
		core.NewTiled(nx, ny, nz, 4),
	} {
		checkKernel(t, src, dstL, 2, XYZ)
	}
}
