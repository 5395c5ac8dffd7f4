package core

import "sfcmem/internal/morton"

// Neighbor stepping: advancing a flat index to its +x neighbor without
// re-resolving it through the per-axis offset tables (Holzmüller 2017's
// incremental neighbor finding, one masked-carry scheme for the whole
// generalized-Morton family):
//
//   - ArrayOrder: a unit step is a constant stride add (1, nx, nx*ny).
//   - BitLayout (and ZOrder, its round-robin instance): the flat index
//     IS the interleaved code, so a step is a masked carry add in the
//     axis's bit lane (morton.IncMask) — no memory access at all.
//   - ZTiled: the low 3·log2(brick) bits are an intra-brick Morton code,
//     so a step that stays inside a brick is the same masked arithmetic;
//     only a step that crosses a brick face falls back to the per-axis
//     table (two loads, amortized 1/brick of steps).
//
// Tiled stays on the tables: its intra-tile offsets are row-major, so a
// unit step already costs the same as a table delta. Hilbert and HZ are
// not even separable.
//
// No kernel steps any more (the bilateral filter gathers whole rows
// through the offset tables, DESIGN.md §13); StepSpecFor and StepX stay
// as the measured primitive behind the benchmark's per-layer step probe.
// StepX requires the destination coordinate to exist inside the grid:
// stepping past an extent edge carries across the axis lane and
// corrupts the index.

// StepMode classifies how a layout's flat index walks to an axis
// neighbor.
type StepMode int

const (
	// StepNone keeps the per-axis offset tables (Tiled, and any layout
	// that does not expose a cheaper walk).
	StepNone StepMode = iota
	// StepStride is ArrayOrder's walk: constant per-axis stride adds.
	StepStride
	// StepBrickMorton is ZTiled's walk: dilated-bit increments on the
	// intra-brick Morton bits, with a per-axis table fallback only when
	// a step crosses a brick face.
	StepBrickMorton
	// StepMasked is BitLayout's (and so ZOrder's) walk: masked
	// carry arithmetic over the layout's own per-axis bit lanes.
	StepMasked
)

// StepSpec carries the parameters an inner loop needs to inline a
// layout's neighbor walk, resolved once per layout.
type StepSpec struct {
	Mode StepMode
	// Sx, Sy, Sz are the constant per-axis strides (StepStride only).
	Sx, Sy, Sz int
	// BrickMask is brick-1 (StepBrickMorton only): (i+1)&BrickMask == 0
	// detects a +x brick crossing.
	BrickMask int
	// MX, MY, MZ are the per-axis bit lanes of the flat index
	// (StepMasked only): a +axis step is morton.IncMask over the axis's
	// lane.
	MX, MY, MZ uint64
}

// StepSpecFor resolves the neighbor-stepping recipe for a layout.
// Layouts without a walk (Tiled, Hilbert, HZ) get StepNone: callers
// resolve neighbors through the offset tables or Index instead.
func StepSpecFor(l Layout) StepSpec {
	switch t := l.(type) {
	case *ArrayOrder:
		sx, sy, sz := t.Strides()
		return StepSpec{Mode: StepStride, Sx: sx, Sy: sy, Sz: sz}
	case *ZOrder:
		return StepSpecFor(&t.BitLayout)
	case *ZTiled:
		return StepSpec{Mode: StepBrickMorton, BrickMask: t.brick - 1}
	case *BitLayout:
		return StepSpec{Mode: StepMasked, MX: t.mx, MY: t.my, MZ: t.mz}
	}
	return StepSpec{}
}

// StepX returns the index of (i+1,j,k) given the index of (i,j,k): the
// masked carry add over the layout's x lane. The caller must ensure
// i+1 < nx (the carry would escape the lane).
func (b *BitLayout) StepX(idx int) int { return int(morton.IncMask(uint64(idx), b.mx)) }

// StepX returns the index of (i+1,j,k) given the index of (i,j,k) and
// the current x coordinate i. Inside a brick it is the masked add over
// the dilated x lane (the carry is confined to the intra-brick bits
// because at least one intra-brick x bit is clear); crossing a brick
// face consults the combined per-axis table. The caller must ensure
// i+1 < nx.
func (t *ZTiled) StepX(idx, i int) int {
	if (i+1)&(t.brick-1) != 0 {
		return int(morton.IncMask(uint64(idx), morton.XMask))
	}
	return idx + t.xoff[i+1] - t.xoff[i]
}
