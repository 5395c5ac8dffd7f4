package core

import "sfcmem/internal/morton"

// Neighbor stepping: the O(1)-amortized walk that advances a flat index
// to an axis neighbor instead of re-resolving it through the per-axis
// offset tables (Holzmüller 2017's incremental
// neighbor finding, generalized to ±x/±y/±z).
//
// Three layout families support it:
//
//   - ArrayOrder: a unit step is a constant stride add (1, nx, nx*ny).
//   - ZOrder: the flat index IS the Morton code, so a step is a masked
//     add or subtract in one dilated bit lane — no memory access at all.
//   - ZTiled: the low 3·log2(brick) bits are an intra-brick Morton code,
//     so steps that stay inside a brick are the same masked arithmetic;
//     only a step that crosses a brick face falls back to the per-axis
//     table (two loads, amortized 1/brick of steps).
//
// Tiled stays on the tables: its intra-tile offsets are row-major, so a
// unit step already costs the same as a table delta and there is no
// arithmetic shortcut worth dispatching to. Hilbert and HZ are not even
// separable.
//
// The unchecked Step*/Back* forms are the hot-path primitives; they
// require the destination coordinate to exist inside the grid (stepping
// past an extent edge carries or borrows across the axis lane and
// corrupts the index). The TryStep*/TryBack* forms are the boundary-
// checked variants for walk setup and edge handling: they refuse the
// step, returning the index unchanged and false, instead of corrupting.

// StepMode classifies how a layout's flat index walks to an axis
// neighbor.
type StepMode int

const (
	// StepNone keeps the per-axis offset tables (Tiled, and any layout
	// that does not expose a cheaper walk).
	StepNone StepMode = iota
	// StepStride is ArrayOrder's walk: constant per-axis stride adds.
	StepStride
	// StepMorton is ZOrder's walk: dilated-bit inc/dec on the whole
	// index, valid across the entire padded extent.
	StepMorton
	// StepBrickMorton is ZTiled's walk: dilated-bit inc/dec on the
	// intra-brick Morton bits, with a per-axis table fallback only when
	// a step crosses a brick face.
	StepBrickMorton
	// StepMasked is BitLayout's walk: the same masked carry/borrow
	// arithmetic as StepMorton, but over the layout's own per-axis bit
	// lanes (an arbitrary interleave instead of every third bit).
	StepMasked
)

// StepSpec carries the parameters an inner loop needs to inline a
// layout's neighbor walk, resolved once per layout.
type StepSpec struct {
	Mode StepMode
	// Sx, Sy, Sz are the constant per-axis strides (StepStride only).
	Sx, Sy, Sz int
	// BrickMask is brick-1 (StepBrickMorton only): (i+1)&BrickMask == 0
	// detects a +x brick crossing, i&BrickMask == 0 a -x crossing.
	BrickMask int
	// MX, MY, MZ are the per-axis bit lanes of the flat index
	// (StepMasked only): a ±axis step is morton.IncMask/DecMask over
	// the axis's lane.
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
		return StepSpec{Mode: StepMorton}
	case *ZTiled:
		return StepSpec{Mode: StepBrickMorton, BrickMask: t.brick - 1}
	case *BitLayout:
		return StepSpec{Mode: StepMasked, MX: t.mx, MY: t.my, MZ: t.mz}
	}
	return StepSpec{}
}

// --- ZOrder: pure dilated-bit walk ----------------------------------

// StepX returns the index of (i+1,j,k) given the index of (i,j,k)
// without any table access: a masked add in the dilated x bit lane.
// The caller must ensure i+1 < nx; TryStepX is the checked form.
func (z *ZOrder) StepX(idx int) int { return int(morton.IncX(uint64(idx))) }

// StepY returns the index of (i,j+1,k) given the index of (i,j,k); see
// StepX.
func (z *ZOrder) StepY(idx int) int { return int(morton.IncY(uint64(idx))) }

// StepZ returns the index of (i,j,k+1) given the index of (i,j,k); see
// StepX.
func (z *ZOrder) StepZ(idx int) int { return int(morton.IncZ(uint64(idx))) }

// BackX returns the index of (i-1,j,k) given the index of (i,j,k): the
// masked dilated-bit subtraction. The caller must ensure i > 0;
// TryBackX is the checked form.
func (z *ZOrder) BackX(idx int) int { return int(morton.DecX(uint64(idx))) }

// BackY returns the index of (i,j-1,k) given the index of (i,j,k); see
// BackX.
func (z *ZOrder) BackY(idx int) int { return int(morton.DecY(uint64(idx))) }

// BackZ returns the index of (i,j,k-1) given the index of (i,j,k); see
// BackX.
func (z *ZOrder) BackZ(idx int) int { return int(morton.DecZ(uint64(idx))) }

// TryStepX is the boundary-checked StepX: it refuses (returning idx
// unchanged and false) when the neighbor would leave the logical x
// extent, instead of carrying into padded index space.
func (z *ZOrder) TryStepX(idx int) (int, bool) {
	c, ok := morton.IncXBounded(uint64(idx), uint32(z.nx))
	return int(c), ok
}

// TryStepY is the boundary-checked StepY; see TryStepX.
func (z *ZOrder) TryStepY(idx int) (int, bool) {
	c, ok := morton.IncYBounded(uint64(idx), uint32(z.ny))
	return int(c), ok
}

// TryStepZ is the boundary-checked StepZ; see TryStepX.
func (z *ZOrder) TryStepZ(idx int) (int, bool) {
	c, ok := morton.IncZBounded(uint64(idx), uint32(z.nz))
	return int(c), ok
}

// TryBackX is the boundary-checked BackX: it refuses at i == 0 instead
// of underflowing the lane.
func (z *ZOrder) TryBackX(idx int) (int, bool) {
	c, ok := morton.DecXBounded(uint64(idx))
	return int(c), ok
}

// TryBackY is the boundary-checked BackY; see TryBackX.
func (z *ZOrder) TryBackY(idx int) (int, bool) {
	c, ok := morton.DecYBounded(uint64(idx))
	return int(c), ok
}

// TryBackZ is the boundary-checked BackZ; see TryBackX.
func (z *ZOrder) TryBackZ(idx int) (int, bool) {
	c, ok := morton.DecZBounded(uint64(idx))
	return int(c), ok
}

// --- BitLayout: masked walk over arbitrary interleave lanes ---------

// StepX returns the index of (i+1,j,k) given the index of (i,j,k): the
// masked carry add over the layout's x lane, the direct generalization
// of ZOrder's dilated-bit step to an arbitrary interleave. The caller
// must ensure i+1 < nx (the carry would escape the lane); TryStepX is
// the checked form.
func (b *BitLayout) StepX(idx int) int { return int(morton.IncMask(uint64(idx), b.mx)) }

// StepY returns the index of (i,j+1,k) given the index of (i,j,k); see
// StepX.
func (b *BitLayout) StepY(idx int) int { return int(morton.IncMask(uint64(idx), b.my)) }

// StepZ returns the index of (i,j,k+1) given the index of (i,j,k); see
// StepX.
func (b *BitLayout) StepZ(idx int) int { return int(morton.IncMask(uint64(idx), b.mz)) }

// BackX returns the index of (i-1,j,k) given the index of (i,j,k): the
// masked borrow subtract. The caller must ensure i > 0; TryBackX is the
// checked form.
func (b *BitLayout) BackX(idx int) int { return int(morton.DecMask(uint64(idx), b.mx)) }

// BackY returns the index of (i,j-1,k) given the index of (i,j,k); see
// BackX.
func (b *BitLayout) BackY(idx int) int { return int(morton.DecMask(uint64(idx), b.my)) }

// BackZ returns the index of (i,j,k-1) given the index of (i,j,k); see
// BackX.
func (b *BitLayout) BackZ(idx int) int { return int(morton.DecMask(uint64(idx), b.mz)) }

// TryStepX is the boundary-checked StepX: it refuses (returning idx
// unchanged and false) when the neighbor would leave the logical x
// extent. The bound check gathers the lane (O(spec) bits), which keeps
// it off kernel inner loops — exactly the contract the other layouts'
// Try forms follow.
func (b *BitLayout) TryStepX(idx int) (int, bool) {
	if int(morton.Extract(uint64(idx), b.mx))+1 >= b.nx {
		return idx, false
	}
	return b.StepX(idx), true
}

// TryStepY is the boundary-checked StepY; see TryStepX.
func (b *BitLayout) TryStepY(idx int) (int, bool) {
	if int(morton.Extract(uint64(idx), b.my))+1 >= b.ny {
		return idx, false
	}
	return b.StepY(idx), true
}

// TryStepZ is the boundary-checked StepZ; see TryStepX.
func (b *BitLayout) TryStepZ(idx int) (int, bool) {
	if int(morton.Extract(uint64(idx), b.mz))+1 >= b.nz {
		return idx, false
	}
	return b.StepZ(idx), true
}

// TryBackX is the boundary-checked BackX: it refuses at i == 0 (an
// empty lane) instead of underflowing it.
func (b *BitLayout) TryBackX(idx int) (int, bool) {
	if uint64(idx)&b.mx == 0 {
		return idx, false
	}
	return b.BackX(idx), true
}

// TryBackY is the boundary-checked BackY; see TryBackX.
func (b *BitLayout) TryBackY(idx int) (int, bool) {
	if uint64(idx)&b.my == 0 {
		return idx, false
	}
	return b.BackY(idx), true
}

// TryBackZ is the boundary-checked BackZ; see TryBackX.
func (b *BitLayout) TryBackZ(idx int) (int, bool) {
	if uint64(idx)&b.mz == 0 {
		return idx, false
	}
	return b.BackZ(idx), true
}

// --- ZTiled: intra-brick Morton walk, tables on brick crossings -----

// StepX returns the index of (i+1,j,k) given the index of (i,j,k) and
// the current x coordinate i. Inside a brick it is the same masked
// dilated-bit add as ZOrder (the carry is confined to the intra-brick
// bits because at least one intra-brick x bit is clear); crossing a
// brick face consults the combined per-axis table. The caller must
// ensure i+1 < nx.
func (t *ZTiled) StepX(idx, i int) int {
	if (i+1)&(t.brick-1) != 0 {
		return int(morton.IncX(uint64(idx)))
	}
	return idx + t.xoff[i+1] - t.xoff[i]
}

// StepY is StepX for the y axis.
func (t *ZTiled) StepY(idx, j int) int {
	if (j+1)&(t.brick-1) != 0 {
		return int(morton.IncY(uint64(idx)))
	}
	return idx + t.yoff[j+1] - t.yoff[j]
}

// StepZ is StepX for the z axis.
func (t *ZTiled) StepZ(idx, k int) int {
	if (k+1)&(t.brick-1) != 0 {
		return int(morton.IncZ(uint64(idx)))
	}
	return idx + t.zoff[k+1] - t.zoff[k]
}

// BackX returns the index of (i-1,j,k): a masked dilated-bit subtract
// inside the brick (the borrow stops at an intra-brick x bit because
// i&(brick-1) != 0 guarantees one is set), the table on a brick
// crossing. The caller must ensure i > 0.
func (t *ZTiled) BackX(idx, i int) int {
	if i&(t.brick-1) != 0 {
		return int(morton.DecX(uint64(idx)))
	}
	return idx + t.xoff[i-1] - t.xoff[i]
}

// BackY is BackX for the y axis.
func (t *ZTiled) BackY(idx, j int) int {
	if j&(t.brick-1) != 0 {
		return int(morton.DecY(uint64(idx)))
	}
	return idx + t.yoff[j-1] - t.yoff[j]
}

// BackZ is BackX for the z axis.
func (t *ZTiled) BackZ(idx, k int) int {
	if k&(t.brick-1) != 0 {
		return int(morton.DecZ(uint64(idx)))
	}
	return idx + t.zoff[k-1] - t.zoff[k]
}

// TryStepX is the boundary-checked StepX; it refuses at the logical x
// extent edge.
func (t *ZTiled) TryStepX(idx, i int) (int, bool) {
	if i+1 >= t.nx {
		return idx, false
	}
	return t.StepX(idx, i), true
}

// TryStepY is the boundary-checked StepY; see TryStepX.
func (t *ZTiled) TryStepY(idx, j int) (int, bool) {
	if j+1 >= t.ny {
		return idx, false
	}
	return t.StepY(idx, j), true
}

// TryStepZ is the boundary-checked StepZ; see TryStepX.
func (t *ZTiled) TryStepZ(idx, k int) (int, bool) {
	if k+1 >= t.nz {
		return idx, false
	}
	return t.StepZ(idx, k), true
}

// TryBackX is the boundary-checked BackX; it refuses at i == 0.
func (t *ZTiled) TryBackX(idx, i int) (int, bool) {
	if i <= 0 {
		return idx, false
	}
	return t.BackX(idx, i), true
}

// TryBackY is the boundary-checked BackY; see TryBackX.
func (t *ZTiled) TryBackY(idx, j int) (int, bool) {
	if j <= 0 {
		return idx, false
	}
	return t.BackY(idx, j), true
}

// TryBackZ is the boundary-checked BackZ; see TryBackX.
func (t *ZTiled) TryBackZ(idx, k int) (int, bool) {
	if k <= 0 {
		return idx, false
	}
	return t.BackZ(idx, k), true
}
