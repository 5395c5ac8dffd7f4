package core

import (
	"math/bits"

	"sfcmem/internal/morton"
)

// HZOrder is the hierarchical Z-order layout of Pascucci & Frank 2001
// (the paper's ref [7]). Samples are Morton-indexed but regrouped by
// resolution level — the level of a sample is the number of trailing
// zeros of its Morton code — so that every power-of-two subsampling
// lattice occupies a *contiguous prefix* of the buffer:
//
//	hz(0) = 0
//	hz(m) = 2^(B-t-1) + (m >> (t+1))   for m > 0, t = trailing zeros of m
//
// with B the total Morton bits. This is what gives ref [7] its
// progressive out-of-core access: reading resolution level L means
// reading the first 2^(B-3L) elements, not striding across the file.
// The cost is a slightly heavier Index (a Morton lookup plus trailing-
// zero arithmetic) and the same power-of-two cube padding as Hilbert.
type HZOrder struct {
	z          *ZOrder // the Morton code (and its inverse) of a sample
	nx, ny, nz int
	totalBits  uint
	length     int
}

// NewHZOrder builds an HZ-order layout; the buffer is padded to the
// enclosing power-of-two cube.
func NewHZOrder(nx, ny, nz int) *HZOrder {
	checkDims(nx, ny, nz)
	side := morton.NextPow2(max(nx, ny, nz))
	b := uint(morton.Log2(side))
	return &HZOrder{
		z:  NewZOrder(nx, ny, nz),
		nx: nx, ny: ny, nz: nz,
		totalBits: 3 * b,
		length:    1 << (3 * b),
	}
}

// Index returns the HZ index of (i,j,k).
func (h *HZOrder) Index(i, j, k int) int {
	m := uint64(h.z.Index(i, j, k))
	if m == 0 {
		return 0
	}
	t := uint(bits.TrailingZeros64(m))
	return int(1<<(h.totalBits-t-1) + (m >> (t + 1)))
}

// Coords inverts the HZ index; padding offsets (coordinates outside the
// logical extents) report ok == false.
func (h *HZOrder) Coords(idx int) (i, j, k int, ok bool) {
	var m uint64
	if idx > 0 {
		hb := uint(bits.Len64(uint64(idx)) - 1) // highest set bit
		t := h.totalBits - hb - 1
		m = (uint64(idx)-1<<hb)<<(t+1) | 1<<t
	}
	return h.z.Coords(int(m))
}

// Dims returns the logical grid extents.
func (h *HZOrder) Dims() (nx, ny, nz int) { return h.nx, h.ny, h.nz }

// Len returns the padded cube volume.
func (h *HZOrder) Len() int { return h.length }

// Name returns "hzorder".
func (h *HZOrder) Name() string { return "hzorder" }

// LevelPrefix returns how many leading buffer elements hold the
// complete level-L subsampling lattice (stride 2^L per axis) of the
// padded cube: 2^(B-3L), clamped to at least 1. This contiguous-prefix
// property is the point of the layout.
func (h *HZOrder) LevelPrefix(level int) int {
	if level < 0 {
		panic("core: level must be >= 0")
	}
	shift := 3 * uint(level)
	if shift >= h.totalBits {
		return 1
	}
	return 1 << (h.totalBits - shift)
}

var _ Inverse = (*HZOrder)(nil)
