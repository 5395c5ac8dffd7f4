package morton

// Dilated-bit arithmetic over arbitrary axis masks. Z order is the
// special case where each axis owns every third bit (XMask, YMask,
// ZMask); a generalized bit-interleave layout (core.BitLayout) assigns
// axes to bit positions freely, so its per-axis masks are arbitrary —
// but the same carry trick works for any mask: flood the non-mask bits
// with ones so an add carries straight through them, then splice the
// untouched axes back in.
//
// Deposit/Extract are the software forms of the BMI2 PDEP/PEXT
// instructions; they are O(popcount(mask)) loops and are used at layout
// construction and in inversion, never in kernel inner loops (those use
// precomputed deposit tables).

// Deposit scatters the low bits of v into the set positions of mask
// (software PDEP): bit b of v lands at the position of the b-th set bit
// of mask, counting from the least significant. Bits of v beyond
// popcount(mask) are dropped.
func Deposit(v, mask uint64) uint64 {
	var out uint64
	for m := mask; m != 0; m &= m - 1 {
		if v&1 != 0 {
			out |= m & -m
		}
		v >>= 1
	}
	return out
}

// Extract gathers the bits of v at the set positions of mask into a
// dense low-bit integer (software PEXT): the inverse of Deposit, so
// Extract(Deposit(v, m), m) == v for v < 1<<popcount(m) and
// Deposit(Extract(u, m), m) == u&m.
func Extract(v, mask uint64) uint64 {
	var out uint64
	b := 0
	for m := mask; m != 0; m &= m - 1 {
		if v&(m&-m) != 0 {
			out |= 1 << b
		}
		b++
	}
	return out
}

// IncMask returns the code of the axis neighbor one step up the lane
// selected by mask: non-mask bits are flooded with ones so adding the
// mask's lowest bit carries through any gap between the lane's bits,
// then the other axes' bits are spliced back unchanged. The caller must
// ensure the lane is not already at its maximum coordinate (the carry
// would escape the lane).
func IncMask(code, mask uint64) uint64 {
	return (((code | ^mask) + (mask & -mask)) & mask) | (code &^ mask)
}
