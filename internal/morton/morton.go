// Package morton implements Z-order (Morton-order) curve encoding and
// decoding for 2D and 3D coordinates.
//
// A Morton code interleaves the bits of the coordinates so that points
// nearby in index space tend to be nearby in the one-dimensional code
// space. This is the locality property the space-filling-curve memory
// layout exploits: with data stored at its Morton index, an access that
// is nearby in (i,j,k) is likely nearby in physical memory regardless of
// which axis varies.
//
// Two encoders are provided, producing identical codes:
//
//   - magic-bit (parallel-prefix) dilation: Encode2, Encode3 — the
//     reference the layouts are tested against;
//   - per-axis precomputed tables sized to a specific grid (the scheme
//     the paper adopts from Pascucci & Frank 2001). These are
//     core.ZOrder's: Deposit of each coordinate into its round-robin
//     lane (XMask, YMask, ZMask, cut to the grid's bits).
//
// The table form is what the memory-layout library uses at run time,
// because it puts the Z-order index computation (three loads and two ORs)
// on equal footing with array-order indexing (two loads and two adds).
package morton

// Max3 is the maximum allowed 3D coordinate value (exclusive bound is
// Max3+1): a 3D Morton code packs three coordinates into one uint64, so
// each may use at most 21 bits. A 2D code packs two uint32 coordinates.
const Max3 = 1<<21 - 1

// Part1By1 spreads the low 32 bits of x apart so there is one zero bit
// between each original bit: bit n moves to bit 2n.
func Part1By1(x uint64) uint64 {
	x &= 0xffffffff
	x = (x | x<<16) & 0x0000ffff0000ffff
	x = (x | x<<8) & 0x00ff00ff00ff00ff
	x = (x | x<<4) & 0x0f0f0f0f0f0f0f0f
	x = (x | x<<2) & 0x3333333333333333
	x = (x | x<<1) & 0x5555555555555555
	return x
}

// Compact1By1 is the inverse of Part1By1: it gathers every second bit
// (bits 0,2,4,...) of x into the low 32 bits of the result.
func Compact1By1(x uint64) uint64 {
	x &= 0x5555555555555555
	x = (x ^ x>>1) & 0x3333333333333333
	x = (x ^ x>>2) & 0x0f0f0f0f0f0f0f0f
	x = (x ^ x>>4) & 0x00ff00ff00ff00ff
	x = (x ^ x>>8) & 0x0000ffff0000ffff
	x = (x ^ x>>16) & 0x00000000ffffffff
	return x
}

// Part1By2 spreads the low 21 bits of x apart so there are two zero bits
// between each original bit: bit n moves to bit 3n.
func Part1By2(x uint64) uint64 {
	x &= 0x1fffff
	x = (x | x<<32) & 0x001f00000000ffff
	x = (x | x<<16) & 0x001f0000ff0000ff
	x = (x | x<<8) & 0x100f00f00f00f00f
	x = (x | x<<4) & 0x10c30c30c30c30c3
	x = (x | x<<2) & 0x1249249249249249
	return x
}

// Compact1By2 is the inverse of Part1By2: it gathers every third bit
// (bits 0,3,6,...) of x into the low 21 bits of the result.
func Compact1By2(x uint64) uint64 {
	x &= 0x1249249249249249
	x = (x ^ x>>2) & 0x10c30c30c30c30c3
	x = (x ^ x>>4) & 0x100f00f00f00f00f
	x = (x ^ x>>8) & 0x001f0000ff0000ff
	x = (x ^ x>>16) & 0x001f00000000ffff
	x = (x ^ x>>32) & 0x00000000001fffff
	return x
}

// Encode2 interleaves x and y into a 2D Morton code. Bit n of x lands at
// bit 2n of the result and bit n of y at bit 2n+1.
func Encode2(x, y uint32) uint64 {
	return Part1By1(uint64(x)) | Part1By1(uint64(y))<<1
}

// Decode2 is the inverse of Encode2.
func Decode2(code uint64) (x, y uint32) {
	return uint32(Compact1By1(code)), uint32(Compact1By1(code >> 1))
}

// Encode3 interleaves x, y and z into a 3D Morton code. Bit n of x lands
// at bit 3n, of y at 3n+1, of z at 3n+2. Each coordinate must be at most
// Max3; higher bits are ignored.
func Encode3(x, y, z uint32) uint64 {
	return Part1By2(uint64(x)) | Part1By2(uint64(y))<<1 | Part1By2(uint64(z))<<2
}

// Decode3 is the inverse of Encode3.
func Decode3(code uint64) (x, y, z uint32) {
	return uint32(Compact1By2(code)),
		uint32(Compact1By2(code >> 1)),
		uint32(Compact1By2(code >> 2))
}

// Dilated-bit lane masks: a 3D Morton code keeps the x contribution in
// bits 3n, y in 3n+1, z in 3n+2.
const (
	XMask = uint64(0x1249249249249249)
	YMask = XMask << 1
	ZMask = XMask << 2
)

// NextPow2 returns the smallest power of two >= n, with NextPow2(0) == 1.
// Z-order indexing requires each grid extent to be padded to a power of
// two (the paper's §V limitation); layouts use this to size their buffer.
func NextPow2(n int) int {
	if n <= 1 {
		return 1
	}
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// Log2 returns floor(log2(n)) for n >= 1.
func Log2(n int) int {
	l := 0
	for n > 1 {
		n >>= 1
		l++
	}
	return l
}
