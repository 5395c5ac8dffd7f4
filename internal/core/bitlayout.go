package core

import (
	"fmt"
	"math/bits"
	"strings"

	"sfcmem/internal/morton"
)

// BitLayout is the generalized Morton (bit-interleave) layout: Z order
// with the fixed xyzxyz… bit rotation replaced by an explicit interleave
// string that assigns every bit of the flat index to an axis. Swatman et
// al. ("Evolutionary Algorithms to Find Cache-Friendly Generalized
// Morton Layouts") show these orderings form a search space containing
// row-major (all x bits first), Z order (round-robin), and every tiled
// hybrid in between — which is what the autotuner in internal/tune
// searches per volume × kernel × dtype.
//
// The spec string is read LSB first: spec[b] ∈ {x,y,z} names the axis
// whose next coordinate bit (the axis's b'-th occurrence, counting
// occurrences of that letter from the front) occupies bit b of the
// index. "xyzxyzxyz…" therefore is Z order (ZOrder is exactly this
// layout under its own name), "xxxxyy…zz" is row-major on power-of-two
// extents, and "xxyyzzxyz" packs 4×4×4 row-major-ish bricks along a
// Morton curve.
//
// Indexing is table-driven — three per-axis tables of deposited
// coordinate contributions, the paper's dilated-bit tables generalized,
// so Index is three loads and two adds and the paper's equal-footing
// comparison holds — and because the per-axis contributions occupy
// disjoint bit lanes their sum equals their OR, so BitLayout is
// Separable and rides every flat fast path unchanged. A +x neighbor
// step is a masked carry over the axis's own lane (morton.IncMask),
// described by core.StepMasked.
type BitLayout struct {
	spec       string // canonical (lower-case) interleave, LSB first
	mx, my, mz uint64 // per-axis bit lanes; disjoint, covering spec
	xi, yi, zi []int  // deposited per-axis contributions (AxisOffsets)
	nx, ny, nz int
	length     int
}

// Compile-time checks: BitLayout supports every kernel fast path.
var (
	_ Separable = (*BitLayout)(nil)
	_ Inverse   = (*BitLayout)(nil)
)

// BitSpecPrefix marks a parameterized bit-interleave layout in a layout
// specification string ("bit:yxzyxz…"), as accepted by ParseSpec and
// persisted in volume manifests.
const BitSpecPrefix = "bit:"

// bitsFor returns the number of coordinate bits an extent needs:
// ceil(log2(n)), with 0 for n == 1 (a degenerate axis needs no bits).
func bitsFor(n int) int {
	if n <= 1 {
		return 0
	}
	return bits.Len(uint(n - 1))
}

// NewBitLayout builds a generalized bit-interleave layout for an
// nx×ny×nz grid from an interleave string. The string must use only the
// letters x, y, z (case-folded) and must contain at least ceil(log2(n))
// occurrences of each axis letter so every coordinate fits; surplus
// occurrences are legal and inert (their bit positions are never set,
// they just stretch the padded index space the same way Z-order padding
// does). Errors name the offending position or axis, since specs arrive
// from manifests and HTTP requests, not just code.
func NewBitLayout(nx, ny, nz int, order string) (*BitLayout, error) {
	checkDims(nx, ny, nz)
	spec := strings.ToLower(strings.TrimSpace(order))
	if spec == "" {
		return nil, fmt.Errorf("core: empty bit layout spec")
	}
	if len(spec) > 63 {
		return nil, fmt.Errorf("core: bit layout spec %q: %d positions exceed the 63-bit index budget", spec, len(spec))
	}
	b := &BitLayout{spec: spec, nx: nx, ny: ny, nz: nz}
	for pos := 0; pos < len(spec); pos++ {
		switch spec[pos] {
		case 'x':
			b.mx |= 1 << pos
		case 'y':
			b.my |= 1 << pos
		case 'z':
			b.mz |= 1 << pos
		default:
			return nil, fmt.Errorf("core: bit layout spec %q: position %d is %q, want x, y or z", spec, pos, spec[pos])
		}
	}
	for _, ax := range [3]struct {
		letter byte
		mask   uint64
		extent int
	}{{'x', b.mx, nx}, {'y', b.my, ny}, {'z', b.mz, nz}} {
		if have, need := bits.OnesCount64(ax.mask), bitsFor(ax.extent); have < need {
			return nil, fmt.Errorf("core: bit layout spec %q: %d %c bits cannot address extent %d (need %d)",
				spec, have, ax.letter, ax.extent, need)
		}
	}
	b.xi = depositTable(nx, b.mx)
	b.yi = depositTable(ny, b.my)
	b.zi = depositTable(nz, b.mz)
	// The per-axis contributions are monotone in their coordinate (a
	// deposit preserves order because lane bits appear in increasing
	// significance), so the largest index is at the far corner.
	b.length = b.xi[nx-1] + b.yi[ny-1] + b.zi[nz-1] + 1
	return b, nil
}

// depositTable precomputes the deposited contribution of every
// coordinate value along one axis lane.
func depositTable(n int, mask uint64) []int {
	t := make([]int, n)
	for c := 0; c < n; c++ {
		t[c] = int(morton.Deposit(uint64(c), mask))
	}
	return t
}

// RoundRobinSpec returns the interleave string that cycles x→y→z per
// bit, skipping axes whose extent is exhausted — the compact Z order
// for the given extents (identical to Z order on cubic power-of-two
// grids, tighter than padded Z order on anisotropic ones). It seeds the
// autotuner's population and is the reference individual its results
// are compared against.
func RoundRobinSpec(nx, ny, nz int) string {
	need := [3]int{bitsFor(nx), bitsFor(ny), bitsFor(nz)}
	letters := [3]byte{'x', 'y', 'z'}
	var sb strings.Builder
	for need[0] > 0 || need[1] > 0 || need[2] > 0 {
		for a := 0; a < 3; a++ {
			if need[a] > 0 {
				sb.WriteByte(letters[a])
				need[a]--
			}
		}
	}
	if sb.Len() == 0 {
		return "x" // 1×1×1 grid: any single-letter spec addresses it
	}
	return sb.String()
}

// Index returns the interleaved offset of (i,j,k) via three table loads
// and two adds — the same cost shape as ArrayOrder.Index, per the
// paper's equal-footing requirement.
func (b *BitLayout) Index(i, j, k int) int { return b.xi[i] + b.yi[j] + b.zi[k] }

// Dims returns the logical grid extents.
func (b *BitLayout) Dims() (nx, ny, nz int) { return b.nx, b.ny, b.nz }

// Len returns the buffer length: the far corner's index plus one.
// Padding appears exactly where the interleave leaves index space
// unaddressed (non-power-of-two extents, surplus spec occurrences).
func (b *BitLayout) Len() int { return b.length }

// Name returns the full parameterized spec ("bit:yxzyxz…"), so a
// layout's registry name round-trips through volume manifests and HTTP
// responses with enough information to reconstruct it.
func (b *BitLayout) Name() string { return BitSpecPrefix + b.spec }

// Spec returns the canonical interleave string (without the "bit:"
// prefix), LSB first.
func (b *BitLayout) Spec() string { return b.spec }

// Masks returns the per-axis bit lanes of the flat index.
func (b *BitLayout) Masks() (mx, my, mz uint64) { return b.mx, b.my, b.mz }

// Overhead reports the fraction of the buffer wasted by interleave
// padding: Len()/ideal - 1, the same accounting as ZTiled.Overhead.
// Zero for cubic power-of-two Z order.
func (b *BitLayout) Overhead() float64 {
	ideal := float64(b.nx) * float64(b.ny) * float64(b.nz)
	return float64(b.length)/ideal - 1
}

// AxisOffsets returns the deposited per-axis tables. They occupy
// disjoint bit lanes (the interleave assigns every position to exactly
// one axis), so summing them equals ORing them — BitLayout is separable
// and the flat fast paths apply unchanged.
func (b *BitLayout) AxisOffsets() (xs, ys, zs []int) { return b.xi, b.yi, b.zi }

// Coords inverts the interleave by gathering each axis's lane; offsets
// whose gathered coordinates fall outside the logical extents are
// padding and report ok == false.
func (b *BitLayout) Coords(idx int) (i, j, k int, ok bool) {
	u := uint64(idx)
	i = int(morton.Extract(u, b.mx))
	j = int(morton.Extract(u, b.my))
	k = int(morton.Extract(u, b.mz))
	return i, j, k, i < b.nx && j < b.ny && k < b.nz
}
