package core

import (
	"strings"
	"testing"

	"sfcmem/internal/morton"
)

// TestBitLayoutReproducesZOrder pins the search space's anchor point:
// the round-robin interleave on a cubic power-of-two grid is exactly Z
// order, cell for cell, so the autotuner's population always contains
// the paper's layout as one individual.
func TestBitLayoutReproducesZOrder(t *testing.T) {
	const n = 16
	z := NewZOrder(n, n, n)
	b, err := NewBitLayout(n, n, n, RoundRobinSpec(n, n, n))
	if err != nil {
		t.Fatalf("NewBitLayout: %v", err)
	}
	if b.Len() != z.Len() {
		t.Fatalf("Len = %d, zorder %d", b.Len(), z.Len())
	}
	for k := 0; k < n; k++ {
		for j := 0; j < n; j++ {
			for i := 0; i < n; i++ {
				if b.Index(i, j, k) != z.Index(i, j, k) {
					t.Fatalf("Index(%d,%d,%d) = %d, zorder %d", i, j, k, b.Index(i, j, k), z.Index(i, j, k))
				}
			}
		}
	}
}

// TestBitLayoutReproducesRowMajor pins the other extreme: all-x-bits-
// first is row-major on power-of-two extents. Between these two anchors
// lies every tiled hybrid the tuner can discover.
func TestBitLayoutReproducesRowMajor(t *testing.T) {
	a := NewArrayOrder(8, 4, 2)
	b, err := NewBitLayout(8, 4, 2, "xxxyyz")
	if err != nil {
		t.Fatalf("NewBitLayout: %v", err)
	}
	if b.Len() != a.Len() {
		t.Fatalf("Len = %d, array %d", b.Len(), a.Len())
	}
	for k := 0; k < 2; k++ {
		for j := 0; j < 4; j++ {
			for i := 0; i < 8; i++ {
				if b.Index(i, j, k) != a.Index(i, j, k) {
					t.Fatalf("Index(%d,%d,%d) = %d, array %d", i, j, k, b.Index(i, j, k), a.Index(i, j, k))
				}
			}
		}
	}
}

// TestBitLayoutInjective exhaustively checks injectivity, bounds and
// inversion on a non-power-of-two grid under an irregular interleave —
// the padding-heavy case where a bad deposit table would first overlap.
func TestBitLayoutInjective(t *testing.T) {
	b, err := NewBitLayout(5, 7, 3, "yxzxyzyx") // x: bits 1,3,7; y: 0,4,6; z: 2,5
	if err != nil {
		t.Fatalf("NewBitLayout: %v", err)
	}
	seen := make(map[int][3]int)
	for k := 0; k < 3; k++ {
		for j := 0; j < 7; j++ {
			for i := 0; i < 5; i++ {
				idx := b.Index(i, j, k)
				if idx < 0 || idx >= b.Len() {
					t.Fatalf("Index(%d,%d,%d) = %d outside [0,%d)", i, j, k, idx, b.Len())
				}
				if prev, dup := seen[idx]; dup {
					t.Fatalf("Index collision at %d: (%d,%d,%d) and %v", idx, i, j, k, prev)
				}
				seen[idx] = [3]int{i, j, k}
				gi, gj, gk, ok := b.Coords(idx)
				if !ok || gi != i || gj != j || gk != k {
					t.Fatalf("Coords(%d) = (%d,%d,%d,%v), want (%d,%d,%d)", idx, gi, gj, gk, ok, i, j, k)
				}
			}
		}
	}
	// Every unclaimed offset must report itself as padding.
	for idx := 0; idx < b.Len(); idx++ {
		if _, live := seen[idx]; live {
			continue
		}
		if _, _, _, ok := b.Coords(idx); ok {
			t.Fatalf("Coords(%d) claims a cell in padding", idx)
		}
	}
}

// TestBitLayoutSteppers walks every cell of a padded grid under an
// irregular interleave: StepX, and the masked y/z increments over the
// layout's own lanes, must agree with Index.
func TestBitLayoutSteppers(t *testing.T) {
	b, err := NewBitLayout(12, 9, 5, "zxyxzyxyzxyx") // surplus x occurrence included
	if err != nil {
		t.Fatalf("NewBitLayout: %v", err)
	}
	_, my, mz := b.Masks()
	for k := 0; k < 5; k++ {
		for j := 0; j < 9; j++ {
			for i := 0; i < 12; i++ {
				idx := b.Index(i, j, k)
				if i+1 < 12 && b.StepX(idx) != b.Index(i+1, j, k) {
					t.Fatalf("StepX broken at (%d,%d,%d)", i, j, k)
				}
				if j+1 < 9 && int(morton.IncMask(uint64(idx), my)) != b.Index(i, j+1, k) {
					t.Fatalf("+y step broken at (%d,%d,%d)", i, j, k)
				}
				if k+1 < 5 && int(morton.IncMask(uint64(idx), mz)) != b.Index(i, j, k+1) {
					t.Fatalf("+z step broken at (%d,%d,%d)", i, j, k)
				}
			}
		}
	}
}

// TestBitLayoutValidation enumerates the rejection cases; the messages
// travel to HTTP clients and manifest-load errors, so they must name
// the problem.
func TestBitLayoutValidation(t *testing.T) {
	cases := []struct {
		spec string
		want string // substring of the error
	}{
		{"", "empty"},
		{"xyw", `position 2 is 'w'`},
		{"xyzxy", "2 x bits cannot address extent 8 (need 3)"},
		{strings.Repeat("xyz", 22), "exceed the 63-bit index budget"},
	}
	for _, c := range cases {
		_, err := NewBitLayout(8, 8, 8, c.spec)
		if err == nil {
			t.Errorf("spec %q: expected error", c.spec)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("spec %q: error %q does not mention %q", c.spec, err, c.want)
		}
	}
	// Case and whitespace fold, and Name carries the canonical spec.
	b, err := NewBitLayout(8, 8, 8, "  XyZxYzXYz ")
	if err != nil {
		t.Fatalf("folded spec rejected: %v", err)
	}
	if b.Name() != "bit:xyzxyzxyz" {
		t.Errorf("Name = %q", b.Name())
	}
	if b.Spec() != "xyzxyzxyz" {
		t.Errorf("Spec = %q", b.Spec())
	}
}

// TestRoundRobinSpec pins the compact-Morton seed string for cubic,
// anisotropic and degenerate extents.
func TestRoundRobinSpec(t *testing.T) {
	cases := []struct {
		nx, ny, nz int
		want       string
	}{
		{8, 8, 8, "xyzxyzxyz"},
		{32, 32, 4, "xyzxyzxyxyxy"}, // z exhausts after 2 bits
		{2, 1, 1, "x"},
		{1, 1, 1, "x"},
		{5, 7, 9, "xyzxyzxyzz"}, // ceil(log2): x 3, y 3, z 4 → one trailing z
	}
	for _, c := range cases {
		if got := RoundRobinSpec(c.nx, c.ny, c.nz); got != c.want {
			t.Errorf("RoundRobinSpec(%d,%d,%d) = %q, want %q", c.nx, c.ny, c.nz, got, c.want)
		}
	}
}

// TestParseSpec covers both halves of the travelling-string grammar:
// registry kind names and parameterized bit specs.
func TestParseSpec(t *testing.T) {
	l, err := ParseSpec("zorder", 8, 8, 8)
	if err != nil || l.Name() != "zorder" {
		t.Fatalf("ParseSpec(zorder) = %v, %v", l, err)
	}
	l, err = ParseSpec("BIT:xyzxyzxyz", 8, 8, 8)
	if err != nil || l.Name() != "bit:xyzxyzxyz" {
		t.Fatalf("ParseSpec(bit:) = %v, %v", l, err)
	}
	if _, err = ParseSpec("bit:xy", 8, 8, 8); err == nil {
		t.Fatal("ParseSpec accepted an under-specified bit layout")
	}
	if _, err = ParseSpec("no-such-layout", 8, 8, 8); err == nil {
		t.Fatal("ParseSpec accepted an unknown kind")
	}
}
