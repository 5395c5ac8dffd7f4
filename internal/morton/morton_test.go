package morton

import (
	"testing"
	"testing/quick"
)

func TestEncode3KnownValues(t *testing.T) {
	cases := []struct {
		x, y, z uint32
		want    uint64
	}{
		{0, 0, 0, 0},
		{1, 0, 0, 1},
		{0, 1, 0, 2},
		{0, 0, 1, 4},
		{1, 1, 1, 7},
		{2, 0, 0, 8},
		{0, 2, 0, 16},
		{0, 0, 2, 32},
		{3, 3, 3, 63},
		{7, 0, 0, 0b001001001},
		{0, 7, 0, 0b010010010},
		{0, 0, 7, 0b100100100},
		{Max3, Max3, Max3, 1<<63 - 1},
	}
	for _, c := range cases {
		if got := Encode3(c.x, c.y, c.z); got != c.want {
			t.Errorf("Encode3(%d,%d,%d) = %#x, want %#x", c.x, c.y, c.z, got, c.want)
		}
	}
}

func TestEncode2KnownValues(t *testing.T) {
	cases := []struct {
		x, y uint32
		want uint64
	}{
		{0, 0, 0},
		{1, 0, 1},
		{0, 1, 2},
		{1, 1, 3},
		{2, 2, 12},
		{3, 5, 0b100111},
		{0xffffffff, 0xffffffff, ^uint64(0)},
	}
	for _, c := range cases {
		if got := Encode2(c.x, c.y); got != c.want {
			t.Errorf("Encode2(%d,%d) = %#x, want %#x", c.x, c.y, got, c.want)
		}
	}
}

func TestEncode3Decode3Roundtrip(t *testing.T) {
	f := func(x, y, z uint32) bool {
		x &= Max3
		y &= Max3
		z &= Max3
		gx, gy, gz := Decode3(Encode3(x, y, z))
		return gx == x && gy == y && gz == z
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEncode2Decode2Roundtrip(t *testing.T) {
	f := func(x, y uint32) bool {
		gx, gy := Decode2(Encode2(x, y))
		return gx == x && gy == y
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDecodeEncodeRoundtrip3(t *testing.T) {
	// Any 63-bit code decodes to coordinates that re-encode to itself.
	f := func(code uint64) bool {
		code &= 1<<63 - 1
		x, y, z := Decode3(code)
		return Encode3(x, y, z) == code
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPartCompactInverse(t *testing.T) {
	f1 := func(x uint32) bool {
		return Compact1By1(Part1By1(uint64(x))) == uint64(x)
	}
	if err := quick.Check(f1, nil); err != nil {
		t.Errorf("Part1By1/Compact1By1: %v", err)
	}
	f2 := func(x uint32) bool {
		x &= Max3
		return Compact1By2(Part1By2(uint64(x))) == uint64(x)
	}
	if err := quick.Check(f2, nil); err != nil {
		t.Errorf("Part1By2/Compact1By2: %v", err)
	}
}

// TestIncXYZ steps a Morton code one unit along each axis through
// IncMask over the axis's dilated lane, without decoding.
func TestIncXYZ(t *testing.T) {
	f := func(x, y, z uint32) bool {
		x &= Max3 - 1
		y &= Max3 - 1
		z &= Max3 - 1
		c := Encode3(x, y, z)
		return IncMask(c, XMask) == Encode3(x+1, y, z) &&
			IncMask(c, YMask) == Encode3(x, y+1, z) &&
			IncMask(c, ZMask) == Encode3(x, y, z+1)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMortonMonotoneOnDiagonal(t *testing.T) {
	// Along the main diagonal the Morton code is strictly increasing.
	prev := uint64(0)
	for v := uint32(1); v < 4096; v++ {
		c := Encode3(v, v, v)
		if c <= prev {
			t.Fatalf("Encode3(%d,%d,%d)=%d not > previous %d", v, v, v, c, prev)
		}
		prev = c
	}
}

func TestMortonCodesAreUnique(t *testing.T) {
	const n = 16
	seen := make(map[uint64][3]int, n*n*n)
	for k := 0; k < n; k++ {
		for j := 0; j < n; j++ {
			for i := 0; i < n; i++ {
				c := Encode3(uint32(i), uint32(j), uint32(k))
				if old, dup := seen[c]; dup {
					t.Fatalf("code %d for (%d,%d,%d) collides with %v", c, i, j, k, old)
				}
				seen[c] = [3]int{i, j, k}
			}
		}
	}
	// For a cubic power-of-two grid the codes are also dense in [0, n³).
	for c := uint64(0); c < n*n*n; c++ {
		if _, ok := seen[c]; !ok {
			t.Fatalf("code %d missing: Morton codes not dense on %d^3 grid", c, n)
		}
	}
}

func TestNextPow2(t *testing.T) {
	cases := map[int]int{0: 1, 1: 1, 2: 2, 3: 4, 4: 4, 5: 8, 7: 8, 8: 8, 9: 16, 511: 512, 512: 512, 513: 1024}
	for in, want := range cases {
		if got := NextPow2(in); got != want {
			t.Errorf("NextPow2(%d)=%d, want %d", in, got, want)
		}
	}
}

func TestLog2(t *testing.T) {
	cases := map[int]int{1: 0, 2: 1, 3: 1, 4: 2, 7: 2, 8: 3, 1024: 10}
	for in, want := range cases {
		if got := Log2(in); got != want {
			t.Errorf("Log2(%d)=%d, want %d", in, got, want)
		}
	}
}

// Locality sanity check: the mean code distance of a unit step in any
// axis must be far smaller under Morton order than the worst axis under
// row-major order. This is the quantitative heart of the paper's Fig 1.
func TestMortonLocalityBeatsRowMajorWorstAxis(t *testing.T) {
	const n = 32
	var mortonZ, rowZ float64
	count := 0
	for k := 0; k < n-1; k++ {
		for j := 0; j < n; j++ {
			for i := 0; i < n; i++ {
				a := Encode3(uint32(i), uint32(j), uint32(k))
				b := Encode3(uint32(i), uint32(j), uint32(k+1))
				d := int64(b) - int64(a)
				if d < 0 {
					d = -d
				}
				mortonZ += float64(d)
				rowZ += float64(n * n) // row-major z-step distance is always nx*ny
				count++
			}
		}
	}
	mortonZ /= float64(count)
	rowZ /= float64(count)
	if mortonZ >= rowZ {
		t.Errorf("mean Morton z-step distance %.1f not below row-major %.1f", mortonZ, rowZ)
	}
}

func BenchmarkEncode3Magic(b *testing.B) {
	var sink uint64
	for n := 0; n < b.N; n++ {
		sink += Encode3(uint32(n)&511, uint32(n>>9)&511, uint32(n>>18)&511)
	}
	benchSink = sink
}

func BenchmarkDecode3(b *testing.B) {
	var sink uint32
	for n := 0; n < b.N; n++ {
		x, y, z := Decode3(uint64(n))
		sink += x + y + z
	}
	benchSink = uint64(sink)
}

var benchSink uint64
