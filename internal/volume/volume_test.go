package volume

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"testing"
	"testing/quick"

	"sfcmem/internal/core"
	"sfcmem/internal/grid"
)

func TestRNGDeterministic(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	c := NewRNG(43)
	same := true
	a = NewRNG(42)
	for i := 0; i < 10; i++ {
		if a.Uint64() != c.Uint64() {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical streams")
	}
}

func TestRNGZeroSeed(t *testing.T) {
	r := NewRNG(0)
	if r.Uint64() == 0 && r.Uint64() == 0 {
		t.Error("zero seed stuck at zero")
	}
}

func TestFloat32Range(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 10000; i++ {
		v := r.Float32()
		if v < 0 || v >= 1 {
			t.Fatalf("Float32 out of range: %v", v)
		}
	}
}

func TestNormalMoments(t *testing.T) {
	r := NewRNG(11)
	const n = 50000
	var sum, sq float64
	for i := 0; i < n; i++ {
		v := float64(r.Normal())
		sum += v
		sq += v * v
	}
	mean := sum / n
	std := math.Sqrt(sq/n - mean*mean)
	if math.Abs(mean) > 0.02 {
		t.Errorf("mean %v too far from 0", mean)
	}
	if math.Abs(std-1) > 0.03 {
		t.Errorf("stddev %v too far from 1", std)
	}
}

func TestValueNoiseRangeAndDeterminism(t *testing.T) {
	f := func(xr, yr, zr float64) bool {
		x := math.Mod(xr, 100)
		y := math.Mod(yr, 100)
		z := math.Mod(zr, 100)
		if math.IsNaN(x) || math.IsNaN(y) || math.IsNaN(z) {
			return true
		}
		v := ValueNoise(x, y, z, 1)
		return v >= 0 && v < 1.0001 && v == ValueNoise(x, y, z, 1)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestValueNoiseContinuity(t *testing.T) {
	// Adjacent samples at fine spacing must not jump: noise is smooth.
	prev := ValueNoise(0, 0.5, 0.5, 3)
	for i := 1; i <= 1000; i++ {
		cur := ValueNoise(float64(i)*0.01, 0.5, 0.5, 3)
		if d := math.Abs(float64(cur - prev)); d > 0.15 {
			t.Fatalf("jump %v at step %d", d, i)
		}
		prev = cur
	}
}

func TestFBMRange(t *testing.T) {
	for i := 0; i < 1000; i++ {
		v := FBM(float64(i)*0.13, float64(i)*0.07, float64(i)*0.05, 4, 9)
		if v < 0 || v > 1 {
			t.Fatalf("FBM out of [0,1]: %v", v)
		}
	}
}

func TestMRIPhantomProperties(t *testing.T) {
	l := core.NewArrayOrder(32, 32, 32)
	g := MRIPhantom(l, 1, 0.05)
	s := describe(g)
	if s.Min < 0 || s.Max > 1 {
		t.Errorf("values outside [0,1]: %v..%v", s.Min, s.Max)
	}
	// The phantom must have interior structure: bright skull ring vs
	// darker center.
	center := g.At(16, 16, 16)
	skull := g.At(16, 3, 16) // near the top of the head: skull shell
	if skull <= center {
		t.Logf("center=%v skull=%v (informational)", center, skull)
	}
	if s.NonZero < 0.2 {
		t.Errorf("phantom mostly empty: %v non-zero", s.NonZero)
	}
	// Determinism.
	h := MRIPhantom(core.NewArrayOrder(32, 32, 32), 1, 0.05)
	if !grid.Equal(g, h) {
		t.Error("same seed produced different phantoms")
	}
	// Different seed differs.
	d := MRIPhantom(core.NewArrayOrder(32, 32, 32), 2, 0.05)
	if grid.Equal(g, d) {
		t.Error("different seeds produced identical phantoms")
	}
}

func TestMRIPhantomLayoutInvariant(t *testing.T) {
	// The dataset is defined in index space, so generating directly into
	// different layouts must give identical logical contents.
	a := MRIPhantom(core.NewArrayOrder(16, 16, 16), 5, 0.02)
	z := MRIPhantom(core.NewZOrder(16, 16, 16), 5, 0.02)
	if !grid.Equal(a, z) {
		t.Error("phantom differs across layouts")
	}
}

func TestCombustionPlumeProperties(t *testing.T) {
	l := core.NewZOrder(32, 32, 32)
	g := CombustionPlume(l, 3)
	s := describe(g)
	if s.Min < 0 || s.Max > 1 {
		t.Errorf("values outside [0,1]: %v..%v", s.Min, s.Max)
	}
	if s.NonZero < 0.02 || s.NonZero > 0.9 {
		t.Errorf("plume should mix empty space and core; non-zero fraction %v", s.NonZero)
	}
	if s.Max < 0.3 {
		t.Errorf("plume core too weak: max %v", s.Max)
	}
}

func TestCombustionPlumeDeterministic(t *testing.T) {
	a := CombustionPlume(core.NewArrayOrder(16, 16, 16), 7)
	b := CombustionPlume(core.NewArrayOrder(16, 16, 16), 7)
	if !grid.Equal(a, b) {
		t.Error("same seed produced different plumes")
	}
}

func TestConstant(t *testing.T) {
	g := Constant(core.NewZOrder(8, 8, 8), 0.5)
	lo, hi := g.MinMax()
	if lo != 0.5 || hi != 0.5 {
		t.Errorf("constant grid range %v..%v", lo, hi)
	}
}

func TestRampX(t *testing.T) {
	g := rampX(core.NewArrayOrder(11, 4, 4))
	if g.At(0, 0, 0) != 0 || g.At(10, 3, 3) != 1 {
		t.Errorf("ramp endpoints %v..%v", g.At(0, 0, 0), g.At(10, 3, 3))
	}
	if g.At(5, 2, 1) != 0.5 {
		t.Errorf("ramp midpoint %v", g.At(5, 2, 1))
	}
	one := rampX(core.NewArrayOrder(1, 2, 2))
	if one.At(0, 0, 0) != 0 {
		t.Errorf("degenerate ramp value %v", one.At(0, 0, 0))
	}
}

func TestSolidSphere(t *testing.T) {
	g := SolidSphere(core.NewArrayOrder(32, 32, 32), 0.5)
	if g.At(16, 16, 16) != 1 {
		t.Error("sphere center not inside")
	}
	if g.At(0, 0, 0) != 0 {
		t.Error("corner not outside")
	}
	s := describe(g)
	// Sphere of r=8 in 32³: volume fraction ≈ (4/3)π·8³/32³ ≈ 0.065.
	if s.NonZero < 0.03 || s.NonZero > 0.15 {
		t.Errorf("sphere fill fraction %v implausible", s.NonZero)
	}
}

func TestWhiteNoiseStats(t *testing.T) {
	g := WhiteNoise(core.NewArrayOrder(24, 24, 24), 13)
	s := describe(g)
	if math.Abs(s.Mean-0.5) > 0.02 {
		t.Errorf("white-noise mean %v", s.Mean)
	}
}

func TestDescribeCounts(t *testing.T) {
	s := describe(Constant(core.NewArrayOrder(4, 5, 6), 1))
	if s.SampleSize != 120 || s.NonZero != 1 || s.Mean != 1 {
		t.Errorf("stats %+v", s)
	}
}

func TestRawRoundtrip(t *testing.T) {
	src := MRIPhantom(core.NewZOrder(12, 10, 8), 3, 0.05)
	var buf bytes.Buffer
	if err := SaveRawOf(&buf, src); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 12*10*8*4 {
		t.Errorf("raw size %d bytes", buf.Len())
	}
	// Load into a different layout: contents must match exactly.
	back, err := LoadRawOf[float32](&buf, core.NewHilbert(12, 10, 8))
	if err != nil {
		t.Fatal(err)
	}
	if !grid.Equal(src, back) {
		t.Error("raw roundtrip changed contents")
	}
}

func TestLoadRawTruncated(t *testing.T) {
	src := Constant(core.NewArrayOrder(4, 4, 4), 1)
	var buf bytes.Buffer
	if err := SaveRawOf(&buf, src); err != nil {
		t.Fatal(err)
	}
	short := buf.Bytes()[:buf.Len()-4]
	if _, err := LoadRawOf[float32](bytes.NewReader(short), core.NewArrayOrder(4, 4, 4)); err == nil {
		t.Error("truncated stream accepted")
	}
}

func TestLoadRawTrailingBytes(t *testing.T) {
	src := Constant(core.NewArrayOrder(4, 4, 4), 1)
	var buf bytes.Buffer
	if err := SaveRawOf(&buf, src); err != nil {
		t.Fatal(err)
	}
	buf.WriteByte(0)
	if _, err := LoadRawOf[float32](&buf, core.NewArrayOrder(4, 4, 4)); err == nil {
		t.Error("trailing bytes accepted")
	}
}

func TestRawFileRoundtrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "vol.f32")
	src := CombustionPlume(core.NewArrayOrder(8, 8, 8), 2)
	w, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := SaveRawOf(w, src); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	back, err := LoadRawOf[float32](r, core.NewZOrder(8, 8, 8))
	if err != nil {
		t.Fatal(err)
	}
	if !grid.Equal(src, back) {
		t.Error("file roundtrip changed contents")
	}
}

// rampX fills a grid with a linear ramp along x, normalized to [0,1].
func rampX(l core.Layout) *grid.Grid[float32] {
	nx, _, _ := l.Dims()
	den := float32(nx - 1)
	if den == 0 {
		den = 1
	}
	return grid.FromFunc(l, func(i, _, _ int) float32 { return float32(i) / den })
}

// gridStats summarizes a grid for dataset sanity checks.
type gridStats struct {
	Min, Max   float32
	Mean       float64
	NonZero    float64 // fraction of samples above eps
	SampleSize int
}

// describe computes summary statistics over every sample of g.
func describe[T grid.Scalar](g *grid.Grid[T]) gridStats {
	nx, ny, nz := g.Dims()
	s := gridStats{Min: float32(math.Inf(1)), Max: float32(math.Inf(-1))}
	const eps = 1e-6
	var sum float64
	for k := 0; k < nz; k++ {
		for j := 0; j < ny; j++ {
			for i := 0; i < nx; i++ {
				v := float32(g.At(i, j, k))
				if v < s.Min {
					s.Min = v
				}
				if v > s.Max {
					s.Max = v
				}
				sum += float64(v)
				if v > eps {
					s.NonZero++
				}
				s.SampleSize++
			}
		}
	}
	if s.SampleSize > 0 {
		s.Mean = sum / float64(s.SampleSize)
		s.NonZero /= float64(s.SampleSize)
	}
	return s
}
