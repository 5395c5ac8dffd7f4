package filter

import (
	"context"
	"math"
	"sync/atomic"
	"testing"
	"time"

	"sfcmem/internal/core"
	"sfcmem/internal/grid"
	"sfcmem/internal/parallel"
	"sfcmem/internal/volume"
)

func defaultOpts() Options {
	return Options{Radius: 1, SigmaSpatial: 1, SigmaRange: 0.1}
}

func TestConstantVolumeUnchanged(t *testing.T) {
	for _, kind := range core.Kinds() {
		l := core.New(kind, 12, 12, 12)
		src := volume.Constant(l, 0.5)
		dst := grid.New(core.New(kind, 12, 12, 12))
		if err := Apply(src, dst, defaultOpts()); err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		lo, hi := dst.MinMax()
		if math.Abs(float64(lo)-0.5) > 1e-6 || math.Abs(float64(hi)-0.5) > 1e-6 {
			t.Errorf("%v: constant input changed: %v..%v", kind, lo, hi)
		}
	}
}

func TestLayoutInvariance(t *testing.T) {
	// The filter's output must be bitwise identical across memory
	// layouts: iteration is in index space, so summation order is fixed.
	const n = 16
	ref := volume.MRIPhantom(core.NewArrayOrder(n, n, n), 1, 0.05)
	var outputs []*grid.Grid[float32]
	for _, kind := range core.Kinds() {
		src, err := ref.Relayout(core.New(kind, n, n, n))
		if err != nil {
			t.Fatal(err)
		}
		dst := grid.New(core.New(kind, n, n, n))
		if err := Apply(src, dst, defaultOpts()); err != nil {
			t.Fatal(err)
		}
		outputs = append(outputs, dst)
	}
	for i := 1; i < len(outputs); i++ {
		if !grid.Equal(outputs[0], outputs[i]) {
			t.Errorf("output differs between %v and %v layouts",
				core.Kinds()[0], core.Kinds()[i])
		}
	}
}

func TestWorkerCountInvariance(t *testing.T) {
	const n = 12
	src := volume.MRIPhantom(core.NewZOrder(n, n, n), 2, 0.05)
	var ref *grid.Grid[float32]
	for _, workers := range []int{1, 2, 5, 16} {
		dst := grid.New(core.NewZOrder(n, n, n))
		o := defaultOpts()
		o.Workers = workers
		if err := Apply(src, dst, o); err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = dst
		} else if !grid.Equal(ref, dst) {
			t.Errorf("workers=%d changed the result", workers)
		}
	}
}

func TestPencilAxisInvariance(t *testing.T) {
	const n = 10
	src := volume.MRIPhantom(core.NewArrayOrder(n, n, n), 3, 0.05)
	var ref *grid.Grid[float32]
	for _, axis := range []parallel.Axis{parallel.AxisX, parallel.AxisY, parallel.AxisZ} {
		dst := grid.New(core.NewArrayOrder(n, n, n))
		o := defaultOpts()
		o.Axis = axis
		if err := Apply(src, dst, o); err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = dst
		} else if !grid.Equal(ref, dst) {
			t.Errorf("axis %v changed the result", axis)
		}
	}
}

func TestIterationOrderNearlyInvariant(t *testing.T) {
	// xyz vs zyx only changes floating-point summation order; results
	// must agree to tight tolerance.
	const n = 10
	src := volume.MRIPhantom(core.NewArrayOrder(n, n, n), 4, 0.05)
	a := grid.New(core.NewArrayOrder(n, n, n))
	b := grid.New(core.NewArrayOrder(n, n, n))
	oa := defaultOpts()
	oa.Order = XYZ
	ob := defaultOpts()
	ob.Order = ZYX
	if err := Apply(src, a, oa); err != nil {
		t.Fatal(err)
	}
	if err := Apply(src, b, ob); err != nil {
		t.Fatal(err)
	}
	if d := grid.MaxAbsDiff(a, b); d > 1e-5 {
		t.Errorf("xyz vs zyx max diff %v", d)
	}
}

func TestMatchesReference(t *testing.T) {
	const n = 10
	for _, radius := range []int{1, 2} {
		src := volume.MRIPhantom(core.NewArrayOrder(n, n, n), 5, 0.1)
		fast := grid.New(core.NewArrayOrder(n, n, n))
		ref := grid.New(core.NewArrayOrder(n, n, n))
		o := Options{Radius: radius, SigmaSpatial: 1.5, SigmaRange: 0.15}
		if err := Apply(src, fast, o); err != nil {
			t.Fatal(err)
		}
		if err := Reference(src, ref, o); err != nil {
			t.Fatal(err)
		}
		if d := grid.MaxAbsDiff(fast, ref); d > 5e-3 {
			t.Errorf("radius %d: LUT filter deviates from reference by %v", radius, d)
		}
	}
}

func TestSmoothsNoise(t *testing.T) {
	const n = 16
	l := core.NewArrayOrder(n, n, n)
	src := grid.FromFunc(l, func(i, j, k int) float32 {
		return 0.5
	})
	rng := volume.NewRNG(9)
	nx, ny, nz := src.Dims()
	for k := 0; k < nz; k++ {
		for j := 0; j < ny; j++ {
			for i := 0; i < nx; i++ {
				src.Set(i, j, k, src.At(i, j, k)+0.05*rng.Normal())
			}
		}
	}
	dst := grid.New(core.NewArrayOrder(n, n, n))
	o := Options{Radius: 2, SigmaSpatial: 2, SigmaRange: 0.5}
	if err := Apply(src, dst, o); err != nil {
		t.Fatal(err)
	}
	if vs, vd := variance(src), variance(dst); vd >= vs/2 {
		t.Errorf("noise variance not reduced: %v -> %v", vs, vd)
	}
}

func TestPreservesEdgesBetterThanGaussian(t *testing.T) {
	const n = 24
	src := volume.SolidSphere(core.NewArrayOrder(n, n, n), 0.6)
	bil := grid.New(core.NewArrayOrder(n, n, n))
	gau := grid.New(core.NewArrayOrder(n, n, n))
	o := Options{Radius: 2, SigmaSpatial: 2, SigmaRange: 0.2}
	if err := Apply(src, bil, o); err != nil {
		t.Fatal(err)
	}
	if err := GaussianConvolve(src, gau, o); err != nil {
		t.Fatal(err)
	}
	// Measure the sharpest value step along the center row.
	edge := func(g *grid.Grid[float32]) float64 {
		var maxStep float64
		for i := 1; i < n; i++ {
			d := math.Abs(float64(g.At(i, n/2, n/2)) - float64(g.At(i-1, n/2, n/2)))
			if d > maxStep {
				maxStep = d
			}
		}
		return maxStep
	}
	eb, eg := edge(bil), edge(gau)
	if eb <= eg {
		t.Errorf("bilateral edge step %v not sharper than Gaussian %v", eb, eg)
	}
	// And the bilateral output must still be essentially binary at the
	// sphere center and corner.
	if bil.At(n/2, n/2, n/2) < 0.9 {
		t.Errorf("sphere interior smoothed away: %v", bil.At(n/2, n/2, n/2))
	}
	if bil.At(0, 0, 0) > 0.1 {
		t.Errorf("background polluted: %v", bil.At(0, 0, 0))
	}
}

func TestApplyViewsTracesEveryWorker(t *testing.T) {
	const n = 8
	src := volume.MRIPhantom(core.NewZOrder(n, n, n), 6, 0.05)
	dst := grid.New(core.NewZOrder(n, n, n))
	const workers = 3
	sinks := make([]*grid.CountingSink, workers)
	srcs := make([]grid.Reader, workers)
	dsts := make([]grid.Writer, workers)
	for w := 0; w < workers; w++ {
		sinks[w] = &grid.CountingSink{}
		srcs[w] = grid.NewTraced(src, 0, sinks[w])
		dsts[w] = grid.NewTraced(dst, 1<<32, sinks[w])
	}
	o := defaultOpts()
	o.Workers = workers
	if err := ApplyViews(srcs, dsts, o); err != nil {
		t.Fatal(err)
	}
	var writes uint64
	for w, s := range sinks {
		if s.Total() == 0 {
			t.Errorf("worker %d traced no accesses", w)
		}
		writes += s.Writes
	}
	if writes != n*n*n {
		t.Errorf("total writes %d, want one per voxel %d", writes, n*n*n)
	}
}

func TestApplyViewsValidation(t *testing.T) {
	src := volume.Constant(core.NewArrayOrder(4, 4, 4), 1)
	dst := grid.New(core.NewArrayOrder(4, 4, 4))
	o := defaultOpts()
	o.Workers = 2
	if err := ApplyViews([]grid.Reader{src}, []grid.Writer{dst}, o); err == nil {
		t.Error("view-count mismatch not rejected")
	}
	small := grid.New(core.NewArrayOrder(3, 4, 4))
	if err := ApplyViews([]grid.Reader{src, src}, []grid.Writer{dst, small}, o); err == nil {
		t.Error("dimension mismatch not rejected")
	}
}

func TestOptionValidation(t *testing.T) {
	src := volume.Constant(core.NewArrayOrder(4, 4, 4), 1)
	dst := grid.New(core.NewArrayOrder(4, 4, 4))
	if err := Apply(src, dst, Options{Radius: 0}); err == nil {
		t.Error("radius 0 not rejected")
	}
	if err := Apply(src, dst, Options{Radius: 1, SigmaSpatial: -1}); err == nil {
		t.Error("negative sigma not rejected")
	}
	if err := Apply(src, dst, Options{Radius: 1, SigmaRange: -0.1}); err == nil {
		t.Error("negative range sigma not rejected")
	}
	if err := Apply(src, dst, Options{Radius: 1, Workers: -1}); err == nil {
		t.Error("negative workers not rejected")
	}
	// Zero means "use the default" and must be accepted — validation runs
	// on the caller's values, not the post-default rewrite.
	if err := Apply(src, dst, Options{Radius: 1}); err != nil {
		t.Errorf("all-zero optional fields rejected: %v", err)
	}
	for _, fn := range []func(grid.Reader, grid.Writer, Options) error{
		Reference, GaussianConvolve, GaussianSeparable,
	} {
		if err := fn(src, dst, Options{Radius: 1, Workers: -1}); err == nil {
			t.Error("negative workers not rejected by a sibling entry point")
		}
	}
}

func TestOrderString(t *testing.T) {
	if XYZ.String() != "xyz" || ZYX.String() != "zyx" {
		t.Error("Order.String broken")
	}
}

func TestFastPathBitIdentical(t *testing.T) {
	// The flat fast path must produce bitwise-identical output to the
	// generic interface path for every layout, both stencil orders, and
	// both kernels. Non-separable layouts (Hilbert, HZ) silently stay on
	// the interface path, so they trivially agree — including them keeps
	// the toggle honest everywhere.
	const nx, ny, nz = 13, 6, 9
	base := volume.MRIPhantom(core.NewArrayOrder(nx, ny, nz), 8, 0.08)
	for _, kind := range core.Kinds() {
		src, err := base.Relayout(core.New(kind, nx, ny, nz))
		if err != nil {
			t.Fatal(err)
		}
		for _, order := range []Order{XYZ, ZYX} {
			fast := grid.New(core.New(kind, nx, ny, nz))
			slow := grid.New(core.New(kind, nx, ny, nz))
			o := Options{Radius: 2, Order: order, Workers: 3}
			if err := Apply(src, fast, o); err != nil {
				t.Fatal(err)
			}
			o.NoFastPath = true
			if err := Apply(src, slow, o); err != nil {
				t.Fatal(err)
			}
			if !grid.Equal(fast, slow) {
				t.Errorf("%v/%v: bilateral fast path not bit-identical (max diff %v)",
					kind, order, grid.MaxAbsDiff(fast, slow))
			}
		}
		fast := grid.New(core.New(kind, nx, ny, nz))
		slow := grid.New(core.New(kind, nx, ny, nz))
		o := Options{Radius: 2, Workers: 2}
		if err := GaussianConvolve(src, fast, o); err != nil {
			t.Fatal(err)
		}
		o.NoFastPath = true
		if err := GaussianConvolve(src, slow, o); err != nil {
			t.Fatal(err)
		}
		if !grid.Equal(fast, slow) {
			t.Errorf("%v: Gaussian fast path not bit-identical (max diff %v)",
				kind, grid.MaxAbsDiff(fast, slow))
		}
	}
}

func TestGaussianConvolveInstrumented(t *testing.T) {
	// GaussianConvolve must honor Stats and Observer like ApplyViews
	// does (it used to silently ignore both).
	const n = 8
	src := volume.MRIPhantom(core.NewArrayOrder(n, n, n), 9, 0.05)
	dst := grid.New(core.NewArrayOrder(n, n, n))
	var st parallel.Stats
	var observed int64
	o := defaultOpts()
	o.Workers = 2
	o.Stats = &st
	o.Observer = func(_, _ int, _ time.Time, _ time.Duration) {
		atomic.AddInt64(&observed, 1)
	}
	if err := GaussianConvolve(src, dst, o); err != nil {
		t.Fatal(err)
	}
	pencils := parallel.PencilCount(n, n, n, o.Axis)
	if st.Items != pencils {
		t.Errorf("stats report %d items, want %d pencils", st.Items, pencils)
	}
	if st.Strategy != "round-robin" {
		t.Errorf("stats strategy %q, want round-robin", st.Strategy)
	}
	var total int
	for _, w := range st.Workers {
		total += w.Items
	}
	if total != pencils {
		t.Errorf("worker item counts sum to %d, want %d", total, pencils)
	}
	if int(observed) != pencils {
		t.Errorf("observer saw %d pencils, want %d", observed, pencils)
	}
	// Stats alone (nil observer) must also work.
	st = parallel.Stats{}
	o.Observer = nil
	if err := GaussianConvolve(src, dst, o); err != nil {
		t.Fatal(err)
	}
	if st.Items != pencils {
		t.Errorf("stats-only run reported %d items, want %d", st.Items, pencils)
	}
}

func TestRangeWeightAccuracy(t *testing.T) {
	// The LUT's knots sit at i*binWidth with round-to-nearest lookup, so
	// a zero value difference must return exactly 1 (the old
	// floor-into-bin-centers scheme returned exp of a half-bin offset),
	// and the worst-case error against exact exp over the covered range
	// is bounded by the half-bin slope error plus the clipped tail.
	o := Options{Radius: 1, SigmaRange: 0.15}.withDefaults()
	k := newKernel(o, 1)
	if w := k.rangeWeight(0); w != 1 {
		t.Fatalf("rangeWeight(0) = %v, want exactly 1", w)
	}
	span := rangeLUTSpan * o.SigmaRange
	inv2sr := 1 / (2 * o.SigmaRange * o.SigmaRange)
	var worst float64
	for i := 0; i <= 20000; i++ {
		dv := span * 1.02 * float64(i) / 20000 // probe past the tail cutoff too
		exact := math.Exp(-dv * dv * inv2sr)
		if dv >= span*(1-0.5/rangeLUTSize) {
			exact = 0 // the LUT treats the tail as zero; exp there is ≤ exp(-8)
		}
		if d := math.Abs(k.rangeWeight(dv) - exact); d > worst {
			worst = d
		}
	}
	// Half-bin slope error is ≤ maxslope*binwidth/2 ≈ 2.4e-4 for span=4σ,
	// and the clipped tail costs exp(-8) ≈ 3.4e-4.
	if worst > 5e-4 {
		t.Errorf("worst-case LUT error %v exceeds 5e-4", worst)
	}
}

func TestGaussianConvolvePreservesConstant(t *testing.T) {
	src := volume.Constant(core.NewArrayOrder(8, 8, 8), 0.25)
	dst := grid.New(core.NewArrayOrder(8, 8, 8))
	if err := GaussianConvolve(src, dst, defaultOpts()); err != nil {
		t.Fatal(err)
	}
	if d := grid.MaxAbsDiff(src, dst); d > 1e-6 {
		t.Errorf("constant changed by %v", d)
	}
}

func TestOutputRangeBounded(t *testing.T) {
	// A weighted average can never escape the input range.
	src := volume.WhiteNoise(core.NewArrayOrder(10, 10, 10), 11)
	dst := grid.New(core.NewArrayOrder(10, 10, 10))
	o := Options{Radius: 2, SigmaSpatial: 1, SigmaRange: 0.3}
	if err := Apply(src, dst, o); err != nil {
		t.Fatal(err)
	}
	slo, shi := src.MinMax()
	dlo, dhi := dst.MinMax()
	if dlo < slo-1e-6 || dhi > shi+1e-6 {
		t.Errorf("output range [%v,%v] escapes input [%v,%v]", dlo, dhi, slo, shi)
	}
}

func variance(g *grid.Grid[float32]) float64 {
	nx, ny, nz := g.Dims()
	var sum, sq float64
	n := float64(nx * ny * nz)
	for k := 0; k < nz; k++ {
		for j := 0; j < ny; j++ {
			for i := 0; i < nx; i++ {
				v := float64(g.At(i, j, k))
				sum += v
				sq += v * v
			}
		}
	}
	mean := sum / n
	return sq/n - mean*mean
}

func BenchmarkBilateralR1Array(b *testing.B) { benchBilateral(b, core.ArrayKind, 1) }
func BenchmarkBilateralR1Z(b *testing.B)     { benchBilateral(b, core.ZKind, 1) }
func BenchmarkBilateralR2Array(b *testing.B) { benchBilateral(b, core.ArrayKind, 2) }
func BenchmarkBilateralR2Z(b *testing.B)     { benchBilateral(b, core.ZKind, 2) }

func benchBilateral(b *testing.B, kind core.Kind, radius int) {
	b.Helper()
	const n = 32
	src := volume.MRIPhantom(core.New(kind, n, n, n), 1, 0.05)
	dst := grid.New(core.New(kind, n, n, n))
	o := Options{Radius: radius, SigmaSpatial: 1.5, SigmaRange: 0.1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := Apply(src, dst, o); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBilateralDtypes(b *testing.B) {
	// The headline claim of the dtype extension: a uint8 volume (4x
	// smaller, integer range weights) should beat float32 at the large
	// radius where the kernel is bandwidth-bound. Same field for every
	// dtype — converted from one float32 phantom.
	const n = 32
	o := Options{Radius: 5, SigmaSpatial: 2.0, SigmaRange: 0.1}
	for _, kind := range []core.Kind{core.ArrayKind, core.ZKind, core.TiledKind, core.HilbertKind} {
		f32 := volume.MRIPhantom(core.New(kind, n, n, n), 1, 0.05)
		b.Run("float32/"+kind.String(), func(b *testing.B) {
			benchBilateralOf(b, f32, o)
		})
		b.Run("uint8/"+kind.String(), func(b *testing.B) {
			benchBilateralOf(b, grid.ConvertGrid[uint8](f32), o)
		})
	}
}

func benchBilateralOf[T grid.Scalar](b *testing.B, src *grid.Grid[T], o Options) {
	b.Helper()
	dst := grid.NewOf[T](src.Layout())
	b.SetBytes(int64(len(src.Data())) * int64(grid.DtypeFor[T]().Size()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ApplyCtxOf[T](context.Background(), src, dst, o); err != nil {
			b.Fatal(err)
		}
	}
}

func TestGaussianSeparableMatchesBruteForce(t *testing.T) {
	const n = 14
	src := volume.MRIPhantom(core.NewZOrder(n, n, n), 7, 0.1)
	brute := grid.New(core.NewZOrder(n, n, n))
	sep := grid.New(core.NewArrayOrder(n, n, n))
	for _, radius := range []int{1, 2, 3} {
		o := Options{Radius: radius, SigmaSpatial: 1.5, Workers: 3}
		if err := GaussianConvolve(src, brute, o); err != nil {
			t.Fatal(err)
		}
		if err := GaussianSeparable(src, sep, o); err != nil {
			t.Fatal(err)
		}
		if d := grid.MaxAbsDiff(brute, sep); d > 1e-5 {
			t.Errorf("radius %d: separable deviates by %v", radius, d)
		}
	}
}

func TestGaussianSeparableValidation(t *testing.T) {
	src := volume.Constant(core.NewArrayOrder(4, 4, 4), 1)
	small := grid.New(core.NewArrayOrder(3, 4, 4))
	if err := GaussianSeparable(src, small, defaultOpts()); err == nil {
		t.Error("dim mismatch accepted")
	}
	dst := grid.New(core.NewArrayOrder(4, 4, 4))
	if err := GaussianSeparable(src, dst, Options{Radius: 0}); err == nil {
		t.Error("radius 0 accepted")
	}
}

func BenchmarkGaussianBruteR3(b *testing.B)     { benchGaussian(b, false) }
func BenchmarkGaussianSeparableR3(b *testing.B) { benchGaussian(b, true) }

func benchGaussian(b *testing.B, separable bool) {
	b.Helper()
	const n = 32
	src := volume.MRIPhantom(core.NewArrayOrder(n, n, n), 1, 0.05)
	dst := grid.New(core.NewArrayOrder(n, n, n))
	o := Options{Radius: 3, SigmaSpatial: 2}
	fn := GaussianConvolve
	if separable {
		fn = GaussianSeparable
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := fn(src, dst, o); err != nil {
			b.Fatal(err)
		}
	}
}

func TestInPlaceRejected(t *testing.T) {
	g := volume.Constant(core.NewArrayOrder(6, 6, 6), 1)
	if err := Apply(g, g, defaultOpts()); err == nil {
		t.Error("in-place filtering accepted")
	}
	// Aliasing through traced views is also caught.
	var sink grid.CountingSink
	src := grid.NewTraced(g, 0, &sink)
	dst := grid.NewTraced(g, 1<<40, &sink)
	o := defaultOpts()
	o.Workers = 1
	if err := ApplyViews([]grid.Reader{src}, []grid.Writer{dst}, o); err == nil {
		t.Error("traced aliasing accepted")
	}
}

func TestNonCubicVolumes(t *testing.T) {
	// The kernels must handle unequal, non-power-of-two extents under
	// every layout (the padding happens inside the layouts).
	const nx, ny, nz = 13, 6, 9
	base := grid.FromFunc(core.NewArrayOrder(nx, ny, nz), func(i, j, k int) float32 {
		return float32(i+2*j+3*k) / float32(nx+2*ny+3*nz)
	})
	var ref *grid.Grid[float32]
	for _, kind := range core.Kinds() {
		src, err := base.Relayout(core.New(kind, nx, ny, nz))
		if err != nil {
			t.Fatal(err)
		}
		dst := grid.New(core.New(kind, nx, ny, nz))
		o := Options{Radius: 2, Axis: parallel.AxisY, Order: ZYX, Workers: 3}
		if err := Apply(src, dst, o); err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		if ref == nil {
			ref = dst
		} else if !grid.Equal(ref, dst) {
			t.Errorf("%v: non-cubic output differs", kind)
		}
	}
}
