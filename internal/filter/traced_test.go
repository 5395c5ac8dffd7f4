package filter

import (
	"context"
	"math"
	"slices"
	"testing"

	"sfcmem/internal/core"
	"sfcmem/internal/grid"
	"sfcmem/internal/parallel"
	"sfcmem/internal/volume"
)

// The traced production path: a traced view under a separable layout
// takes the row-cached flat kernel and reports what that kernel really
// reads and writes. These tests pin its output, its access stream and
// its boundary with the interface path.

// tracedDstBase places traced destinations apart from their sources in
// the simulated address space.
const tracedDstBase = 1 << 40

// access is one reported memory access.
type access struct {
	addr  uint64
	write bool
}

// recorder is a sink that keeps every access in order.
type recorder struct{ log []access }

func (r *recorder) Access(addr uint64, write bool) { r.log = append(r.log, access{addr, write}) }

// tracedViews wraps src and dst in one traced view pair per worker, each
// worker's pair reporting to its own sink.
func tracedViews[T grid.Scalar](src, dst *grid.Grid[T], sinks []grid.Sink) ([]grid.ReaderOf[T], []grid.WriterOf[T]) {
	srcs := make([]grid.ReaderOf[T], len(sinks))
	dsts := make([]grid.WriterOf[T], len(sinks))
	for w, s := range sinks {
		srcs[w] = grid.NewTraced(src, 0, s)
		dsts[w] = grid.NewTraced(dst, tracedDstBase, s)
	}
	return srcs, dsts
}

// checkTracedFlat filters src into a fresh dstL grid through traced
// views on two workers and compares the destination bit for bit with
// the untraced flat run, for every pencil axis.
func checkTracedFlat[T grid.Scalar](t *testing.T, src *grid.Grid[T], dstL core.Layout) {
	t.Helper()
	for _, axis := range []parallel.Axis{parallel.AxisX, parallel.AxisY, parallel.AxisZ} {
		o := Options{Radius: 1, Axis: axis, Workers: 2}
		plain := grid.NewOf[T](dstL)
		if err := ApplyCtxOf[T](context.Background(), src, plain, o); err != nil {
			t.Fatal(err)
		}
		traced := grid.NewOf[T](dstL)
		srcs, dsts := tracedViews(src, traced, []grid.Sink{&grid.CountingSink{}, &grid.CountingSink{}})
		if err := ApplyViewsCtxOf(context.Background(), srcs, dsts, o); err != nil {
			t.Fatal(err)
		}
		if !grid.Equal(traced, plain) {
			t.Errorf("%s/%v/p%v: traced flat replay differs from the untraced run",
				src.Layout().Name(), grid.DtypeFor[T](), axis)
		}
	}
}

// TestTracedFlatBitIdentical: a traced replay writes exactly what the
// untraced flat run writes, for every separable layout × dtype × pencil
// axis.
func TestTracedFlatBitIdentical(t *testing.T) {
	for _, l := range gauntletLayouts(t) {
		nx, ny, nz := l.Dims()
		dstL := core.NewArrayOrder(nx, ny, nz)
		checkTracedFlat(t, volume.MRIPhantomOf[uint8](l, 5, 0.05), dstL)
		checkTracedFlat(t, volume.MRIPhantomOf[uint16](l, 5, 0.05), dstL)
		checkTracedFlat(t, volume.MRIPhantomOf[float32](l, 5, 0.05), dstL)
		checkTracedFlat(t, volume.MRIPhantomOf[float64](l, 5, 0.05), dstL)
	}
}

// wantStream is the access stream worker w of workers must report for
// an r-radius filter of src into dst along axis: for each of its
// round-robin pencils, every row the pencil gathers into the worker's
// row cache (one read per element, in row order), then one write per
// voxel in pencil order. The row cache is modelled independently: side²
// slots, row (b, c) in slot (b mod side)·side + (c mod side), gathered
// when its slot holds another row.
func wantStream[T grid.Scalar](src, dst *grid.Grid[T], axis parallel.Axis, r, w, workers int) []access {
	fs, _ := src.Flat()
	fd, _ := dst.Flat()
	elem := uint64(grid.DtypeFor[T]().Size())
	sa, sb, sc := onPencil(axis, fs.X, fs.Y, fs.Z)
	da, db, dc := onPencil(axis, fd.X, fd.Y, fd.Z)
	nb, nc := len(sb), len(sc)
	side := 2*r + 1
	tags := make([]int, side*side)
	for s := range tags {
		tags[s] = -1
	}
	nx, ny, nz := src.Dims()
	var out []access
	for p := w; p < parallel.PencilCount(nx, ny, nz, axis); p += workers {
		i, j, k, _ := parallel.PencilStart(nx, ny, nz, axis, p)
		_, b, c := onPencil(axis, i, j, k)
		for rb := max(b-r, 0); rb <= min(b+r, nb-1); rb++ {
			for rc := max(c-r, 0); rc <= min(c+r, nc-1); rc++ {
				s := rb%side*side + rc%side
				if tags[s] == rb*nc+rc {
					continue
				}
				tags[s] = rb*nc + rc
				for _, off := range sa {
					out = append(out, access{elem * uint64(off+sb[rb]+sc[rc]), false})
				}
			}
		}
		for _, off := range da {
			out = append(out, access{tracedDstBase + elem*uint64(off+db[b]+dc[c]), true})
		}
	}
	return out
}

// checkTracedStream compares each worker's reported stream with
// wantStream.
func checkTracedStream[T grid.Scalar](t *testing.T, src *grid.Grid[T], axis parallel.Axis) {
	t.Helper()
	const workers = 2
	nx, ny, nz := src.Dims()
	dst := grid.NewOf[T](core.NewArrayOrder(nx, ny, nz))
	recs := []*recorder{{}, {}}
	srcs, dsts := tracedViews(src, dst, []grid.Sink{recs[0], recs[1]})
	if err := ApplyViewsCtxOf(context.Background(), srcs, dsts, Options{Radius: 1, Axis: axis, Workers: workers}); err != nil {
		t.Fatal(err)
	}
	for w, rec := range recs {
		want := wantStream(src, dst, axis, 1, w, workers)
		if len(rec.log) != len(want) {
			t.Errorf("%s/%v/p%v worker %d: %d accesses, want %d",
				src.Layout().Name(), grid.DtypeFor[T](), axis, w, len(rec.log), len(want))
			continue
		}
		for i := range want {
			if rec.log[i] != want[i] {
				t.Errorf("%s/%v/p%v worker %d: access %d is %+v, want %+v",
					src.Layout().Name(), grid.DtypeFor[T](), axis, w, i, rec.log[i], want[i])
				break
			}
		}
	}
}

// TestTracedFlatStream: a recording sink sees the row gathers and then
// one write per voxel, pencil by pencil, per worker; and at 32³ r1 the
// traced production path reads 7× less than the per-tap model.
func TestTracedFlatStream(t *testing.T) {
	bit, err := core.NewBitLayout(13, 6, 9, "xxyyzzxyzxz")
	if err != nil {
		t.Fatal(err)
	}
	for _, axis := range []parallel.Axis{parallel.AxisX, parallel.AxisY, parallel.AxisZ} {
		checkTracedStream(t, volume.MRIPhantomOf[float32](core.NewZOrder(13, 6, 9), 3, 0.05), axis)
		checkTracedStream(t, volume.MRIPhantomOf[uint8](bit, 3, 0.05), axis)
	}

	const n = 32
	src := volume.MRIPhantom(core.NewZOrder(n, n, n), 1, 0.05)
	for _, c := range []struct {
		noFast bool
		reads  uint64
	}{{false, 96256}, {true, 863352}} {
		var sink grid.CountingSink
		srcs, dsts := tracedViews(src, grid.New(core.NewArrayOrder(n, n, n)), []grid.Sink{&sink})
		if err := ApplyViewsCtxOf(context.Background(), srcs, dsts, Options{Radius: 1, Workers: 1, NoFastPath: c.noFast}); err != nil {
			t.Fatal(err)
		}
		if sink.Reads != c.reads || sink.Writes != n*n*n {
			t.Errorf("NoFastPath=%v: %d reads + %d writes, want %d + %d", c.noFast, sink.Reads, sink.Writes, c.reads, n*n*n)
		}
	}
}

// TestTracedFlatRawReread: where a non-finite center leaves the stencil
// weightless, the kernel copies the raw center sample, and the stream
// shows that read right before the voxel's write. (Whether a NaN
// center is weightless depends on how the platform converts NaN to
// int, so the re-read is allowed, not required.)
func TestTracedFlatRawReread(t *testing.T) {
	const n, ni, nj, nk = 8, 3, 4, 5
	l := core.NewZOrder(n, n, n)
	stream := func(src *grid.Grid[float32]) []access {
		rec := &recorder{}
		srcs, dsts := tracedViews(src, grid.New(core.NewArrayOrder(n, n, n)), []grid.Sink{rec})
		if err := ApplyViewsCtxOf(context.Background(), srcs, dsts, Options{Radius: 1, Workers: 1}); err != nil {
			t.Fatal(err)
		}
		return rec.log
	}
	clean := stream(volume.MRIPhantom(l, 9, 0.05))
	nan := volume.MRIPhantom(l, 9, 0.05)
	nan.Set(ni, nj, nk, float32(math.NaN()))
	got := stream(nan)
	write := access{tracedDstBase + 4*uint64(core.NewArrayOrder(n, n, n).Index(ni, nj, nk)), true}
	at := slices.Index(clean, write)
	reread := access{4 * uint64(l.Index(ni, nj, nk)), false}
	switch {
	case slices.Equal(got, clean):
	case slices.Equal(got, slices.Insert(slices.Clone(clean), at, reread)):
	default:
		t.Errorf("NaN voxel's stream is neither the clean stream nor it plus the center re-read before write %d", at)
	}
}

// TestTracedNonSeparableStaysPerTap: a traced Hilbert or HZ volume has
// no flat view, so it keeps the interface path and reports exactly the
// per-tap model's accesses.
func TestTracedNonSeparableStaysPerTap(t *testing.T) {
	const n = 8
	for _, kind := range []core.Kind{core.HilbertKind, core.HZKind} {
		src := volume.MRIPhantom(core.New(kind, n, n, n), 4, 0.05)
		var logs [2][]access
		for p, noFast := range []bool{false, true} {
			recs := []*recorder{{}, {}}
			srcs, dsts := tracedViews(src, grid.New(core.NewArrayOrder(n, n, n)), []grid.Sink{recs[0], recs[1]})
			o := Options{Radius: 1, Workers: 2, NoFastPath: noFast}
			if err := ApplyViewsCtxOf(context.Background(), srcs, dsts, o); err != nil {
				t.Fatal(err)
			}
			logs[p] = append(recs[0].log, recs[1].log...)
		}
		if len(logs[0]) != len(logs[1]) {
			t.Fatalf("%v: %d accesses, per-tap model %d", kind, len(logs[0]), len(logs[1]))
		}
		for i := range logs[0] {
			if logs[0][i] != logs[1][i] {
				t.Fatalf("%v: access %d is %+v, per-tap model %+v", kind, i, logs[0][i], logs[1][i])
			}
		}
	}
}
