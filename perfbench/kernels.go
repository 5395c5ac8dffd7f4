package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"math"
	"math/rand/v2"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"time"

	"sfcmem/internal/core"
	"sfcmem/internal/filter"
	"sfcmem/internal/grid"
	"sfcmem/internal/render"
	"sfcmem/internal/volume"
)

// Sizes of the kernels workload. The 256³ float32 plume is 64 MiB, 32×
// a 2 MiB per-core L2; bilateral runs at 128³ because a 256³ pass takes
// seconds per layout. Frames are 128², so a sweep lasts a few seconds
// and a run holds enough sweeps for per-cell medians.
const (
	orbitN     = 256 // plume edge
	orbitFrame = 128 // frame edge
	orbitViews = 8
	filterN    = 128
	// kernelSetupReps and serveSetupReps are how many times each
	// workload sets up; setup_s is the median. A kernels set-up
	// generates a 256³ plume (seconds), a serve set-up about a second.
	kernelSetupReps = 3
	serveSetupReps  = 5
)

// renderLayouts and filterLayouts name the layouts each kernel sweeps;
// "array" comes first and is the reference for the bit-identity check.
var (
	renderLayouts = []string{"array", "zorder"}
	filterLayouts = []string{"array", "zorder", "ztiled", "bit"}
)

func layoutFor(name string, n int) core.Layout {
	switch name {
	case "array":
		return core.New(core.ArrayKind, n, n, n)
	case "zorder":
		return core.New(core.ZKind, n, n, n)
	case "ztiled":
		return core.NewZTiled(n, n, n, 8)
	case "bit":
		l, err := core.ParseSpec(bitSpec(n), n, n, n)
		if err != nil {
			panic(err)
		}
		return l
	}
	panic("unknown layout " + name)
}

// bitSpec is the fixed generalized-Morton layout of the sweeps at edge
// n (a power of two ≥ 4), LSB first: 4³ row-major bricks in Z order.
func bitSpec(n int) string {
	spec := core.BitSpecPrefix + "xxyyzz"
	for n > 4 {
		spec += "xyz"
		n /= 2
	}
	return spec
}

// kernelInputs holds the generated volumes and the reused filter
// destinations.
type kernelInputs struct {
	plume map[string]*grid.Grid[float32]
	mri   map[string]*grid.Grid[float32]
	dst   map[string]*grid.Grid[float32]
}

func (b *bench) setupKernels() (*kernelInputs, error) {
	in := &kernelInputs{plume: map[string]*grid.Grid[float32]{}, mri: map[string]*grid.Grid[float32]{}, dst: map[string]*grid.Grid[float32]{}}
	end := b.rec.begin("volume", "plume", "")
	plume := volume.CombustionPlume(layoutFor("array", orbitN), b.cfg.seed)
	end()
	end = b.rec.begin("volume", "mri", "")
	mri := volume.MRIPhantom(layoutFor("array", filterN), b.cfg.seed, 0.02)
	end()
	in.plume["array"], in.mri["array"] = plume, mri
	for _, name := range renderLayouts[1:] {
		end := b.rec.begin("grid", "relayout", "")
		g, err := plume.Relayout(layoutFor(name, orbitN))
		end()
		if err != nil {
			return nil, err
		}
		in.plume[name] = g
	}
	for _, name := range filterLayouts {
		l := layoutFor(name, filterN)
		if name != "array" {
			end := b.rec.begin("grid", "relayout", "")
			g, err := mri.Relayout(l)
			end()
			if err != nil {
				return nil, err
			}
			in.mri[name] = g
		}
		in.dst[name] = grid.New(l)
	}
	return in, nil
}

// kernelOp is one library call of the kernels schedule.
type kernelOp struct {
	class  string // "frame" or "filter_pass"
	layout string
	view   int
}

// kernelSweep is one sweep: the 8-view orbit in both render layouts and
// one bilateral pass per filter layout, interleaved so that host drift
// hits every layout alike. The layout order rotates with the sweep
// index; the schedule does not depend on the seed.
func kernelSweep(sweep int) []kernelOp {
	var ops []kernelOp
	for v := 0; v < orbitViews; v++ {
		for i := range renderLayouts {
			l := renderLayouts[(i+v+sweep)%len(renderLayouts)]
			ops = append(ops, kernelOp{"frame", l, v})
		}
		if v%2 == 1 {
			l := filterLayouts[(v/2+sweep)%len(filterLayouts)]
			ops = append(ops, kernelOp{"filter_pass", l, 0})
		}
	}
	return ops
}

// hasher streams float32 samples into sha256 through one reused
// buffer, so checking outputs leaves no garbage behind.
type hasher struct {
	h   hash.Hash
	buf []byte
}

func newHasher() *hasher { return &hasher{h: sha256.New(), buf: make([]byte, 0, 64<<10)} }

func (x *hasher) add(f float32) {
	x.buf = binary.LittleEndian.AppendUint32(x.buf, math.Float32bits(f))
	if len(x.buf) == cap(x.buf) {
		x.h.Write(x.buf)
		x.buf = x.buf[:0]
	}
}

func (x *hasher) sum() (out [32]byte) {
	x.h.Write(x.buf)
	x.h.Sum(out[:0])
	x.h.Reset()
	x.buf = x.buf[:0]
	return out
}

var outHash = newHasher()

func frameHash(img *render.Image) [32]byte {
	for y := 0; y < img.H; y++ {
		for x := 0; x < img.W; x++ {
			c := img.At(x, y)
			outHash.add(c.R)
			outHash.add(c.G)
			outHash.add(c.B)
			outHash.add(c.A)
		}
	}
	return outHash.sum()
}

// gridHash hashes the samples in logical (i fastest) order, so equal
// volumes hash equal under any layout.
func gridHash(g *grid.Grid[float32]) [32]byte {
	nx, ny, nz := g.Dims()
	for k := 0; k < nz; k++ {
		for j := 0; j < ny; j++ {
			for i := 0; i < nx; i++ {
				outHash.add(g.At(i, j, k))
			}
		}
	}
	return outHash.sum()
}

// kernelRun executes one op and returns its wall time and output hash.
func (b *bench) kernelRun(in *kernelInputs, op kernelOp) (time.Duration, [32]byte, error) {
	switch op.class {
	case "frame":
		cam := render.Orbit(op.view, orbitViews, orbitN, orbitN, orbitN, orbitFrame, orbitFrame)
		end := b.rec.begin("render", op.layout+"."+viewKind(op.view), "")
		t0 := time.Now()
		img, err := render.Render(in.plume[op.layout], cam, render.DefaultTransferFunc(), render.Options{Workers: 1})
		d := time.Since(t0)
		end()
		if err != nil {
			return d, [32]byte{}, err
		}
		return d, frameHash(img), nil
	default:
		end := b.rec.begin("filter", op.layout, "")
		t0 := time.Now()
		err := filter.Apply(in.mri[op.layout], in.dst[op.layout], filter.Options{Radius: 1, Axis: 0, Workers: 1})
		d := time.Since(t0)
		end()
		if err != nil {
			return d, [32]byte{}, err
		}
		return d, gridHash(in.dst[op.layout]), nil
	}
}

// viewKind splits the orbit: even views look down an axis, odd views
// cross the volume obliquely.
func viewKind(view int) string {
	if view%2 == 0 {
		return "aligned"
	}
	return "oblique"
}

func runKernels(b *bench) error {
	if b.cfg.setupOnly {
		_, err := b.setupKernels()
		return err
	}
	// Set-up repetitions run in fresh processes, so their memory stays
	// out of this process's peak RSS; the last one is this process's.
	if err := b.setupInChildren(kernelSetupReps - 1); err != nil {
		return err
	}
	t0 := time.Now()
	in, err := b.setupKernels()
	if err != nil {
		return err
	}
	b.setups.add(time.Since(t0))
	// Warm-up: a small frame per render layout runs the code paths once,
	// and writing the reused destinations faults their pages in, so
	// neither lands in the first timed op.
	for _, l := range renderLayouts {
		cam := render.Orbit(1, orbitViews, orbitN, orbitN, orbitN, 64, 64)
		if _, err := render.Render(in.plume[l], cam, render.DefaultTransferFunc(), render.Options{Workers: 1}); err != nil {
			return err
		}
	}
	for _, g := range in.dst {
		clear(g.Data())
	}
	runtime.GC()

	// Each op is a sample of its cell (cellClass); per sweep, output
	// hashes and errors per op.
	hashes := map[kernelOp][32]byte{}
	errs := map[kernelOp]error{}
	run := func(op kernelOp) (string, error) {
		d, h, err := b.kernelRun(in, op)
		b.sample(cellClass(op), d)
		hashes[op], errs[op] = h, err
		return "", nil
	}
	// Bit identity: every layout's output equals array order's.
	sweeps := 0
	endSweep := func() {
		sweeps++
		for op, h := range hashes {
			err := errs[op]
			ref := kernelOp{op.class, "array", op.view}
			if err == nil {
				err = sameHash(h, hashes[ref], fmt.Sprintf("%s %s view %d", op.class, op.layout, op.view))
			}
			b.tally(op.class, err)
		}
		clear(hashes)
		clear(errs)
		// Collect the sweep's frames now, so peak RSS does not depend
		// on how many sweeps fit the budget.
		runtime.GC()
	}
	// Whole sweeps only: stop at the sweep count nearest the budget
	// (at least two, the exact-count window).
	done := func(el time.Duration) bool { return el.Seconds()*(1+0.5/float64(sweeps)) >= b.cfg.seconds }
	timed, err := closedLoop(b, nil, nil, func(r int, _ *rand.Rand) []kernelOp { return kernelSweep(r) }, run, endSweep, done)
	if err != nil {
		return err
	}
	return b.finish(timed, strconv.Itoa(os.Getpid()), kernelMetrics)
}

// cellClass is an op's cell: one frame of one view in one layout, or
// one filter pass in one layout. A cell's samples are homogeneous.
func cellClass(op kernelOp) string {
	if op.class == "frame" {
		return fmt.Sprintf("frame/%s/%d", op.layout, op.view)
	}
	return "filter/" + op.layout
}

// kernelMetrics: primary_ms is the orbit, the sum over its 16 cells (8
// views × 2 layouts) of each cell's median frame time; secondary_ms
// the filter sweep, the same over the 4 layouts' bilateral passes. A
// host slowdown lasting a few seconds hits a minority of each cell's
// samples, which the cell's median leaves out.
func kernelMetrics(b *bench, s map[string][]float64, _ bool) error {
	var orbit, filt []string
	for _, l := range renderLayouts {
		for v := 0; v < orbitViews; v++ {
			orbit = append(orbit, cellClass(kernelOp{"frame", l, v}))
		}
	}
	for _, l := range filterLayouts {
		filt = append(filt, cellClass(kernelOp{"filter_pass", l, 0}))
	}
	b.putCellSum("primary_ms", "orbit: sum of 16 cell medians", s, orbit)
	b.putCellSum("secondary_ms", "filter sweep: sum of 4 cell medians", s, filt)
	return nil
}

// setupInChildren times n runs of this binary with -setup-only, each
// from process start to exit.
func (b *bench) setupInChildren(n int) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		cmd := exec.Command(self, "-workload", b.cfg.workload, "-seed", strconv.FormatUint(b.cfg.seed, 10),
			"-workdir", b.cfg.workDir, "-setup-only")
		cmd.Stderr = os.Stderr
		b.setups.calibrate()
		t0 := time.Now()
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("set-up repetition: %w", err)
		}
		b.setups.add(time.Since(t0))
	}
	b.setups.calibrate() // for this process's own set-up, just before
	return nil
}

func sameHash(got, want [32]byte, what string) error {
	if got != want {
		return fmt.Errorf("%s: sha256 %x differs from array order's %x", what, got[:6], want[:6])
	}
	return nil
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}
