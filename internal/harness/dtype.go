package harness

// Fig 11 (extension): the element-dtype sweep. The paper stores float32
// samples; the generic data plane also runs every kernel over uint8,
// uint16 and float64 volumes. This figure measures what the element
// width buys: narrow dtypes shrink the working set 4x (uint8) or 2x
// (uint16), which moves the cache-capacity knee the same way a bigger
// cache would — the space-filling-curve story at a different axis.

import (
	"context"
	"fmt"
	"time"

	"sfcmem/internal/core"
	"sfcmem/internal/filter"
	"sfcmem/internal/grid"
	"sfcmem/internal/stats"
)

// DtypeList resolves the configured dtype names, defaulting to every
// supported dtype when the list is empty.
func (c Config) DtypeList() ([]grid.Dtype, error) {
	if len(c.Dtypes) == 0 {
		return grid.Dtypes(), nil
	}
	out := make([]grid.Dtype, len(c.Dtypes))
	for i, name := range c.Dtypes {
		dt, err := grid.ParseDtype(name)
		if err != nil {
			return nil, err
		}
		out[i] = dt
	}
	return out, nil
}

// dtypeRunner erases one Scalar instantiation behind closures so the
// figure loop can iterate run-time dtype values while every kernel call
// stays monomorphized.
type dtypeRunner struct {
	dt    grid.Dtype
	bytes func(kind core.Kind) int64
	run   func(ctx context.Context, kind core.Kind, o filter.Options) (time.Duration, error)
}

// newDtypeRunner converts the float32 phantoms into T once per layout
// (through the shared normalized domain, so every dtype filters the
// same field) and captures the typed bilateral invocation.
func newDtypeRunner[T grid.Scalar](srcs map[core.Kind]*grid.Grid[float32]) dtypeRunner {
	conv := make(map[core.Kind]*grid.Grid[T], len(srcs))
	for kind, g := range srcs {
		conv[kind] = grid.ConvertGrid[T](g)
	}
	elem := int64(grid.DtypeFor[T]().Size())
	return dtypeRunner{
		dt: grid.DtypeFor[T](),
		bytes: func(kind core.Kind) int64 {
			return int64(len(conv[kind].Data())) * elem
		},
		run: func(ctx context.Context, kind core.Kind, o filter.Options) (time.Duration, error) {
			src := conv[kind]
			dst := grid.NewOf[T](src.Layout())
			start := time.Now()
			if err := filter.ApplyCtxOf[T](ctx, src, dst, o); err != nil {
				return 0, err
			}
			return time.Since(start), nil
		},
	}
}

func makeDtypeRunner(dt grid.Dtype, srcs map[core.Kind]*grid.Grid[float32]) dtypeRunner {
	switch dt {
	case grid.U8:
		return newDtypeRunner[uint8](srcs)
	case grid.U16:
		return newDtypeRunner[uint16](srcs)
	case grid.F64:
		return newDtypeRunner[float64](srcs)
	default:
		return newDtypeRunner[float32](srcs)
	}
}

// fig11 runs the dtype sweep: the bilateral filter at the largest
// configured stencil, px/xyz, at the fixed thread count, for every
// configured dtype under each of the paper's four layouts. Three
// tables: absolute runtime, runtime scaled-relative-difference against
// float32 (positive = this dtype faster), and the volume buffer size.
func fig11(cfg Config, progress func(string), ins *Instruments) (FigureResult, error) {
	dtypes, err := cfg.DtypeList()
	if err != nil {
		return FigureResult{}, err
	}
	size := cfg.BilatSize
	radius := cfg.Radii[len(cfg.Radii)-1] // largest stencil: most work per byte held
	row := BilatRow{Label: radius.Label + " px xyz", Radius: radius.Radius}
	o := row.options(cfg.FixedThreads)
	o.NoFastPath = cfg.NoFastPath
	kinds := []core.Kind{core.ArrayKind, core.ZKind, core.TiledKind, core.HilbertKind}

	in := NewBilatInput(size, cfg.Seed)
	runners := make([]dtypeRunner, len(dtypes))
	for i, dt := range dtypes {
		runners[i] = makeDtypeRunner(dt, in.Src)
	}

	rowLabels := make([]string, len(dtypes))
	for i, dt := range dtypes {
		rowLabels[i] = dt.String()
	}
	colLabels := make([]string, len(kinds))
	for i, k := range kinds {
		colLabels[i] = k.String()
	}
	title := fmt.Sprintf("Fig 11%%s (extension) — Bilat3d %s %d³, %d threads", row.Label, size, cfg.FixedThreads)
	rt := stats.NewTable(fmt.Sprintf(title, "a")+": runtime (s) by element dtype", rowLabels, colLabels)
	rt.Format = "%10.3f"
	ds := stats.NewTable(fmt.Sprintf(title, "b")+": ds runtime (float32 vs dtype)", rowLabels, colLabels)
	mem := stats.NewTable(fmt.Sprintf(title, "c")+": volume buffer MiB (with layout padding)", rowLabels, colLabels)
	mem.Format = "%10.1f"

	reps := cfg.Reps
	if reps < 1 {
		reps = 1
	}
	best := make([][]float64, len(runners))
	for i := range best {
		best[i] = make([]float64, len(kinds))
	}
	// Interleave repetitions dtype-by-dtype within each layout so slow
	// host drift cannot bias one dtype's minimum.
	for ki, kind := range kinds {
		for rep := 0; rep < reps; rep++ {
			for di, r := range runners {
				if progress != nil {
					progress(fmt.Sprintf("fig11 %s %s rep=%d", kind, r.dt, rep))
				}
				d, err := r.run(context.Background(), kind, o)
				if err != nil {
					return FigureResult{}, err
				}
				if s := d.Seconds(); rep == 0 || s < best[di][ki] {
					best[di][ki] = s
				}
			}
		}
	}
	var f32Row []float64
	for di, r := range runners {
		if r.dt == grid.F32 {
			f32Row = best[di]
		}
	}
	for di, r := range runners {
		for ki, kind := range kinds {
			rt.Set(di, ki, best[di][ki])
			if f32Row != nil {
				ds.Set(di, ki, stats.ScaledRelDiff(f32Row[ki], best[di][ki]))
			}
			mem.Set(di, ki, float64(r.bytes(kind))/(1<<20))
			ins.RecordCell(CellRecord{
				Kernel:   "bilat-dtype",
				Row:      r.dt.String() + " " + kind.String(),
				Threads:  cfg.FixedThreads,
				RuntimeA: best[di][ki],
			})
		}
	}
	text := rt.String() + "\n" + ds.String() + "\n" + mem.String()
	return FigureResult{Name: "fig11", Text: text, Tables: []*stats.Table{rt, ds, mem}}, nil
}
