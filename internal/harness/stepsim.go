package harness

// Cache-simulated index traffic of the bilateral stencil (DESIGN.md
// §13). The model runs through traced views, so it replays the
// interface path's per-tap access pattern, not the flat kernel's row
// gathers: once as data accesses alone (the stream an index walk that
// keeps its position in registers issues) and once with the per-axis
// offset-table loads that resolving every tap through the tables adds.
// Both replays touch the same data elements in the same order, so the
// difference between the two reports is the index traffic alone.
// SimBilatStepTraffic returns the two cache Reports side by side.

import (
	"context"

	"sfcmem/internal/cache"
	"sfcmem/internal/core"
	"sfcmem/internal/filter"
	"sfcmem/internal/grid"
)

// Simulated address-space bases for the offset tables: far from both
// the source volume (0) and the destination (dstBase), and from each
// other, so table lines never alias volume lines.
const (
	srcTableBase = 1 << 41
	dstTableBase = 1<<41 + 1<<20
)

// StepTraffic pairs the simulated reports for one bilateral
// configuration replayed as data accesses only (Step) and as data plus
// offset-table loads (Table, with the y/z lookups hoisted per
// row/plane and the x lookup per tap).
type StepTraffic struct {
	Step, Table cache.Report
}

// SimBilatStepTraffic replays one bilateral configuration through the
// cache simulator twice — without and with the table loads — and
// returns both reports. The data access streams are identical by
// construction; only the table loads differ.
func SimBilatStepTraffic(in *BilatInput, kind core.Kind, row BilatRow, threads int, platform cache.Platform) (StepTraffic, error) {
	var out StepTraffic
	src := in.Src[kind]
	nx, ny, nz := src.Dims()

	run := func(tables bool) (cache.Report, error) {
		dst := grid.New(core.New(kind, nx, ny, nz))
		sys := cache.NewSystem(platform, threads)
		srcs := make([]grid.Reader, threads)
		dsts := make([]grid.Writer, threads)
		for w := 0; w < threads; w++ {
			front := sys.Front(w)
			if tables {
				srcs[w] = grid.NewTracedTables(src, 0, srcTableBase, front)
				dsts[w] = grid.NewTracedTables(dst, dstBase, dstTableBase, front)
			} else {
				srcs[w] = grid.NewTraced(src, 0, front)
				dsts[w] = grid.NewTraced(dst, dstBase, front)
			}
		}
		o := row.options(threads)
		if err := filter.ApplyViewsCtx(context.Background(), srcs, dsts, o); err != nil {
			return cache.Report{}, err
		}
		return sys.Report(), nil
	}

	var err error
	if out.Step, err = run(false); err != nil {
		return out, err
	}
	if out.Table, err = run(true); err != nil {
		return out, err
	}
	return out, nil
}
