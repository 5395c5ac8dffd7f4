// Package parallel implements the paper's two shared-memory work
// distribution strategies:
//
//   - round-robin pencil assignment (§III-A): the bilateral filter hands
//     out 1-D "pencils" of output voxels — width-, height-, or depth-rows
//     — to threads in round-robin order;
//   - a dynamic worker-pool queue (§III-B): the volume renderer's 32×32
//     image tiles are served from a shared queue, the strategy the paper
//     cites as its reason for using raw threads over OpenMP.
//
// Both run the caller's function on plain goroutines; with one worker
// they degrade to a deterministic serial loop.
package parallel

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Axis selects the pencil direction.
type Axis int

// Pencil axes. The paper's configurations are AxisX ("px", width rows,
// favorable for array order) and AxisZ ("pz", depth rows, the
// against-the-grain case).
const (
	AxisX Axis = iota
	AxisY
	AxisZ
)

// String returns the paper's label for the axis ("px", "py", "pz").
func (a Axis) String() string {
	switch a {
	case AxisX:
		return "px"
	case AxisY:
		return "py"
	case AxisZ:
		return "pz"
	}
	return fmt.Sprintf("Axis(%d)", int(a))
}

// PencilCount returns how many pencils an nx×ny×nz volume decomposes
// into along the given axis (the product of the two other extents).
func PencilCount(nx, ny, nz int, axis Axis) int {
	switch axis {
	case AxisX:
		return ny * nz
	case AxisY:
		return nx * nz
	case AxisZ:
		return nx * ny
	}
	panic("parallel: invalid axis")
}

// PencilStart returns the fixed coordinates of pencil p and the extent
// of its varying axis. For AxisX, pencil p covers (0..nx-1, j, k) with
// j = p mod ny, k = p / ny; analogously for the other axes.
func PencilStart(nx, ny, nz int, axis Axis, p int) (i, j, k, length int) {
	switch axis {
	case AxisX:
		return 0, p % ny, p / ny, nx
	case AxisY:
		return p % nx, 0, p / nx, ny
	case AxisZ:
		return p % nx, p / nx, 0, nz
	}
	panic("parallel: invalid axis")
}

// PencilStep returns the per-element index increment along the pencil.
func PencilStep(axis Axis) (di, dj, dk int) {
	switch axis {
	case AxisX:
		return 1, 0, 0
	case AxisY:
		return 0, 1, 0
	case AxisZ:
		return 0, 0, 1
	}
	panic("parallel: invalid axis")
}

// RoundRobin runs fn(workerID, item) for every item in [0, items) using
// the given number of workers; worker w handles items w, w+workers,
// w+2*workers, ... in order — the paper's round-robin pencil handout.
// With workers == 1 it is a plain deterministic loop. It panics if
// workers < 1.
func RoundRobin(items, workers int, fn func(worker, item int)) {
	if workers < 1 {
		panic("parallel: workers must be >= 1")
	}
	if workers == 1 {
		for i := 0; i < items; i++ {
			fn(0, i)
		}
		return
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < items; i += workers {
				fn(w, i)
			}
		}(w)
	}
	wg.Wait()
}

// Dynamic runs fn(workerID, item) for every item in [0, items) using a
// shared atomic queue: each worker repeatedly claims the next unclaimed
// item. This is the paper's worker-pool model for the renderer's tile
// decomposition. It panics if workers < 1.
func Dynamic(items, workers int, fn func(worker, item int)) {
	if workers < 1 {
		panic("parallel: workers must be >= 1")
	}
	if workers == 1 {
		for i := 0; i < items; i++ {
			fn(0, i)
		}
		return
	}
	var next int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := int(atomic.AddInt64(&next, 1) - 1)
				if i >= items {
					return
				}
				fn(w, i)
			}
		}(w)
	}
	wg.Wait()
}

// Observer receives one completed work item from an instrumented run:
// which worker ran item, when it started, and how long it took. Passing
// a nil Observer disables per-item timing entirely, leaving only the
// two per-worker clock reads.
type Observer func(worker, item int, start time.Time, dur time.Duration)

// WorkerStat is one worker's share of an instrumented run.
type WorkerStat struct {
	// Items is how many work items the worker executed.
	Items int `json:"items"`
	// Busy is the worker's span from its first item start to its last
	// item end — for these strategies workers never block mid-run, so
	// the span is working time. A worker that got no items has zero.
	Busy time.Duration `json:"busy_ns"`
}

// Stats summarizes an instrumented run. The paper's §III compares the
// round-robin and dynamic-queue strategies by how evenly they spread
// work; ImbalanceFactor is that comparison as a single number.
type Stats struct {
	// Strategy is "round-robin" or "dynamic".
	Strategy string `json:"strategy"`
	// Items is the total work-item count.
	Items int `json:"items"`
	// Elapsed is the wall-clock of the whole run (all workers).
	Elapsed time.Duration `json:"elapsed_ns"`
	// Workers holds one entry per worker.
	Workers []WorkerStat `json:"workers"`
}

// ImbalanceFactor returns max(busy)/mean(busy) across workers: 1.0 is a
// perfectly balanced run, W is one worker doing everything while W-1
// idle. Returns 0 when nothing ran.
func (s Stats) ImbalanceFactor() float64 {
	var sum, max time.Duration
	for _, w := range s.Workers {
		sum += w.Busy
		if w.Busy > max {
			max = w.Busy
		}
	}
	if sum == 0 || len(s.Workers) == 0 {
		return 0
	}
	mean := float64(sum) / float64(len(s.Workers))
	return float64(max) / mean
}

// instrumentedShell runs body once per worker (inline for one worker,
// preserving the plain strategies' serial determinism) and assembles the
// Stats. Each worker's bookkeeping is local until its single WorkerStat
// store at the end, so the shell adds no shared-memory traffic to the
// measured loops.
func instrumentedShell(strategy string, items, workers int, body func(w int) WorkerStat) Stats {
	st := Stats{Strategy: strategy, Items: items, Workers: make([]WorkerStat, workers)}
	begin := time.Now()
	if workers == 1 {
		st.Workers[0] = body(0)
	} else {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				st.Workers[w] = body(w)
			}(w)
		}
		wg.Wait()
	}
	st.Elapsed = time.Since(begin)
	return st
}

// RoundRobinInstrumented is RoundRobin with per-worker accounting: it
// returns each worker's item count and busy time, and optionally reports
// every completed item to obs. Semantics (ordering, determinism with one
// worker, panics) match RoundRobin. With a nil obs the measured loop is
// the plain strategy's loop plus a local counter and two clock reads per
// worker — overhead below the benchmarks' noise floor.
func RoundRobinInstrumented(items, workers int, fn func(worker, item int), obs Observer) Stats {
	if workers < 1 {
		panic("parallel: workers must be >= 1")
	}
	if obs == nil {
		return instrumentedShell("round-robin", items, workers, func(w int) (ws WorkerStat) {
			if w >= items {
				return
			}
			first := time.Now()
			for i := w; i < items; i += workers {
				fn(w, i)
				ws.Items++
			}
			ws.Busy = time.Since(first)
			return
		})
	}
	return instrumentedShell("round-robin", items, workers, func(w int) (ws WorkerStat) {
		var first, last time.Time
		for i := w; i < items; i += workers {
			start := time.Now()
			if ws.Items == 0 {
				first = start
			}
			fn(w, i)
			// Take the end stamp before handing the item to obs, so the
			// observer's own execution time never lands in Busy (or in
			// the item duration it is reported).
			last = time.Now()
			obs(w, i, start, last.Sub(start))
			ws.Items++
		}
		if ws.Items > 0 {
			ws.Busy = last.Sub(first)
		}
		return
	})
}

// DynamicInstrumented is Dynamic with per-worker accounting; see
// RoundRobinInstrumented.
func DynamicInstrumented(items, workers int, fn func(worker, item int), obs Observer) Stats {
	if workers < 1 {
		panic("parallel: workers must be >= 1")
	}
	if workers == 1 {
		// Like plain Dynamic, a single worker drains the queue in order
		// with no atomics.
		return instrumentedShell("dynamic", items, 1, func(_ int) (ws WorkerStat) {
			if items == 0 {
				return
			}
			first := time.Now()
			if obs == nil {
				for i := 0; i < items; i++ {
					fn(0, i)
					ws.Items++
				}
				ws.Busy = time.Since(first)
			} else {
				var last time.Time
				for i := 0; i < items; i++ {
					start := time.Now()
					fn(0, i)
					// End stamp before obs: see RoundRobinInstrumented.
					last = time.Now()
					obs(0, i, start, last.Sub(start))
					ws.Items++
				}
				ws.Busy = last.Sub(first)
			}
			return
		})
	}
	var next int64
	claim := func() int {
		i := int(atomic.AddInt64(&next, 1) - 1)
		if i >= items {
			return -1
		}
		return i
	}
	if obs == nil {
		return instrumentedShell("dynamic", items, workers, func(w int) (ws WorkerStat) {
			var first time.Time
			for {
				i := claim()
				if i < 0 {
					break
				}
				if ws.Items == 0 {
					first = time.Now()
				}
				fn(w, i)
				ws.Items++
			}
			if ws.Items > 0 {
				ws.Busy = time.Since(first)
			}
			return
		})
	}
	return instrumentedShell("dynamic", items, workers, func(w int) (ws WorkerStat) {
		var first, last time.Time
		for {
			i := claim()
			if i < 0 {
				break
			}
			start := time.Now()
			if ws.Items == 0 {
				first = start
			}
			fn(w, i)
			// End stamp before obs: see RoundRobinInstrumented.
			last = time.Now()
			obs(w, i, start, last.Sub(start))
			ws.Items++
		}
		if ws.Items > 0 {
			ws.Busy = last.Sub(first)
		}
		return
	})
}

// Tile is a rectangular region of an image: pixels [X0,X1) × [Y0,Y1).
type Tile struct {
	X0, Y0, X1, Y1 int
}

// Tiles decomposes a width×height image into size×size tiles (the
// paper uses 32×32), with partial tiles at the right/bottom edges.
// Tiles are ordered row-major.
func Tiles(width, height, size int) []Tile {
	if size <= 0 {
		panic("parallel: tile size must be positive")
	}
	var ts []Tile
	for y := 0; y < height; y += size {
		for x := 0; x < width; x += size {
			t := Tile{X0: x, Y0: y, X1: x + size, Y1: y + size}
			if t.X1 > width {
				t.X1 = width
			}
			if t.Y1 > height {
				t.Y1 = height
			}
			ts = append(ts, t)
		}
	}
	return ts
}
