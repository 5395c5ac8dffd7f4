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
// Both are one worker loop (run) that differs only in how a worker
// claims its next item. It runs the caller's function on plain
// goroutines, degrades to a deterministic serial loop with one worker,
// stops handing out items when the caller's context is cancelled, and
// returns per-worker Stats.
package parallel

import (
	"context"
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

// RoundRobin runs fn(workerID, item) for every item in [0, items) on
// the given number of workers; worker w handles items w, w+workers,
// w+2*workers, ... in order — the paper's round-robin pencil handout.
// See run for cancellation, Stats and the observer.
func RoundRobin(ctx context.Context, items, workers int, fn func(worker, item int), obs Observer) (Stats, error) {
	return run(ctx, "round-robin", items, workers, fn, obs)
}

// Dynamic runs fn(workerID, item) for every item in [0, items) from a
// shared atomic queue: each worker repeatedly claims the next unclaimed
// item. This is the paper's worker-pool model for the renderer's tile
// decomposition. See run for cancellation, Stats and the observer.
func Dynamic(ctx context.Context, items, workers int, fn func(worker, item int), obs Observer) (Stats, error) {
	return run(ctx, "dynamic", items, workers, fn, obs)
}

// Observer receives one completed work item: which worker ran item,
// when it started, and how long it took. Passing a nil Observer
// disables per-item timing entirely, leaving only the two per-worker
// clock reads.
type Observer func(worker, item int, start time.Time, dur time.Duration)

// WorkerStat is one worker's share of a run.
type WorkerStat struct {
	// Items is how many work items the worker executed.
	Items int `json:"items"`
	// Busy is the worker's span from its first item start to its last
	// item end — for these strategies workers never block mid-run, so
	// the span is working time. A worker that got no items has zero.
	Busy time.Duration `json:"busy_ns"`
}

// Stats summarizes a run. The paper's §III compares the
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

// run is the one worker loop behind both strategies. It panics if
// workers < 1.
//
// With one worker it runs on the caller's goroutine and takes the items
// in order under either strategy; otherwise each worker is a goroutine and the call returns only after all of them
// have finished, so none outlives it.
//
// Cancellation is cooperative: every worker checks ctx.Done() before it
// claims an item and stops claiming once it closes. An item that has
// started runs to completion — items (whole pencils, whole tiles) are
// the cancellation granule. The call returns ctx.Err() only when
// cancellation stopped work, that is when fewer than items ran; the
// Stats then cover what did run. A context that can never be cancelled
// (ctx.Done() == nil) costs one nil test per item.
//
// Each worker keeps its WorkerStat local until one store at the end, so
// the accounting adds no shared-memory traffic to the loop. A nil obs
// means no per-item clock reads: Busy is then two reads per worker,
// around its items. With obs set, each item is stamped and the end
// stamp is taken before obs runs, so the observer's own time lands
// neither in Busy nor in the duration it is handed.
func run(ctx context.Context, strategy string, items, workers int, fn func(worker, item int), obs Observer) (Stats, error) {
	if workers < 1 {
		panic("parallel: workers must be >= 1")
	}
	done := ctx.Done()
	strided := strategy == "round-robin"
	var next atomic.Int64 // the dynamic queue's next unclaimed item
	work := func(w int) (ws WorkerStat) {
		var first, last time.Time
		i := w - workers
	claim:
		for {
			if done != nil {
				select {
				case <-done:
					break claim
				default:
				}
			}
			if strided {
				i += workers
			} else {
				i = int(next.Add(1) - 1)
			}
			if i >= items {
				break
			}
			if obs == nil {
				if ws.Items == 0 {
					first = time.Now()
				}
				fn(w, i)
			} else {
				start := time.Now()
				if ws.Items == 0 {
					first = start
				}
				fn(w, i)
				last = time.Now()
				obs(w, i, start, last.Sub(start))
			}
			ws.Items++
		}
		if ws.Items > 0 {
			if obs == nil {
				last = time.Now()
			}
			ws.Busy = last.Sub(first)
		}
		return ws
	}

	st := Stats{Strategy: strategy, Items: items, Workers: make([]WorkerStat, workers)}
	begin := time.Now()
	if workers == 1 {
		st.Workers[0] = work(0)
	} else {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				st.Workers[w] = work(w)
			}(w)
		}
		wg.Wait()
	}
	st.Elapsed = time.Since(begin)
	ran := 0
	for _, ws := range st.Workers {
		ran += ws.Items
	}
	if ran < items {
		return st, ctx.Err()
	}
	return st, nil
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
