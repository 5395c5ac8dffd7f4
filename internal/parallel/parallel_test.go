package parallel

import (
	"context"
	"sync"
	"testing"
	"time"
)

// strategy names one of the two entry points for table-driven tests.
type strategy struct {
	name string
	run  func(ctx context.Context, items, workers int, fn func(worker, item int), obs Observer) (Stats, error)
}

var strategies = []strategy{{"round-robin", RoundRobin}, {"dynamic", Dynamic}}

// observers are the loop's two timing modes: no per-item clock reads,
// and per-item stamps handed to an observer.
var observers = map[string]Observer{
	"nil-observer": nil,
	"observer":     func(_, _ int, _ time.Time, _ time.Duration) {},
}

// checkCoversAllItemsOnce runs s over items with each worker count and
// both observer modes and fails unless every item ran exactly once.
func checkCoversAllItemsOnce(t *testing.T, s strategy, items int, workerCounts []int) {
	t.Helper()
	for obsName, obs := range observers {
		for _, workers := range workerCounts {
			var mu sync.Mutex
			counts := make([]int, items)
			_, err := s.run(context.Background(), items, workers, func(_, i int) {
				mu.Lock()
				counts[i]++
				mu.Unlock()
			}, obs)
			if err != nil {
				t.Fatalf("%s %s workers=%d: %v", s.name, obsName, workers, err)
			}
			for i, c := range counts {
				if c != 1 {
					t.Errorf("%s %s workers=%d: item %d ran %d times", s.name, obsName, workers, i, c)
				}
			}
		}
	}
}

func TestRoundRobinCoversAllItemsOnce(t *testing.T) {
	checkCoversAllItemsOnce(t, strategies[0], 100, []int{1, 2, 3, 7, 16})
}

func TestDynamicCoversAllItemsOnce(t *testing.T) {
	checkCoversAllItemsOnce(t, strategies[1], 500, []int{1, 2, 5, 32})
}

// TestRoundRobinAssignmentPattern: item i goes to worker i mod W, and
// the Stats agree: an equal share per worker, each with busy time.
func TestRoundRobinAssignmentPattern(t *testing.T) {
	const items, workers = 12, 4
	for obsName, obs := range observers {
		var mu sync.Mutex
		owner := make([]int, items)
		st, _ := RoundRobin(context.Background(), items, workers, func(w, i int) {
			mu.Lock()
			owner[i] = w
			mu.Unlock()
			busyWait(time.Microsecond)
		}, obs)
		for i := 0; i < items; i++ {
			if owner[i] != i%workers {
				t.Errorf("%s: item %d owned by worker %d, want %d", obsName, i, owner[i], i%workers)
			}
		}
		for w, ws := range st.Workers {
			if ws.Items != items/workers {
				t.Errorf("%s: worker %d ran %d items, want %d", obsName, w, ws.Items, items/workers)
			}
			if ws.Busy <= 0 {
				t.Errorf("%s: worker %d has zero busy time", obsName, w)
			}
		}
	}
}

// TestZeroItems: no callback runs and the Stats are all zero, with as
// many entries as workers.
func TestZeroItems(t *testing.T) {
	for _, s := range strategies {
		for obsName, obs := range observers {
			for _, workers := range []int{1, 3} {
				st, err := s.run(context.Background(), 0, workers, func(_, _ int) { t.Errorf("%s %s: callback ran", s.name, obsName) }, obs)
				if err != nil || len(st.Workers) != workers || st.ImbalanceFactor() != 0 {
					t.Errorf("%s %s workers=%d: stats %+v err %v", s.name, obsName, workers, st, err)
				}
				for _, w := range st.Workers {
					if w.Items != 0 || w.Busy != 0 {
						t.Errorf("%s %s: zero-item worker stat %+v", s.name, obsName, w)
					}
				}
			}
		}
	}
}

func TestInvalidWorkersPanics(t *testing.T) {
	for _, s := range strategies {
		for obsName, obs := range observers {
			for _, workers := range []int{0, -1} {
				func() {
					defer func() {
						if recover() == nil {
							t.Errorf("%s %s: no panic for %d workers", s.name, obsName, workers)
						}
					}()
					s.run(context.Background(), 1, workers, func(_, _ int) {}, obs)
				}()
			}
		}
	}
}

func TestPencilCount(t *testing.T) {
	if n := PencilCount(4, 5, 6, AxisX); n != 30 {
		t.Errorf("AxisX count %d", n)
	}
	if n := PencilCount(4, 5, 6, AxisY); n != 24 {
		t.Errorf("AxisY count %d", n)
	}
	if n := PencilCount(4, 5, 6, AxisZ); n != 20 {
		t.Errorf("AxisZ count %d", n)
	}
}

// Walking every pencil must visit every voxel exactly once, per axis.
func TestPencilsTileTheVolume(t *testing.T) {
	const nx, ny, nz = 5, 4, 3
	for _, axis := range []Axis{AxisX, AxisY, AxisZ} {
		visited := make(map[[3]int]int)
		n := PencilCount(nx, ny, nz, axis)
		di, dj, dk := PencilStep(axis)
		for p := 0; p < n; p++ {
			i, j, k, length := PencilStart(nx, ny, nz, axis, p)
			for s := 0; s < length; s++ {
				visited[[3]int{i, j, k}]++
				i, j, k = i+di, j+dj, k+dk
			}
		}
		if len(visited) != nx*ny*nz {
			t.Errorf("%v: visited %d cells, want %d", axis, len(visited), nx*ny*nz)
		}
		for c, n := range visited {
			if n != 1 {
				t.Errorf("%v: cell %v visited %d times", axis, c, n)
			}
		}
	}
}

func TestAxisString(t *testing.T) {
	for a, want := range map[Axis]string{AxisX: "px", AxisY: "py", AxisZ: "pz", Axis(7): "Axis(7)"} {
		if got := a.String(); got != want {
			t.Errorf("Axis(%d).String() = %q, want %q", int(a), got, want)
		}
	}
}

func TestTilesCoverImage(t *testing.T) {
	cases := []struct{ w, h, size int }{
		{64, 64, 32}, {100, 70, 32}, {31, 31, 32}, {1, 1, 32}, {96, 96, 96},
	}
	for _, c := range cases {
		ts := Tiles(c.w, c.h, c.size)
		covered := make([][]bool, c.h)
		for y := range covered {
			covered[y] = make([]bool, c.w)
		}
		for _, tl := range ts {
			if tl.X0 < 0 || tl.Y0 < 0 || tl.X1 > c.w || tl.Y1 > c.h || tl.X0 >= tl.X1 || tl.Y0 >= tl.Y1 {
				t.Fatalf("%dx%d/%d: bad tile %+v", c.w, c.h, c.size, tl)
			}
			for y := tl.Y0; y < tl.Y1; y++ {
				for x := tl.X0; x < tl.X1; x++ {
					if covered[y][x] {
						t.Fatalf("%dx%d/%d: pixel (%d,%d) covered twice", c.w, c.h, c.size, x, y)
					}
					covered[y][x] = true
				}
			}
		}
		for y := 0; y < c.h; y++ {
			for x := 0; x < c.w; x++ {
				if !covered[y][x] {
					t.Fatalf("%dx%d/%d: pixel (%d,%d) uncovered", c.w, c.h, c.size, x, y)
				}
			}
		}
	}
}

func TestTilesPanicsOnBadSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic for tile size 0")
		}
	}()
	Tiles(10, 10, 0)
}
