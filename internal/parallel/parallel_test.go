package parallel

import (
	"sync"
	"testing"
)

func TestRoundRobinCoversAllItemsOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 7, 16} {
		const items = 100
		var mu sync.Mutex
		counts := make([]int, items)
		RoundRobin(items, workers, func(_, i int) {
			mu.Lock()
			counts[i]++
			mu.Unlock()
		})
		for i, c := range counts {
			if c != 1 {
				t.Errorf("workers=%d: item %d ran %d times", workers, i, c)
			}
		}
	}
}

func TestRoundRobinAssignmentPattern(t *testing.T) {
	const items, workers = 10, 3
	var mu sync.Mutex
	owner := make([]int, items)
	RoundRobin(items, workers, func(w, i int) {
		mu.Lock()
		owner[i] = w
		mu.Unlock()
	})
	for i := 0; i < items; i++ {
		if owner[i] != i%workers {
			t.Errorf("item %d owned by worker %d, want %d", i, owner[i], i%workers)
		}
	}
}

func TestDynamicCoversAllItemsOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 5, 32} {
		const items = 500
		var mu sync.Mutex
		counts := make([]int, items)
		Dynamic(items, workers, func(_, i int) {
			mu.Lock()
			counts[i]++
			mu.Unlock()
		})
		for i, c := range counts {
			if c != 1 {
				t.Errorf("workers=%d: item %d ran %d times", workers, i, c)
			}
		}
	}
}

func TestZeroItems(t *testing.T) {
	ran := false
	RoundRobin(0, 4, func(_, _ int) { ran = true })
	Dynamic(0, 4, func(_, _ int) { ran = true })
	if ran {
		t.Error("callback ran with zero items")
	}
}

func TestInvalidWorkersPanics(t *testing.T) {
	for _, fn := range []func(){
		func() { RoundRobin(1, 0, func(_, _ int) {}) },
		func() { Dynamic(1, 0, func(_, _ int) {}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("no panic for 0 workers")
				}
			}()
			fn()
		}()
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
