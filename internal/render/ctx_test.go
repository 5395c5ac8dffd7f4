package render

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sfcmem/internal/core"
	"sfcmem/internal/grid"
	"sfcmem/internal/parallel"
)

// denseVolume is an everywhere-opaque volume, so renders do real work on
// every tile.
func denseVolume(n int) *grid.Grid[float32] {
	return grid.FromFunc(core.NewZOrder(n, n, n), func(i, j, k int) float32 {
		return 0.5 + 0.4*float32((i+j+k)%2)
	})
}

func TestRenderCtxMatchesRender(t *testing.T) {
	vol := denseVolume(16)
	cam := Orbit(1, 8, 16, 16, 16, 32, 32)
	tf := DefaultTransferFunc()
	o := Options{Workers: 2}
	want, err := Render(vol, cam, tf, o)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Hour)
	defer cancel()
	got, err := RenderCtxOf[float32](ctx, vol, cam, tf, o)
	if err != nil {
		t.Fatal(err)
	}
	if d := MaxDiff(want, got); d != 0 {
		t.Errorf("RenderCtxOf with live context differs from Render: max diff %g", d)
	}
}

func TestRenderExpiredDeadlineFailsFast(t *testing.T) {
	vol := denseVolume(32)
	// Large enough that a full serial render would take a visible chunk
	// of time; the expired deadline must return far sooner than that.
	cam := Orbit(1, 8, 32, 32, 32, 512, 512)
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	start := time.Now()
	img, err := RenderCtxOf[float32](ctx, vol, cam, DefaultTransferFunc(), Options{Workers: 2, NoFastPath: true})
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	if img != nil {
		t.Errorf("got partial image on expired deadline")
	}
	if elapsed > 250*time.Millisecond {
		t.Errorf("expired deadline took %v, want prompt return", elapsed)
	}
}

// TestRenderCancelStopsTiles cancels from the tile observer and checks
// the scheduler stops handing out tiles: only the in-flight tiles may
// finish after the cancellation.
func TestRenderCancelStopsTiles(t *testing.T) {
	const workers = 4
	vol := denseVolume(16)
	cam := Orbit(1, 8, 16, 16, 16, 256, 256) // 64 tiles of 32x32
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var done atomic.Int64
	var once sync.Once
	obs := parallel.Observer(func(_, _ int, _ time.Time, _ time.Duration) {
		done.Add(1)
		once.Do(cancel)
	})
	img, err := RenderCtxOf[float32](ctx, vol, cam, DefaultTransferFunc(), Options{Workers: workers, Observer: obs})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want Canceled", err)
	}
	if img != nil {
		t.Errorf("got image from cancelled render")
	}
	if n := done.Load(); n > 2*workers {
		t.Errorf("%d tiles completed after mid-flight cancel (want <= %d of 64)", n, 2*workers)
	}
}

// TestRenderCancelNoGoroutineLeak runs many cancelled renders and checks
// worker goroutines are all reaped (the acceptance criterion's guard
// against leaks, meaningful under -race).
func TestRenderCancelNoGoroutineLeak(t *testing.T) {
	vol := denseVolume(16)
	cam := Orbit(1, 8, 16, 16, 16, 128, 128)
	tf := DefaultTransferFunc()
	before := runtime.NumGoroutine()
	for i := 0; i < 20; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		var once sync.Once
		obs := parallel.Observer(func(_, _ int, _ time.Time, _ time.Duration) { once.Do(cancel) })
		if _, err := RenderCtxOf[float32](ctx, vol, cam, tf, Options{Workers: 4, Observer: obs}); !errors.Is(err, context.Canceled) {
			t.Fatalf("iteration %d: err = %v, want Canceled", i, err)
		}
		cancel()
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Errorf("goroutines: %d before, %d after cancelled renders", before, runtime.NumGoroutine())
}
