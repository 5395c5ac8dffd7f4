package parallel

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// Cancellation tests: each runs both strategies in both observer modes.

func TestCtxBackgroundRunsEverything(t *testing.T) {
	for _, s := range strategies {
		checkCoversAllItemsOnce(t, s, 100, []int{1, 3})
	}
}

func TestCtxExpiredDeadlineRunsNothing(t *testing.T) {
	for _, s := range strategies {
		for obsName, obs := range observers {
			for _, workers := range []int{1, 4} {
				ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
				var ran atomic.Int64
				st, err := s.run(ctx, 50, workers, func(_, _ int) { ran.Add(1) }, obs)
				cancel()
				if !errors.Is(err, context.DeadlineExceeded) {
					t.Errorf("%s %s workers=%d: err %v, want DeadlineExceeded", s.name, obsName, workers, err)
				}
				if n := ran.Load(); n != 0 {
					t.Errorf("%s %s workers=%d: %d items ran under an expired deadline", s.name, obsName, workers, n)
				}
				for _, w := range st.Workers {
					if w.Items != 0 || w.Busy != 0 {
						t.Errorf("%s %s workers=%d: worker stat %+v under an expired deadline", s.name, obsName, workers, w)
					}
				}
			}
		}
	}
}

// TestCtxCancelStopsHandout cancels mid-flight and checks that no new
// items are handed out after the cancellation is observable: at most the
// items already in flight (one per worker) may still complete.
func TestCtxCancelStopsHandout(t *testing.T) {
	for _, s := range strategies {
		for obsName, obs := range observers {
			for _, workers := range []int{1, 4} {
				const items = 10_000
				ctx, cancel := context.WithCancel(context.Background())
				var started atomic.Int64
				var once sync.Once
				_, err := s.run(ctx, items, workers, func(_, _ int) {
					started.Add(1)
					once.Do(cancel)
					// Give every other worker time to observe the closed done
					// channel before the queue could drain naturally.
					time.Sleep(time.Millisecond)
				}, obs)
				cancel()
				if !errors.Is(err, context.Canceled) {
					t.Errorf("%s %s workers=%d: err %v, want Canceled", s.name, obsName, workers, err)
				}
				// The canceling item plus at most one in-flight item per other
				// worker; anything near `items` means handout never stopped.
				if n := started.Load(); n > int64(2*workers) {
					t.Errorf("%s %s workers=%d: %d items started after cancel (want <= %d)",
						s.name, obsName, workers, n, 2*workers)
				}
			}
		}
	}
}

// TestCtxCancelAfterLastItemIsNil: a cancel that lands once every item
// has started stops no work, so the call reports success.
func TestCtxCancelAfterLastItemIsNil(t *testing.T) {
	for _, s := range strategies {
		for obsName, obs := range observers {
			for _, workers := range []int{1, 4} {
				const items = 8
				ctx, cancel := context.WithCancel(context.Background())
				var started atomic.Int64
				_, err := s.run(ctx, items, workers, func(_, _ int) {
					if started.Add(1) == items {
						cancel()
					}
				}, obs)
				cancel()
				if err != nil || started.Load() != items {
					t.Errorf("%s %s workers=%d: err %v after %d of %d items, want nil after all",
						s.name, obsName, workers, err, started.Load(), items)
				}
			}
		}
	}
}

// TestCtxCancelNoGoroutineLeak repeatedly cancels mid-run and checks the
// goroutine count settles back to the baseline.
func TestCtxCancelNoGoroutineLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	for _, s := range strategies {
		for _, obs := range observers {
			for i := 0; i < 10; i++ {
				ctx, cancel := context.WithCancel(context.Background())
				var once sync.Once
				_, _ = s.run(ctx, 1000, 4, func(_, _ int) { once.Do(cancel) }, obs)
				cancel()
			}
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Errorf("goroutines: %d before, %d after cancellations", before, runtime.NumGoroutine())
}

// TestCtxInstrumentedPartialStats checks that a cancelled run still
// reports coherent per-worker stats for the items that ran.
func TestCtxInstrumentedPartialStats(t *testing.T) {
	for _, s := range strategies {
		for obsName, obs := range observers {
			for _, workers := range []int{1, 2} {
				ctx, cancel := context.WithCancel(context.Background())
				var once sync.Once
				var ran atomic.Int64
				st, err := s.run(ctx, 1000, workers, func(_, _ int) {
					ran.Add(1)
					once.Do(cancel)
					time.Sleep(time.Millisecond)
				}, obs)
				cancel()
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("%s %s workers=%d: err %v, want Canceled", s.name, obsName, workers, err)
				}
				total := 0
				for w, ws := range st.Workers {
					total += ws.Items
					if ws.Items > 0 && ws.Busy <= 0 {
						t.Errorf("%s %s workers=%d: worker %d ran %d items with busy %v", s.name, obsName, workers, w, ws.Items, ws.Busy)
					}
				}
				if total < 1 || total >= 1000 || int64(total) != ran.Load() {
					t.Errorf("%s %s workers=%d: stats count %d items, %d ran; want 1 <= n < 1000 and equal",
						s.name, obsName, workers, total, ran.Load())
				}
				if st.Strategy != s.name || len(st.Workers) != workers {
					t.Errorf("%s %s workers=%d: stats %+v", s.name, obsName, workers, st)
				}
			}
		}
	}
}
