package filter

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sfcmem/internal/core"
	"sfcmem/internal/grid"
	"sfcmem/internal/parallel"
)

func ctxTestOptions(workers int) Options {
	return Options{Radius: 2, Axis: parallel.AxisX, Workers: workers}
}

func TestApplyCtxMatchesApply(t *testing.T) {
	const n = 12
	src := grid.FromFunc(core.NewZOrder(n, n, n), func(i, j, k int) float32 {
		return float32(i+2*j+3*k) / float32(6*n)
	})
	want := grid.New(core.NewZOrder(n, n, n))
	got := grid.New(core.NewZOrder(n, n, n))
	if err := Apply(src, want, ctxTestOptions(2)); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Hour)
	defer cancel()
	if err := ApplyCtxOf[float32](ctx, src, got, ctxTestOptions(2)); err != nil {
		t.Fatal(err)
	}
	if !grid.Equal(want, got) {
		t.Errorf("ApplyCtxOf with live context differs from Apply")
	}
}

func TestApplyCtxExpiredDeadline(t *testing.T) {
	const n = 16
	src := grid.New(core.NewArrayOrder(n, n, n))
	dst := grid.New(core.NewArrayOrder(n, n, n))
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	start := time.Now()
	err := ApplyCtxOf[float32](ctx, src, dst, ctxTestOptions(2))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 250*time.Millisecond {
		t.Errorf("expired deadline took %v, want prompt return", elapsed)
	}
	if err := GaussianConvolveCtxOf[float32](ctx, src, dst, ctxTestOptions(2)); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("GaussianConvolveCtxOf err = %v, want DeadlineExceeded", err)
	}
}

// TestApplyCtxCancelStopsPencils cancels from the pencil observer and
// checks the round-robin handout stops: only in-flight pencils finish.
func TestApplyCtxCancelStopsPencils(t *testing.T) {
	const n, workers = 24, 4 // 576 x-pencils
	src := grid.New(core.NewArrayOrder(n, n, n))
	dst := grid.New(core.NewArrayOrder(n, n, n))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var done atomic.Int64
	var once sync.Once
	o := ctxTestOptions(workers)
	o.Observer = func(_, _ int, _ time.Time, _ time.Duration) {
		done.Add(1)
		once.Do(cancel)
	}
	err := ApplyCtxOf[float32](ctx, src, dst, o)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want Canceled", err)
	}
	if got := done.Load(); got > 2*workers {
		t.Errorf("%d pencils completed after mid-flight cancel (want <= %d of %d)", got, 2*workers, n*n)
	}
}
