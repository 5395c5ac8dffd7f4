package parallel

import (
	"context"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestInstrumentedCoverAllItemsOnce checks a full run's Stats: they name
// the strategy, hold one entry per worker, and account for every item.
func TestInstrumentedCoverAllItemsOnce(t *testing.T) {
	for _, s := range strategies {
		for obsName, obs := range observers {
			for _, workers := range []int{1, 2, 3, 8} {
				const items = 200
				st, err := s.run(context.Background(), items, workers, func(_, _ int) {}, obs)
				if err != nil {
					t.Fatalf("%s %s workers=%d: %v", s.name, obsName, workers, err)
				}
				if st.Strategy != s.name || st.Items != items || len(st.Workers) != workers {
					t.Errorf("%s %s workers=%d: stats %+v", s.name, obsName, workers, st)
				}
				total := 0
				for _, w := range st.Workers {
					total += w.Items
				}
				if total != items {
					t.Errorf("%s %s workers=%d: worker items sum %d, want %d", s.name, obsName, workers, total, items)
				}
				if st.Elapsed <= 0 {
					t.Errorf("%s %s: non-positive elapsed %v", s.name, obsName, st.Elapsed)
				}
			}
		}
	}
}

// TestInstrumentedSingleWorkerDeterministic: with one worker both
// strategies run every item in order, on the caller's goroutine.
func TestInstrumentedSingleWorkerDeterministic(t *testing.T) {
	caller := goroutineID()
	for _, s := range strategies {
		for obsName, obs := range observers {
			var order []int
			s.run(context.Background(), 5, 1, func(_, i int) {
				if id := goroutineID(); id != caller {
					t.Errorf("%s %s: item %d ran on goroutine %s, caller is %s", s.name, obsName, i, id, caller)
				}
				order = append(order, i)
			}, obs)
			for i, got := range order {
				if got != i || len(order) != 5 {
					t.Fatalf("%s %s: single-worker order %v", s.name, obsName, order)
				}
			}
		}
	}
}

// goroutineID returns the current goroutine's number from the first
// line of its stack trace ("goroutine N [running]:").
func goroutineID() string {
	buf := make([]byte, 64)
	f := strings.Fields(string(buf[:runtime.Stack(buf, false)]))
	return f[1]
}

func TestObserverSeesEveryItem(t *testing.T) {
	const items = 50
	for _, s := range strategies {
		for _, workers := range []int{1, 4} {
			var mu sync.Mutex
			seen := make([]int, items)
			var ran [4]int
			obs := func(w, i int, start time.Time, dur time.Duration) {
				mu.Lock()
				seen[i]++
				ran[w]++
				mu.Unlock()
				if start.IsZero() || dur < 0 {
					t.Errorf("%s item %d: bad observation start=%v dur=%v", s.name, i, start, dur)
				}
			}
			st, _ := s.run(context.Background(), items, workers, func(_, _ int) {}, obs)
			for i, c := range seen {
				if c != 1 {
					t.Errorf("%s workers=%d: item %d observed %d times, want 1", s.name, workers, i, c)
				}
			}
			for w, ws := range st.Workers {
				if ws.Items != ran[w] {
					t.Errorf("%s workers=%d: worker %d Stats count %d items, observer saw %d", s.name, workers, w, ws.Items, ran[w])
				}
			}
		}
	}
}

// TestRoundRobinInstrumentedAssignmentPattern: with an observer, the
// observation of item i comes from worker i mod W and carries that
// worker's number, and each worker's Stats match its observations.
func TestRoundRobinInstrumentedAssignmentPattern(t *testing.T) {
	const items, workers = 12, 4
	var mu sync.Mutex
	observedBy := make([]int, items)
	var perWorker [workers]int
	st, err := RoundRobin(context.Background(), items, workers, func(_, _ int) { busyWait(time.Microsecond) },
		func(w, i int, _ time.Time, dur time.Duration) {
			mu.Lock()
			observedBy[i] = w
			perWorker[w]++
			mu.Unlock()
			if dur <= 0 {
				t.Errorf("item %d: non-positive duration %v", i, dur)
			}
		})
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range observedBy {
		if w != i%workers {
			t.Errorf("item %d observed on worker %d, want %d", i, w, i%workers)
		}
	}
	for w, ws := range st.Workers {
		if ws.Items != items/workers || perWorker[w] != items/workers {
			t.Errorf("worker %d: Stats %d items, observer %d, want %d", w, ws.Items, perWorker[w], items/workers)
		}
		if ws.Busy <= 0 {
			t.Errorf("worker %d has zero busy time", w)
		}
	}
}

// TestInstrumentedZeroItems: with an observer and no items, neither the
// callback nor the observer runs and every worker's Stats are zero.
func TestInstrumentedZeroItems(t *testing.T) {
	for _, s := range strategies {
		for _, workers := range []int{1, 3} {
			st, err := s.run(context.Background(), 0, workers,
				func(_, _ int) { t.Errorf("%s workers=%d: callback ran", s.name, workers) },
				func(_, _ int, _ time.Time, _ time.Duration) { t.Errorf("%s workers=%d: observer ran", s.name, workers) })
			if err != nil || st.ImbalanceFactor() != 0 {
				t.Errorf("%s workers=%d: imbalance %v err %v", s.name, workers, st.ImbalanceFactor(), err)
			}
			for _, w := range st.Workers {
				if w.Items != 0 || w.Busy != 0 {
					t.Errorf("%s workers=%d: zero-item worker stat %+v", s.name, workers, w)
				}
			}
		}
	}
}

// TestInstrumentedInvalidWorkersPanics: workers < 1 panics before any
// item or observation, with an observer set and whatever the item count.
func TestInstrumentedInvalidWorkersPanics(t *testing.T) {
	for _, s := range strategies {
		for _, items := range []int{0, 1, 5} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s items=%d: no panic for 0 workers", s.name, items)
					}
				}()
				s.run(context.Background(), items, 0,
					func(_, _ int) { t.Errorf("%s: callback ran", s.name) },
					func(_, _ int, _ time.Time, _ time.Duration) { t.Errorf("%s: observer ran", s.name) })
			}()
		}
	}
}

func TestImbalanceFactor(t *testing.T) {
	// Perfectly balanced.
	s := Stats{Workers: []WorkerStat{{Items: 1, Busy: time.Second}, {Items: 1, Busy: time.Second}}}
	if f := s.ImbalanceFactor(); f != 1 {
		t.Errorf("balanced factor %v, want 1", f)
	}
	// One worker does everything: factor = W.
	s = Stats{Workers: []WorkerStat{{Busy: time.Second}, {}, {}, {}}}
	if f := s.ImbalanceFactor(); f != 4 {
		t.Errorf("degenerate factor %v, want 4", f)
	}
	// Empty stats.
	if f := (Stats{}).ImbalanceFactor(); f != 0 {
		t.Errorf("empty factor %v, want 0", f)
	}
}

func TestImbalanceDetectsSkewedLoad(t *testing.T) {
	// Item 0 is 100× the cost of the rest; round-robin pins it to worker
	// 0 along with an equal share of cheap items, so worker 0's busy time
	// dominates and the factor must exceed 1 clearly.
	const items, workers = 16, 4
	work := func(_, i int) {
		d := time.Microsecond
		if i == 0 {
			d = 2 * time.Millisecond
		}
		busyWait(d)
	}
	st, _ := RoundRobin(context.Background(), items, workers, work, nil)
	if f := st.ImbalanceFactor(); f < 1.5 {
		t.Errorf("skewed round-robin imbalance %v, want >= 1.5", f)
	}
}

// busyWait spins rather than sleeping so busy time is real CPU time and
// not scheduler latency.
func busyWait(d time.Duration) {
	end := time.Now().Add(d)
	for time.Now().Before(end) {
	}
}

// TestObserverTimeNotInBusy: a slow Observer must not inflate
// WorkerStat.Busy (and through it ImbalanceFactor), because the end
// timestamp is taken before the observer callback runs. One item per
// run makes the expectation exact: Busy is that single item's duration,
// not item + observer.
func TestObserverTimeNotInBusy(t *testing.T) {
	const itemSleep = 1 * time.Millisecond
	const obsSleep = 60 * time.Millisecond
	slowObs := func(_, _ int, _ time.Time, d time.Duration) {
		if d >= obsSleep {
			t.Errorf("reported item duration %v includes observer time", d)
		}
		time.Sleep(obsSleep)
	}
	for _, s := range strategies {
		for _, workers := range []int{1, 2} {
			st, _ := s.run(context.Background(), 1, workers, func(_, _ int) { time.Sleep(itemSleep) }, slowObs)
			for w, ws := range st.Workers {
				if ws.Items == 0 {
					continue
				}
				if ws.Busy >= obsSleep/2 {
					t.Errorf("%s workers=%d: worker %d Busy %v includes observer time (item ~%v, obs %v)",
						s.name, workers, w, ws.Busy, itemSleep, obsSleep)
				}
			}
		}
	}
}

// benchWork is a small fixed workload per item (100 dependent
// multiply-adds on a private accumulator), sized like a cheap pencil so
// the benchmarks expose scheduling overhead rather than hiding it
// behind heavy items.
var benchSink [64]float64

func benchWork(w, i int) {
	x := float64(i) + 1
	for n := 0; n < 100; n++ {
		x = x*1.000001 + 0.5
	}
	benchSink[w%len(benchSink)] = x
}

const benchItems = 4096

// benchWorkers matches the available parallelism: oversubscribing (e.g.
// 8 workers on a 1-CPU runner) would make these benchmarks measure Go
// scheduler churn instead of the loop under test.
func benchWorkers() int {
	return max(runtime.GOMAXPROCS(0), 1)
}

// benchObserver does nothing, so the Observed benchmarks measure the
// per-item clock reads an observer costs, not the observer.
func benchObserver(_, _ int, _ time.Time, _ time.Duration) {}

func BenchmarkRoundRobin(b *testing.B) {
	w := benchWorkers()
	for n := 0; n < b.N; n++ {
		RoundRobin(context.Background(), benchItems, w, benchWork, nil)
	}
}

func BenchmarkRoundRobinObserved(b *testing.B) {
	w := benchWorkers()
	for n := 0; n < b.N; n++ {
		RoundRobin(context.Background(), benchItems, w, benchWork, benchObserver)
	}
}

func BenchmarkDynamic(b *testing.B) {
	w := benchWorkers()
	for n := 0; n < b.N; n++ {
		Dynamic(context.Background(), benchItems, w, benchWork, nil)
	}
}

func BenchmarkDynamicObserved(b *testing.B) {
	w := benchWorkers()
	for n := 0; n < b.N; n++ {
		Dynamic(context.Background(), benchItems, w, benchWork, benchObserver)
	}
}
