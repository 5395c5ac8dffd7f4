package jobs

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// waitTerminal blocks until j terminates or the test deadline passes.
func waitTerminal(t *testing.T, j *Job) {
	t.Helper()
	select {
	case <-j.Done():
	case <-time.After(5 * time.Second):
		t.Fatalf("job %s stuck in state %s", j.ID, j.State())
	}
}

func drain(t *testing.T, m *Manager) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := m.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
}

// park occupies one runner with a job that blocks until the returned
// release is called (at the latest when the test ends), so later
// submissions stay queued until then.
func park(t *testing.T, m *Manager) (gate *Job, release func()) {
	t.Helper()
	started, block := make(chan struct{}), make(chan struct{})
	gate, err := m.Submit(Spec{Run: func(context.Context, *Job) error {
		close(started)
		<-block
		return nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	release = sync.OnceFunc(func() { close(block) })
	t.Cleanup(release) // a failed test must not leave the runner parked
	return gate, release
}

func TestInteractivePreemptsBulk(t *testing.T) {
	// One runner, parked on a gate job. While it is parked, queue a
	// bulk job then an interactive job; the interactive one must run
	// first even though it arrived later.
	m := New(Config{Runners: 1})
	g, release := park(t, m)
	started := make(chan string, 2)
	mk := func(name string, lane Lane) Spec {
		return Spec{
			Lane: lane,
			Run: func(context.Context, *Job) error {
				started <- name
				return nil
			},
		}
	}
	bulk, _ := m.Submit(mk("bulk", Bulk))
	inter, _ := m.Submit(mk("interactive", Interactive))
	release()
	first := <-started
	second := <-started
	if first != "interactive" || second != "bulk" {
		t.Errorf("dispatch order %s,%s; want interactive,bulk", first, second)
	}
	waitTerminal(t, g)
	waitTerminal(t, bulk)
	waitTerminal(t, inter)
	drain(t, m)
}

// TestArrivalOrderAndCounts: jobs of one lane run in arrival order, one
// dispatch each; Pending counts exactly the jobs waiting for a runner.
func TestArrivalOrderAndCounts(t *testing.T) {
	m := New(Config{Runners: 1})
	_, release := park(t, m)
	var mu sync.Mutex
	var order []int
	var js []*Job
	for i := 0; i < 4; i++ {
		j, err := m.Submit(Spec{Lane: Bulk, Run: func(context.Context, *Job) error {
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
			return nil
		}})
		if err != nil {
			t.Fatal(err)
		}
		js = append(js, j)
	}
	if st := m.Stats(); st.Pending != 4 || st.Running != 1 || st.Dispatched != 1 {
		t.Errorf("with the runner parked: %+v, want 4 pending, 1 running, 1 dispatched", st)
	}
	js[2].Cancel()
	if st := m.Stats(); st.Pending != 3 {
		t.Errorf("after cancelling a queued job: %d pending, want 3", st.Pending)
	}
	release()
	for _, j := range js {
		waitTerminal(t, j)
	}
	drain(t, m)
	if fmt.Sprint(order) != "[0 1 3]" {
		t.Errorf("run order %v, want [0 1 3]", order)
	}
	if st := m.Stats(); st.Dispatched != 4 || st.Pending != 0 || st.Running != 0 {
		t.Errorf("after drain: %+v, want 4 dispatched (gate + 3), none pending or running", st)
	}
}

func TestCancelQueuedNeverRuns(t *testing.T) {
	// The only runner is parked, so the job is still queued when it is
	// cancelled.
	m := New(Config{Runners: 1})
	gate, release := park(t, m)
	var ran atomic.Bool
	var doneHook atomic.Bool
	j, err := m.Submit(Spec{
		Run: func(context.Context, *Job) error {
			ran.Store(true)
			return nil
		},
		Done: func(*Job) { doneHook.Store(true) },
	})
	if err != nil {
		t.Fatal(err)
	}
	j.Cancel()
	waitTerminal(t, j)
	if j.State() != StateCancelled {
		t.Fatalf("state %s, want cancelled", j.State())
	}
	if !doneHook.Load() {
		t.Error("Done hook not fired for queued-cancel")
	}
	j.Cancel() // idempotent
	if st := m.Stats(); st.Pending != 0 {
		t.Errorf("cancelled job still pending: %+v", st)
	}
	// Once the runner is free, a job queued behind the cancelled one
	// runs and the cancelled one does not.
	release()
	waitTerminal(t, gate)
	next, _ := m.Submit(Spec{Run: func(context.Context, *Job) error { return nil }})
	waitTerminal(t, next)
	if ran.Load() {
		t.Error("Run executed for a job cancelled while queued")
	}
	if m.Stats().Cancelled != 1 {
		t.Errorf("cancelled counter %d", m.Stats().Cancelled)
	}
	drain(t, m)
}

func TestCancelRunningAbortsViaContext(t *testing.T) {
	m := New(Config{Runners: 1})
	started := make(chan struct{})
	j, _ := m.Submit(Spec{
		Run: func(ctx context.Context, _ *Job) error {
			close(started)
			<-ctx.Done() // a cancellable kernel observes ctx
			return ctx.Err()
		},
	})
	<-started
	j.Cancel()
	waitTerminal(t, j)
	if j.State() != StateCancelled {
		t.Fatalf("state %s (%s), want cancelled", j.State(), j.Err())
	}
	drain(t, m)
}

func TestRunFailureMarksFailed(t *testing.T) {
	m := New(Config{Runners: 1})
	j, _ := m.Submit(Spec{
		Run: func(context.Context, *Job) error { return errors.New("kernel exploded") },
	})
	waitTerminal(t, j)
	if j.State() != StateFailed || !strings.Contains(j.Err(), "kernel exploded") {
		t.Fatalf("state %s err %q", j.State(), j.Err())
	}
	if m.Stats().Failed != 1 {
		t.Errorf("failed counter %d", m.Stats().Failed)
	}
	drain(t, m)
}

func TestSubscribeReplayAndLive(t *testing.T) {
	m := New(Config{Runners: 1})
	gate := make(chan struct{})
	started := make(chan struct{})
	j, _ := m.Submit(Spec{
		Run: func(ctx context.Context, j *Job) error {
			close(started)
			<-gate
			j.Emit("coarse", map[string]int{"level": 2})
			return nil
		},
	})
	<-started
	past, ch, cancel := j.Subscribe()
	defer cancel()
	// queued already published; running is a state, not an event.
	if len(past) != 1 || past[0].Type != "queued" {
		t.Fatalf("replay %+v", past)
	}
	close(gate)
	var live []Event
	for ev := range ch {
		live = append(live, ev)
		if State(ev.Type).Terminal() {
			break
		}
	}
	if len(live) != 2 || live[0].Type != "coarse" || live[1].Type != "done" {
		t.Fatalf("live events %+v", live)
	}
	// Seq must be contiguous across replay+live.
	all := append(past, live...)
	for i, ev := range all {
		if ev.Seq != i {
			t.Fatalf("event %d has seq %d: %+v", i, ev.Seq, all)
		}
	}
	// Subscribing after terminal replays everything.
	waitTerminal(t, j)
	past2, _, cancel2 := j.Subscribe()
	cancel2()
	if len(past2) != len(all) {
		t.Errorf("post-terminal replay %d events, want %d", len(past2), len(all))
	}
	drain(t, m)
}

func TestResultRoundTrip(t *testing.T) {
	m := New(Config{Runners: 1})
	j, _ := m.Submit(Spec{
		Run: func(ctx context.Context, j *Job) error {
			j.SetResult([]byte("png bytes"))
			return nil
		},
	})
	waitTerminal(t, j)
	if got, ok := j.Result().([]byte); !ok || string(got) != "png bytes" {
		t.Errorf("result %v", j.Result())
	}
	tm := j.Times()
	if tm.Started.Before(tm.Submitted) || tm.Finished.Before(tm.Started) {
		t.Errorf("timestamps out of order: %+v", tm)
	}
	drain(t, m)
}

func TestSubmitValidationAndDraining(t *testing.T) {
	m := New(Config{Runners: 1})
	if _, err := m.Submit(Spec{}); err == nil {
		t.Error("nil Run accepted")
	}
	drain(t, m)
	if _, err := m.Submit(Spec{Run: func(context.Context, *Job) error { return nil }}); !errors.Is(err, ErrDraining) {
		t.Errorf("submit after drain: %v", err)
	}
}

func TestDrainRunsQueuedWork(t *testing.T) {
	// Three jobs wait behind a parked runner when the drain begins; the
	// drain must run them, not drop them.
	m := New(Config{Runners: 1})
	gate, release := park(t, m)
	var runs atomic.Int32
	js := []*Job{gate}
	for i := 0; i < 3; i++ {
		j, err := m.Submit(Spec{
			Run: func(context.Context, *Job) error {
				runs.Add(1)
				return nil
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		js = append(js, j)
	}
	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		drained <- m.Drain(ctx)
	}()
	// Release the runner only once the drain has begun.
	for {
		m.mu.Lock()
		draining := m.draining
		m.mu.Unlock()
		if draining {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if runs.Load() != 0 || m.Stats().Pending != 3 {
		t.Fatalf("before release: %d runs, stats %+v", runs.Load(), m.Stats())
	}
	release()
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	if runs.Load() != 3 {
		t.Errorf("drain ran %d jobs, want 3", runs.Load())
	}
	for _, j := range js {
		if j.State() != StateDone {
			t.Errorf("job %s: %s", j.ID, j.State())
		}
	}
}

func TestDrainExpiryFailsStuckJob(t *testing.T) {
	m := New(Config{Runners: 1})
	started := make(chan struct{})
	j, _ := m.Submit(Spec{
		Run: func(ctx context.Context, _ *Job) error {
			close(started)
			<-ctx.Done() // kernel honors cancellation but never finishes otherwise
			return ctx.Err()
		},
	})
	<-started
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if err := m.Drain(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("drain: %v, want deadline exceeded", err)
	}
	waitTerminal(t, j)
	// Not user-cancelled, so the context death reads as failure.
	if j.State() != StateFailed {
		t.Errorf("state %s, want failed", j.State())
	}
}

func TestGCKeepsLiveAndRecent(t *testing.T) {
	m := New(Config{Runners: 1, Keep: 2})
	var ids []string
	for i := 0; i < 5; i++ {
		j, err := m.Submit(Spec{
			Run: func(context.Context, *Job) error { return nil },
		})
		if err != nil {
			t.Fatal(err)
		}
		waitTerminal(t, j)
		ids = append(ids, j.ID)
	}
	// Submitting one more triggers GC of the oldest terminal jobs; the
	// runner stays parked on it, and a second submission stays queued.
	live, release := park(t, m)
	queued, _ := m.Submit(Spec{Run: func(context.Context, *Job) error { return nil }})
	if _, ok := m.Get(ids[0]); ok {
		t.Error("oldest terminal job survived GC past Keep")
	}
	if _, ok := m.Get(ids[4]); !ok {
		t.Error("recent terminal job evicted")
	}
	if _, ok := m.Get(live.ID); !ok {
		t.Error("running job evicted")
	}
	if _, ok := m.Get(queued.ID); !ok {
		t.Error("queued job evicted")
	}
	release()
	waitTerminal(t, live)
	waitTerminal(t, queued)
	drain(t, m)
}

func TestParseLaneAndStrings(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Lane
	}{{"", Interactive}, {"interactive", Interactive}, {"bulk", Bulk}} {
		got, err := ParseLane(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("ParseLane(%q) = %v, %v", tc.in, got, err)
		}
	}
	if _, err := ParseLane("urgent"); err == nil {
		t.Error("bad lane accepted")
	}
	if Interactive.String() != "interactive" || Bulk.String() != "bulk" || Lane(9).String() != "Lane(9)" {
		t.Error("lane names wrong")
	}
	if StateRunning.Terminal() || !StateDone.Terminal() || !StateFailed.Terminal() || !StateCancelled.Terminal() {
		t.Error("Terminal() wrong")
	}
}

func TestConcurrentMixedLoad(t *testing.T) {
	// A racy soak: 32 jobs across lanes, a third cancelled mid-flight,
	// subscribers attached concurrently.
	m := New(Config{Runners: 3})
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			lane := Interactive
			if i%2 == 0 {
				lane = Bulk
			}
			j, err := m.Submit(Spec{
				Lane: lane,
				Run: func(ctx context.Context, j *Job) error {
					j.Emit("coarse", i)
					select {
					case <-time.After(time.Duration(i%5) * time.Millisecond):
						return nil
					case <-ctx.Done():
						return ctx.Err()
					}
				},
			})
			if err != nil {
				t.Error(err)
				return
			}
			_, ch, cancelSub := j.Subscribe()
			defer cancelSub()
			if i%3 == 0 {
				j.Cancel()
			}
			select {
			case <-j.Done():
			case <-time.After(5 * time.Second):
				t.Errorf("job %s stuck", j.ID)
			}
			// Drain whatever the channel buffered; must not deadlock.
			for {
				select {
				case <-ch:
				default:
					return
				}
			}
		}(i)
	}
	wg.Wait()
	st := m.Stats()
	if st.Submitted != 32 || st.Done+st.Failed+st.Cancelled != 32 || st.Dispatched < st.Done || st.Dispatched > 32 {
		t.Errorf("stats %+v", st)
	}
	if st.Failed != 0 {
		t.Errorf("unexpected failures: %+v", st)
	}
	drain(t, m)
}
