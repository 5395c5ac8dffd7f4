package rcache

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func val(body string) Value {
	return Value{Body: []byte(body), ContentType: "text/plain"}
}

func TestGetPutAndLRUEviction(t *testing.T) {
	// Budget sized for exactly two of these entries.
	one := cost("k0", val("0123456789"))
	c := New(2 * one)

	if _, ok := c.Get("k0"); ok {
		t.Fatal("empty cache returned a value")
	}
	c.Put("k0", val("0123456789"))
	c.Put("k1", val("0123456789"))
	if got := c.Stats(); got.ResidentBytes != 2*one || got.Entries != 2 {
		t.Fatalf("resident %d bytes %d entries, want %d and 2", got.ResidentBytes, got.Entries, 2*one)
	}

	// Touch k0 so k1 is the LRU victim when k2 arrives.
	if _, ok := c.Get("k0"); !ok {
		t.Fatal("k0 missing")
	}
	c.Put("k2", val("0123456789"))
	if _, ok := c.Get("k1"); ok {
		t.Error("k1 survived eviction; LRU order wrong")
	}
	for _, key := range []string{"k0", "k2"} {
		if _, ok := c.Get(key); !ok {
			t.Errorf("%s evicted, want resident", key)
		}
	}
	st := c.Stats()
	if st.Evictions != 1 {
		t.Errorf("evictions = %d, want 1", st.Evictions)
	}
	if st.Hits != 3 || st.Misses != 2 {
		t.Errorf("hits/misses = %d/%d, want 3/2", st.Hits, st.Misses)
	}
}

func TestPutReplaceAdjustsResidentBytes(t *testing.T) {
	c := New(1 << 20)
	c.Put("k", val("short"))
	before := c.Stats().ResidentBytes
	c.Put("k", val("a considerably longer body than before"))
	after := c.Stats()
	if after.Entries != 1 {
		t.Fatalf("entries = %d, want 1", after.Entries)
	}
	want := before + int64(len("a considerably longer body than before")-len("short"))
	if after.ResidentBytes != want {
		t.Errorf("resident = %d, want %d", after.ResidentBytes, want)
	}
}

func TestOversizedValueNotRetained(t *testing.T) {
	c := New(64)
	big := Value{Body: make([]byte, 4096)}
	c.Put("big", big)
	if _, ok := c.Get("big"); ok {
		t.Error("value larger than the whole budget was retained")
	}
	if st := c.Stats(); st.ResidentBytes != 0 {
		t.Errorf("resident = %d, want 0", st.ResidentBytes)
	}
}

func TestMetaCountsAgainstBudget(t *testing.T) {
	v := Value{Body: []byte("b"), ContentType: "x", Meta: map[string]string{"X-Image-Width": "256"}}
	base := Value{Body: []byte("b"), ContentType: "x"}
	if cost("k", v) <= cost("k", base) {
		t.Error("Meta headers do not charge the budget")
	}
}

func TestDoMissThenHit(t *testing.T) {
	c := New(1 << 20)
	runs := 0
	fn := func(context.Context) (Value, error) { runs++; return val("body"), nil }

	v, out, err := c.Do(context.Background(), "k", fn)
	if err != nil || out != Miss || string(v.Body) != "body" {
		t.Fatalf("first Do: %v %v %q", err, out, v.Body)
	}
	v, out, err = c.Do(context.Background(), "k", fn)
	if err != nil || out != Hit || string(v.Body) != "body" {
		t.Fatalf("second Do: %v %v %q", err, out, v.Body)
	}
	if runs != 1 {
		t.Errorf("compute ran %d times, want 1", runs)
	}
}

func TestDoErrorSharedNotCached(t *testing.T) {
	c := New(1 << 20)
	boom := errors.New("boom")
	started := make(chan struct{})
	release := make(chan struct{})
	go func() {
		c.Do(context.Background(), "k", func(context.Context) (Value, error) { //nolint:errcheck
			close(started)
			<-release
			return Value{}, boom
		})
	}()
	<-started
	waiterErr := make(chan error, 1)
	go func() {
		_, _, err := c.Do(context.Background(), "k", func(context.Context) (Value, error) {
			t.Error("waiter ran the compute function")
			return Value{}, nil
		})
		waiterErr <- err
	}()
	waitFor(t, "waiter coalesced", func() bool { return c.Stats().Coalesced == 1 })
	close(release)
	if err := <-waiterErr; !errors.Is(err, boom) {
		t.Errorf("waiter error %v, want boom", err)
	}
	// The failure was not cached: the next Do recomputes.
	_, out, err := c.Do(context.Background(), "k", func(context.Context) (Value, error) { return val("ok"), nil })
	if err != nil || out != Miss {
		t.Errorf("Do after failure: %v %v, want nil Miss", err, out)
	}
}

// TestCoalescingStress is the package's -race acceptance test: with an
// empty cache, n concurrent identical requests run the compute
// function exactly once (one miss, n-1 coalesced waiters), and every
// caller gets the identical bytes.
func TestCoalescingStress(t *testing.T) {
	const n = 32
	c := New(1 << 20)
	var runs atomic.Int32
	release := make(chan struct{})

	var wg sync.WaitGroup
	results := make(chan string, n)
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, _, err := c.Do(context.Background(), "k", func(context.Context) (Value, error) {
				runs.Add(1)
				<-release
				return val("shared"), nil
			})
			results <- string(v.Body)
			errs <- err
		}()
	}
	// The leader is parked inside fn; wait until every other goroutine
	// has joined the flight, then let the computation finish.
	waitFor(t, "all waiters coalesced", func() bool { return c.Stats().Coalesced == n-1 })
	close(release)
	wg.Wait()
	close(results)
	close(errs)

	if got := runs.Load(); got != 1 {
		t.Errorf("compute ran %d times, want 1", got)
	}
	for err := range errs {
		if err != nil {
			t.Errorf("Do: %v", err)
		}
	}
	for body := range results {
		if body != "shared" {
			t.Errorf("body %q, want %q", body, "shared")
		}
	}
	st := c.Stats()
	if st.Misses != 1 || st.Coalesced != n-1 {
		t.Errorf("misses/coalesced = %d/%d, want 1/%d", st.Misses, st.Coalesced, n-1)
	}
}

// TestWaiterCancelDoesNotCancelLeader: a waiter abandoning the wait
// detaches only itself; the leader completes and the result lands in
// the cache.
func TestWaiterCancelDoesNotCancelLeader(t *testing.T) {
	c := New(1 << 20)
	entered := make(chan struct{})
	release := make(chan struct{})
	leaderDone := make(chan error, 1)
	go func() {
		_, _, err := c.Do(context.Background(), "k", func(ctx context.Context) (Value, error) {
			close(entered)
			select {
			case <-release:
				return val("survived"), nil
			case <-ctx.Done():
				return Value{}, ctx.Err()
			}
		})
		leaderDone <- err
	}()
	<-entered

	wctx, wcancel := context.WithCancel(context.Background())
	waiterDone := make(chan error, 1)
	go func() {
		_, _, err := c.Do(wctx, "k", func(context.Context) (Value, error) {
			t.Error("waiter ran the compute function")
			return Value{}, nil
		})
		waiterDone <- err
	}()
	waitFor(t, "waiter coalesced", func() bool { return c.Stats().Coalesced == 1 })
	wcancel()
	if err := <-waiterDone; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled waiter got %v, want context.Canceled", err)
	}
	select {
	case err := <-leaderDone:
		t.Fatalf("leader finished early with %v; waiter cancellation leaked", err)
	default:
	}

	close(release)
	if err := <-leaderDone; err != nil {
		t.Fatalf("leader: %v", err)
	}
	if v, ok := c.Get("k"); !ok || string(v.Body) != "survived" {
		t.Errorf("leader result not cached (ok=%v)", ok)
	}
}

// TestLeaderCancelPromotesWaiter: when the leader's own context dies,
// waiters do not inherit the cancellation — one of them retries as
// the new leader.
func TestLeaderCancelPromotesWaiter(t *testing.T) {
	c := New(1 << 20)
	lctx, lcancel := context.WithCancel(context.Background())
	entered := make(chan struct{})
	leaderDone := make(chan error, 1)
	go func() {
		_, _, err := c.Do(lctx, "k", func(ctx context.Context) (Value, error) {
			close(entered)
			<-ctx.Done()
			return Value{}, ctx.Err()
		})
		leaderDone <- err
	}()
	<-entered

	waiterDone := make(chan error, 1)
	var waiterOut Outcome
	go func() {
		_, out, err := c.Do(context.Background(), "k", func(context.Context) (Value, error) {
			return val("second wind"), nil
		})
		waiterOut = out
		waiterDone <- err
	}()
	waitFor(t, "waiter coalesced", func() bool { return c.Stats().Coalesced == 1 })

	lcancel()
	if err := <-leaderDone; !errors.Is(err, context.Canceled) {
		t.Fatalf("leader got %v, want context.Canceled", err)
	}
	if err := <-waiterDone; err != nil {
		t.Fatalf("promoted waiter got %v, want success", err)
	}
	if waiterOut != Miss {
		t.Errorf("promoted waiter outcome %v, want Miss (it led the retry)", waiterOut)
	}
	if v, ok := c.Get("k"); !ok || string(v.Body) != "second wind" {
		t.Errorf("retry result not cached (ok=%v)", ok)
	}
}

// TestLeaderPanicReleasesWaiters: a panic in the compute function must
// not poison the key. The flight teardown runs in a defer, so waiters
// are released with ErrComputePanicked, the panic propagates to the
// leader's caller, and the next Do for the key computes afresh.
func TestLeaderPanicReleasesWaiters(t *testing.T) {
	c := New(1 << 20)
	entered := make(chan struct{})
	release := make(chan struct{})
	leaderPanic := make(chan any, 1)
	go func() {
		defer func() { leaderPanic <- recover() }()
		c.Do(context.Background(), "k", func(context.Context) (Value, error) { //nolint:errcheck
			close(entered)
			<-release
			panic("kernel exploded")
		})
	}()
	<-entered
	waiterDone := make(chan error, 1)
	go func() {
		_, _, err := c.Do(context.Background(), "k", func(context.Context) (Value, error) {
			t.Error("waiter ran the compute function")
			return Value{}, nil
		})
		waiterDone <- err
	}()
	waitFor(t, "waiter coalesced", func() bool { return c.Stats().Coalesced == 1 })
	close(release)
	if r := <-leaderPanic; r == nil {
		t.Fatal("panic did not propagate to the leader's caller")
	}
	if err := <-waiterDone; !errors.Is(err, ErrComputePanicked) {
		t.Fatalf("waiter got %v, want ErrComputePanicked", err)
	}
	// The key is not poisoned: a fresh Do leads and the panic result
	// was not cached.
	v, out, err := c.Do(context.Background(), "k", func(context.Context) (Value, error) { return val("recovered"), nil })
	if err != nil || out != Miss || string(v.Body) != "recovered" {
		t.Errorf("Do after panic: %v %v %q, want nil Miss recovered", err, out, v.Body)
	}
}

// TestInvalidate: dropping one key leaves the rest (and the resident
// accounting) intact, does not count as an eviction, and the next Do
// recomputes.
func TestInvalidate(t *testing.T) {
	c := New(1 << 20)
	c.Put("k", val("stale"))
	c.Put("other", val("keep"))
	c.Invalidate("k")
	c.Invalidate("absent") // no-op
	if _, ok := c.Get("k"); ok {
		t.Error("invalidated entry still resident")
	}
	if _, ok := c.Get("other"); !ok {
		t.Error("unrelated entry dropped by Invalidate")
	}
	st := c.Stats()
	if st.Evictions != 0 {
		t.Errorf("evictions = %d; invalidation must not count as eviction", st.Evictions)
	}
	if want := cost("other", val("keep")); st.ResidentBytes != want || st.Entries != 1 {
		t.Errorf("resident/entries = %d/%d, want %d/1", st.ResidentBytes, st.Entries, want)
	}
	_, out, err := c.Do(context.Background(), "k", func(context.Context) (Value, error) { return val("fresh"), nil })
	if err != nil || out != Miss {
		t.Errorf("Do after Invalidate: %v %v, want nil Miss", err, out)
	}
}

// TestGetPutRace fails under -race if Get reads the entry's value
// outside the critical section: Put rewrites e.val in place under the
// lock while a concurrent Get of the same key reads it.
func TestGetPutRace(t *testing.T) {
	c := New(1 << 20)
	c.Put("k", val("seed"))
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 500; j++ {
				if i%2 == 0 {
					c.Put("k", val("bodies"[:1+j%6]))
				} else if v, ok := c.Get("k"); ok && len(v.Body) == 0 {
					t.Error("Get returned an empty body")
				}
			}
		}(i)
	}
	wg.Wait()
}

func TestZeroBudgetStillCoalesces(t *testing.T) {
	c := New(0)
	var runs atomic.Int32
	release := make(chan struct{})
	const n = 4
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _, err := c.Do(context.Background(), "k", func(context.Context) (Value, error) {
				runs.Add(1)
				<-release
				return val("v"), nil
			})
			if err != nil {
				t.Errorf("Do: %v", err)
			}
		}()
	}
	waitFor(t, "waiters coalesced", func() bool { return c.Stats().Coalesced == n-1 })
	close(release)
	wg.Wait()
	if got := runs.Load(); got != 1 {
		t.Errorf("compute ran %d times, want 1", got)
	}
	if _, ok := c.Get("k"); ok {
		t.Error("zero-budget cache retained a value")
	}
}

func TestOutcomeString(t *testing.T) {
	cases := map[Outcome]string{Hit: "hit", Miss: "miss", Coalesced: "coalesced", Outcome(42): "unknown"}
	for o, want := range cases {
		if got := o.String(); got != want {
			t.Errorf("Outcome(%d).String() = %q, want %q", int(o), got, want)
		}
	}
}

// TestGenerationKeyedInvalidation documents the intended invalidation
// idiom: the generation lives in the key, so a bump makes the old
// entry unreachable without an explicit purge.
func TestGenerationKeyedInvalidation(t *testing.T) {
	c := New(1 << 20)
	key := func(gen int) string { return fmt.Sprintf("vol|gen=%d|w=64", gen) }
	c.Put(key(1), val("old"))
	if _, ok := c.Get(key(1)); !ok {
		t.Fatal("gen-1 entry missing")
	}
	if _, ok := c.Get(key(2)); ok {
		t.Fatal("gen-2 key resolved to the stale entry")
	}
	_, out, err := c.Do(context.Background(), key(2), func(context.Context) (Value, error) { return val("new"), nil })
	if err != nil || out != Miss {
		t.Errorf("post-bump Do: %v %v, want nil Miss", err, out)
	}
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestHasCountsNothing: Has finds resident keys without counting a hit
// or a miss and without refreshing the entry's LRU position.
func TestHasCountsNothing(t *testing.T) {
	c := New(2 * cost("a", Value{Body: make([]byte, 100)}))
	c.Put("a", Value{Body: make([]byte, 100)})
	c.Put("b", Value{Body: make([]byte, 100)})
	if !c.Has("a") {
		t.Fatal("Has missed a resident key")
	}
	if c.Has("zz") {
		t.Fatal("Has found an absent key")
	}
	if st := c.Stats(); st.Hits != 0 || st.Misses != 0 {
		t.Fatalf("Has counted hits %d, misses %d", st.Hits, st.Misses)
	}
	c.Put("c", Value{Body: make([]byte, 100)}) // evicts the least recent
	if c.Has("a") {
		t.Fatal("Has refreshed a's LRU position: b was evicted instead")
	}
}
