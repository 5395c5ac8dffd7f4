// Package rcache is a byte-budgeted, content-addressed response cache
// with single-flight request coalescing, built for serving layers whose
// results are expensive to compute and deterministic given a request
// digest (cmd/sfcserved keys it by volume name + store generation +
// full render/filter parameters).
//
// The cache stores opaque response Values (body bytes plus replay
// metadata) under caller-chosen keys in an LRU bounded by a byte
// budget. Do is the main entry point: a key that is resident returns
// immediately (hit); a key that is already being computed blocks the
// caller on the in-flight run (coalesced) without doing any work of
// its own; otherwise the caller becomes the leader, runs the compute
// function once, and every waiter shares the result.
//
// Cancellation is asymmetric by design: a waiter abandoning the wait
// only detaches that waiter — the leader keeps computing for everyone
// else. If the leader itself is cancelled, its context error is not
// inherited by the waiters; each live waiter retries, one of them
// becomes the new leader, and only waiters whose own contexts have
// expired give up.
//
// Invalidation is the caller's job and is expected to happen in the
// key: embed a generation counter that changes when the underlying
// data changes, and stale entries become unreachable, aging out of
// the LRU under budget pressure.
package rcache

import (
	"container/list"
	"context"
	"errors"
	"sync"
	"sync/atomic"
)

// Value is one cached response: the body bytes plus the metadata a
// server needs to replay it (content type and any extra headers).
// Values are stored and returned by value; callers must not mutate
// Body or Meta after Put/Do or after receiving them back.
type Value struct {
	Body        []byte
	ContentType string
	Meta        map[string]string
}

// entryOverhead approximates the per-entry bookkeeping bytes (map
// slot, list element, entry struct, key copy) so the budget does not
// pretend metadata is free. Being a little wrong only shifts where
// eviction kicks in.
const entryOverhead = 256

// cost is the bytes an entry charges against the budget.
func cost(key string, v Value) int64 {
	n := int64(entryOverhead + len(key) + len(v.Body) + len(v.ContentType))
	for k, val := range v.Meta {
		n += int64(len(k) + len(val))
	}
	return n
}

// Outcome classifies how a Do call was satisfied.
type Outcome int

const (
	// Hit means the value was already resident.
	Hit Outcome = iota
	// Miss means this caller was the leader and ran the compute
	// function.
	Miss
	// Coalesced means the caller blocked on another caller's
	// in-flight computation and shared its result.
	Coalesced
)

// String returns the outcome in lowercase, suitable for an X-Cache
// response header.
func (o Outcome) String() string {
	switch o {
	case Hit:
		return "hit"
	case Miss:
		return "miss"
	case Coalesced:
		return "coalesced"
	}
	return "unknown"
}

// entry is one resident value, linked into the LRU list.
type entry struct {
	key  string
	val  Value
	cost int64
	elem *list.Element
}

// flight is one in-progress computation. val and err are written by
// the leader before done is closed, so waiters reading them after
// <-done observe a consistent result.
type flight struct {
	done chan struct{}
	val  Value
	err  error
}

// Stats is a point-in-time snapshot of the cache counters.
type Stats struct {
	Hits          uint64
	Misses        uint64
	Evictions     uint64
	Coalesced     uint64
	ResidentBytes int64
	Entries       int
	BudgetBytes   int64
}

// Cache is the byte-budgeted LRU with request coalescing. The zero
// value is not usable; construct with New.
type Cache struct {
	budget int64

	mu       sync.Mutex
	entries  map[string]*entry
	lru      *list.List // front = most recently used
	flights  map[string]*flight
	resident int64

	hits      atomic.Uint64
	misses    atomic.Uint64
	evictions atomic.Uint64
	coalesced atomic.Uint64
}

// New returns a cache holding at most budget bytes of entries. A
// budget <= 0 retains nothing but still coalesces concurrent Do calls
// for the same key.
func New(budget int64) *Cache {
	return &Cache{
		budget:  budget,
		entries: make(map[string]*entry),
		lru:     list.New(),
		flights: make(map[string]*flight),
	}
}

// Get returns the resident value for key, counting a hit or a miss.
// It does not join or start a flight; use Do for that.
func (c *Cache) Get(key string) (Value, bool) {
	c.mu.Lock()
	e, ok := c.entries[key]
	var v Value
	if ok {
		c.lru.MoveToFront(e.elem)
		// Copy the value inside the critical section: a concurrent Put
		// to the same key rewrites e.val in place under the lock.
		v = e.val
	}
	c.mu.Unlock()
	if !ok {
		c.misses.Add(1)
		return Value{}, false
	}
	c.hits.Add(1)
	return v, true
}

// Has reports whether key is resident without counting a hit or a miss
// and without touching the LRU order: for a caller that goes on to Do,
// which counts the request once.
func (c *Cache) Has(key string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.entries[key]
	return ok
}

// Invalidate drops key's resident entry, if any, so the next Do for
// the key re-runs its compute function. An in-flight computation for
// the key is left alone — its waiters expect its result; a caller
// that replaced the underlying state can invalidate again once it
// lands. Invalidated entries do not count as evictions.
func (c *Cache) Invalidate(key string) {
	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		c.lru.Remove(e.elem)
		delete(c.entries, key)
		c.resident -= e.cost
	}
	c.mu.Unlock()
}

// Put stores v under key unconditionally (no flight interaction),
// evicting least-recently-used entries until the budget holds. A
// value whose cost alone exceeds the budget is not retained.
func (c *Cache) Put(key string, v Value) {
	c.mu.Lock()
	c.putLocked(key, v)
	c.mu.Unlock()
}

func (c *Cache) putLocked(key string, v Value) {
	nc := cost(key, v)
	if nc > c.budget {
		// Would evict the entire cache and still not fit; the caller
		// keeps its freshly computed value, we keep our working set.
		return
	}
	if e, ok := c.entries[key]; ok {
		c.resident += nc - e.cost
		e.val, e.cost = v, nc
		c.lru.MoveToFront(e.elem)
	} else {
		e := &entry{key: key, val: v, cost: nc}
		e.elem = c.lru.PushFront(e)
		c.entries[key] = e
		c.resident += nc
	}
	for c.resident > c.budget {
		back := c.lru.Back()
		if back == nil {
			break
		}
		ev := back.Value.(*entry)
		c.lru.Remove(back)
		delete(c.entries, ev.key)
		c.resident -= ev.cost
		c.evictions.Add(1)
	}
}

// Do returns the value for key, computing it at most once across
// concurrent callers. The compute function receives the leader's own
// context; its error (nil or not) is shared with every waiter, except
// that a leader's context error triggers the waiter-retry path
// described in the package comment. Errors are never cached. If the
// compute function panics, the panic propagates to the leader's
// caller and waiters are released with ErrComputePanicked.
func (c *Cache) Do(ctx context.Context, key string, fn func(context.Context) (Value, error)) (Value, Outcome, error) {
	for {
		c.mu.Lock()
		if e, ok := c.entries[key]; ok {
			c.lru.MoveToFront(e.elem)
			v := e.val
			c.mu.Unlock()
			c.hits.Add(1)
			return v, Hit, nil
		}
		if f, ok := c.flights[key]; ok {
			c.mu.Unlock()
			c.coalesced.Add(1)
			select {
			case <-f.done:
			case <-ctx.Done():
				return Value{}, Coalesced, ctx.Err()
			}
			if f.err == nil {
				return f.val, Coalesced, nil
			}
			if errors.Is(f.err, context.Canceled) || errors.Is(f.err, context.DeadlineExceeded) {
				// The leader's context died, not ours. Retry: the next
				// loop iteration finds either a fresh flight to join or
				// no flight, in which case this waiter leads.
				if ctx.Err() != nil {
					return Value{}, Coalesced, ctx.Err()
				}
				continue
			}
			return Value{}, Coalesced, f.err
		}
		f := &flight{done: make(chan struct{})}
		c.flights[key] = f
		c.mu.Unlock()

		c.misses.Add(1)
		return c.lead(ctx, key, f, fn)
	}
}

// ErrComputePanicked is the error waiters receive when the leader's
// compute function panicked instead of returning. The panic itself
// propagates to the leader's caller.
var ErrComputePanicked = errors.New("rcache: compute function panicked")

// lead runs the compute function as the flight's leader. Teardown —
// deregistering the flight, caching a successful result, releasing
// waiters — runs in a defer so that a panicking fn still closes done;
// otherwise every present and future Do for the key would block
// forever on a poisoned flight (net/http recovers per-request panics,
// so the process would live on with the key wedged).
func (c *Cache) lead(ctx context.Context, key string, f *flight, fn func(context.Context) (Value, error)) (Value, Outcome, error) {
	// Provisional error: only overwritten if fn returns. Waiters read
	// it after done closes, so a panic surfaces to them as a plain
	// non-retryable error.
	f.err = ErrComputePanicked
	defer func() {
		c.mu.Lock()
		delete(c.flights, key)
		if f.err == nil {
			c.putLocked(key, f.val)
		}
		c.mu.Unlock()
		close(f.done)
	}()
	f.val, f.err = fn(ctx)
	return f.val, Miss, f.err
}

// Stats snapshots the counters. Counter reads are individually atomic
// (not a consistent cut), which is fine for metrics export.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	resident, entries := c.resident, len(c.entries)
	c.mu.Unlock()
	return Stats{
		Hits:          c.hits.Load(),
		Misses:        c.misses.Load(),
		Evictions:     c.evictions.Load(),
		Coalesced:     c.coalesced.Load(),
		ResidentBytes: resident,
		Entries:       entries,
		BudgetBytes:   c.budget,
	}
}
