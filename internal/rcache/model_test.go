package rcache

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// model is a sequential reference for Cache: a map of resident values
// plus a recency list (front = most recently used), and the counters
// Stats reports. It shares no code with the cache.
type model struct {
	budget                             int64
	vals                               map[string]Value
	order                              []string // front = most recently used
	resident                           int64
	hits, misses, evictions, coalesced uint64
}

func newModel(budget int64) *model {
	return &model{budget: budget, vals: map[string]Value{}}
}

func modelCost(key string, v Value) int64 {
	n := int64(entryOverhead + len(key) + len(v.Body) + len(v.ContentType))
	for k, val := range v.Meta {
		n += int64(len(k) + len(val))
	}
	return n
}

func (m *model) touch(key string) {
	m.drop(key)
	m.order = append([]string{key}, m.order...)
}

func (m *model) drop(key string) {
	for i, k := range m.order {
		if k == key {
			m.order = append(m.order[:i], m.order[i+1:]...)
			return
		}
	}
}

func (m *model) get(key string) (Value, bool) {
	v, ok := m.vals[key]
	if ok {
		m.hits++
		m.touch(key)
	} else {
		m.misses++
	}
	return v, ok
}

func (m *model) put(key string, v Value) {
	c := modelCost(key, v)
	if c > m.budget {
		return // not retained; a resident older value stays
	}
	if old, ok := m.vals[key]; ok {
		m.resident -= modelCost(key, old)
	}
	m.vals[key] = v
	m.resident += c
	m.touch(key)
	for m.resident > m.budget {
		lru := m.order[len(m.order)-1]
		m.order = m.order[:len(m.order)-1]
		m.resident -= modelCost(lru, m.vals[lru])
		delete(m.vals, lru)
		m.evictions++
	}
}

func (m *model) invalidate(key string) {
	if v, ok := m.vals[key]; ok {
		m.resident -= modelCost(key, v)
		delete(m.vals, key)
		m.drop(key)
	}
}

// do is Do without concurrency: a hit, or a miss that runs fn and
// keeps a successful result.
func (m *model) do(key string, fn func() (Value, error)) (Value, Outcome, error) {
	if v, ok := m.vals[key]; ok {
		m.hits++
		m.touch(key)
		return v, Hit, nil
	}
	m.misses++
	v, err := fn()
	if err == nil {
		m.put(key, v)
	}
	return v, Miss, err
}

func (m *model) stats() Stats {
	return Stats{
		Hits: m.hits, Misses: m.misses, Evictions: m.evictions, Coalesced: m.coalesced,
		ResidentBytes: m.resident, Entries: len(m.vals), BudgetBytes: m.budget,
	}
}

var (
	modelKeys  = []string{"a", "bb", "ccc", "dddd"}
	modelSizes = []int{0, 40, 300, 700, 1500}
	errCompute = errors.New("compute failed")
)

// modelValue builds the value for one step: its body starts with the
// key and the step, so a value returned under the wrong key or from a
// stale write is visible.
func modelValue(r *rand.Rand, key string, step int) Value {
	body := fmt.Sprintf("%s#%d;", key, step)
	body += strings.Repeat("x", modelSizes[r.Intn(len(modelSizes))])
	v := Value{Body: []byte(body), ContentType: "application/octet-stream"}
	if r.Intn(4) == 0 {
		v.Meta = map[string]string{"ETag": fmt.Sprintf("%q", body[:len(key)+2])}
	}
	return v
}

func sameValue(a, b Value) bool {
	if string(a.Body) != string(b.Body) || a.ContentType != b.ContentType || len(a.Meta) != len(b.Meta) {
		return false
	}
	for k, v := range a.Meta {
		if b.Meta[k] != v {
			return false
		}
	}
	return true
}

// TestCacheMatchesSequentialModel drives Cache and the model with the
// same seeded random sequences of Get, Put, Do (hit, miss and error),
// Invalidate and Has over a few keys, with a budget that holds one to
// three entries. After every step each result, the residency of every
// key, the resident bytes and Stats must agree.
func TestCacheMatchesSequentialModel(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		r := rand.New(rand.NewSource(seed))
		budget := int64(600 + r.Intn(2400))
		c, m := New(budget), newModel(budget)
		for step := 0; step < 400; step++ {
			key := modelKeys[r.Intn(len(modelKeys))]
			var what string
			switch op := r.Intn(6); op {
			case 0:
				what = "Get " + key
				gv, gok := c.Get(key)
				mv, mok := m.get(key)
				if gok != mok || gok && !sameValue(gv, mv) {
					t.Fatalf("seed %d step %d %s: cache (%q, %v), model (%q, %v)", seed, step, what, gv.Body, gok, mv.Body, mok)
				}
			case 1:
				what = "Put " + key
				v := modelValue(r, key, step)
				c.Put(key, v)
				m.put(key, v)
			case 2, 3:
				v := modelValue(r, key, step)
				var err error
				if op == 3 {
					err = errCompute
				}
				what = fmt.Sprintf("Do %s (fn err %v)", key, err)
				fn := func() (Value, error) { return v, err }
				gv, gout, gerr := c.Do(context.Background(), key, func(context.Context) (Value, error) { return fn() })
				mv, mout, merr := m.do(key, fn)
				if gout != mout || !errors.Is(gerr, merr) || merr == nil && !sameValue(gv, mv) {
					t.Fatalf("seed %d step %d %s: cache (%q, %v, %v), model (%q, %v, %v)",
						seed, step, what, gv.Body, gout, gerr, mv.Body, mout, merr)
				}
			case 4:
				what = "Invalidate " + key
				c.Invalidate(key)
				m.invalidate(key)
			case 5:
				what = "Has " + key
				if _, want := m.vals[key]; c.Has(key) != want {
					t.Fatalf("seed %d step %d %s = %v, model %v", seed, step, what, !want, want)
				}
			}
			if got, want := c.Stats(), m.stats(); got != want {
				t.Fatalf("seed %d step %d after %s: Stats %+v, model %+v", seed, step, what, got, want)
			}
			for _, k := range modelKeys {
				_, want := m.vals[k]
				if got := c.Has(k); got != want {
					t.Fatalf("seed %d step %d after %s: Has(%s) = %v, model %v", seed, step, what, k, got, want)
				}
			}
		}
	}
}

// TestCacheConcurrentInvariants runs the model's random sequences from
// several goroutines at once (no model: the interleaving decides the
// results). Whatever the interleaving, the resident bytes stay within
// the budget, every value returned under a key was stored under it, and
// every Get and Do is counted exactly once as a hit, a miss or a
// coalesced wait.
func TestCacheConcurrentInvariants(t *testing.T) {
	const goroutines, steps = 6, 1500
	c := New(1800)
	var lookups atomic.Uint64
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			check := func(key string, v Value, step int) {
				if !strings.HasPrefix(string(v.Body), key+"#") {
					t.Errorf("seed %d step %d: value %q returned under key %q", seed, step, v.Body, key)
				}
			}
			for step := 0; step < steps; step++ {
				key := modelKeys[r.Intn(len(modelKeys))]
				switch op := r.Intn(6); op {
				case 0:
					lookups.Add(1)
					if v, ok := c.Get(key); ok {
						check(key, v, step)
					}
				case 1:
					c.Put(key, modelValue(r, key, step))
				case 2, 3:
					lookups.Add(1)
					v := modelValue(r, key, step)
					v, _, err := c.Do(context.Background(), key, func(context.Context) (Value, error) {
						runtime.Gosched() // widen the window for waiters to coalesce
						if op == 3 {
							return Value{}, errCompute
						}
						return v, nil
					})
					if err == nil {
						check(key, v, step)
					} else if !errors.Is(err, errCompute) {
						t.Errorf("seed %d step %d: Do error %v", seed, step, err)
					}
				case 4:
					c.Invalidate(key)
				case 5:
					c.Has(key)
				}
				if st := c.Stats(); st.ResidentBytes > st.BudgetBytes || st.ResidentBytes < 0 {
					t.Errorf("seed %d step %d: resident %d bytes, budget %d", seed, step, st.ResidentBytes, st.BudgetBytes)
				}
			}
		}(int64(g + 1))
	}
	wg.Wait()
	st := c.Stats()
	if got := st.Hits + st.Misses + st.Coalesced; got != lookups.Load() {
		t.Errorf("hits %d + misses %d + coalesced %d = %d, want the %d lookups made",
			st.Hits, st.Misses, st.Coalesced, got, lookups.Load())
	}
	if st.Coalesced == 0 {
		t.Log("no Do call coalesced in this run")
	}
}
