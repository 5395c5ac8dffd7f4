package main

import (
	"fmt"
	"math/rand/v2"
	"runtime"
	"time"
)

// countRounds is the length of the exact-count window: the first rounds
// of every traced run, over which op counts and server counter deltas
// must repeat exactly for a given seed.
const countRounds = 2

// windowCounters are the server counters whose deltas over the count
// window form the exact-count channel.
var windowCounters = []string{
	"store.loads", "store.load_bytes", "store.writes", "store.write_bytes", "store.evictions",
	"cache.hits", "cache.misses", "cache.coalesced", "cache.evictions",
	"jobs.batches", "jobs.submitted",
}

// closedLoop is the one client: it runs each round's ops one at a time,
// each after the previous one has completed, until done says stop (or
// three times the budget has passed). run returns the class the
// response put the op in ("" when endRound tallies it instead). In a
// traced run even rounds record spans and odd rounds do not, so host
// drift hits both alike and finish can compare them.
func closedLoop[O any](b *bench, svc *service, rng *rand.Rand, round func(r int, rng *rand.Rand) []O,
	run func(O) (string, error), endRound func(), done func(elapsed time.Duration) bool) (time.Duration, error) {
	var before map[string]float64
	att0 := map[string]int{}
	for c, n := range b.attempted {
		att0[c] = n
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	gc0 := ms.NumGC
	start := time.Now()
	for r := 0; ; r++ {
		b.rec.on = b.cfg.trace && r%2 == 0
		if b.cfg.trace && r == 0 && svc != nil {
			var err error
			if before, err = svc.scrape(); err != nil {
				return 0, err
			}
		}
		for _, op := range round(r, rng) {
			b.maybeCalibrate()
			class, err := run(op)
			if class != "" {
				b.tally(class, err)
			}
		}
		if endRound != nil {
			endRound()
		}
		if b.cfg.trace && r == countRounds-1 {
			for c, n := range b.attempted {
				if n > att0[c] {
					b.window["ops."+c] = float64(n - att0[c])
				}
			}
			if svc != nil {
				after, err := svc.scrape()
				if err != nil {
					return 0, err
				}
				for _, k := range windowCounters {
					b.window[k] = after[k] - before[k]
				}
			}
		}
		el := time.Since(start)
		if r+1 >= countRounds && done(el) {
			break
		}
		if el.Seconds() > 3*b.cfg.seconds {
			return 0, fmt.Errorf("timed phase overran: %d rounds in %v", r+1, el)
		}
	}
	timed := time.Since(start)
	b.rec.on = b.cfg.trace
	runtime.ReadMemStats(&ms)
	b.layers["runtime.gc_cycles"] = float64(ms.NumGC - gc0)
	return timed, nil
}
