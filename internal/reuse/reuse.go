// Package reuse computes LRU reuse-distance (stack-distance) profiles
// from memory-access traces.
//
// The reuse distance of an access is the number of *distinct* cache
// lines touched since the previous access to the same line. Under a
// fully-associative LRU cache of C lines, an access hits exactly when
// its reuse distance is < C (Mattson et al. 1970) — so a single profile
// predicts the miss ratio of every cache size at once, giving an
// architecture-independent view of the locality the paper's Z-order
// layout buys. sfcbench -fig 7 tabulates these curves for each layout;
// they complement the set-associative simulation in internal/cache,
// which additionally captures conflict misses.
//
// The analyzer implements grid.Sink, so it attaches to kernels exactly
// like the cache simulator's fronts. The classic algorithm is used:
// distance = the count of lines whose last access falls between the
// previous and current accesses to this line, maintained in a Fenwick
// tree indexed by access time — O(log n) per access.
package reuse

import (
	"fmt"
	"math"
	"strings"
)

// lineShift matches the cache simulator's 64-byte lines.
const lineShift = 6

// MaxBuckets bounds the histogram: bucket 0 holds distance 0 and bucket
// b >= 1 holds distances in [2^(b-1), 2^b), so every power-of-two cache
// size falls on a bucket boundary. 48 buckets cover any realizable
// distance.
const MaxBuckets = 48

// Analyzer accumulates a reuse-distance histogram from an access stream.
// It is not safe for concurrent use; give each simulated thread its own
// Analyzer and Merge the histograms.
type Analyzer struct {
	last map[uint64]int32 // line -> time of last access (1-based)
	bit  []int32          // Fenwick tree over access times, 1 at each line's last access
	time int32
	hist Histogram
}

// NewAnalyzer returns an empty analyzer. capacityHint sizes internal
// structures for an expected trace length (0 is fine).
func NewAnalyzer(capacityHint int) *Analyzer {
	if capacityHint < 1024 {
		capacityHint = 1024
	}
	return &Analyzer{
		last: make(map[uint64]int32, capacityHint/8),
		bit:  make([]int32, nextPow2(capacityHint)+1),
	}
}

// Access records one access at byte address addr (the write flag is
// accepted for grid.Sink compatibility; reads and writes age the stack
// identically under LRU).
func (a *Analyzer) Access(addr uint64, _ bool) {
	line := addr >> lineShift
	a.time++
	t := a.time
	if int(t) >= len(a.bit) {
		a.grow()
	}
	a.hist.Total++
	if prev, seen := a.last[line]; seen {
		// Distinct lines touched strictly between prev and t: each line
		// contributes a single 1 at its last-access time, so the prefix
		// sums give the count directly. Subtract 1 for this line's own
		// marker at prev.
		dist := a.prefix(t-1) - a.prefix(prev-1) - 1
		a.hist.Buckets[bucketOf(dist)]++
		a.add(prev, -1)
	} else {
		a.hist.Cold++
	}
	a.add(t, 1)
	a.last[line] = t
}

// Histogram returns the profile accumulated so far. The caller may keep
// feeding accesses afterwards.
func (a *Analyzer) Histogram() Histogram { return a.hist }

// Lines returns the number of distinct lines seen.
func (a *Analyzer) Lines() int { return len(a.last) }

// Fenwick tree primitives (1-based).
func (a *Analyzer) add(i, delta int32) {
	for ; int(i) < len(a.bit); i += i & -i {
		a.bit[i] += delta
	}
}

func (a *Analyzer) prefix(i int32) int32 {
	var s int32
	for ; i > 0; i -= i & -i {
		s += a.bit[i]
	}
	return s
}

// grow doubles the Fenwick tree, re-inserting each line's last-access
// marker (the only live state).
func (a *Analyzer) grow() {
	a.bit = make([]int32, 2*(len(a.bit)-1)+1)
	for _, t := range a.last {
		a.add(t, 1)
	}
}

func bucketOf(dist int32) int {
	if dist <= 0 {
		return 0
	}
	b := 1
	for d := dist; d > 1; d >>= 1 {
		b++
	}
	if b >= MaxBuckets {
		b = MaxBuckets - 1
	}
	return b
}

func nextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// Histogram is a log2-bucketed reuse-distance profile. Bucket 0 counts
// distance-0 accesses; bucket b >= 1 counts distances in [2^(b-1), 2^b).
type Histogram struct {
	Buckets [MaxBuckets]uint64
	Cold    uint64 // first-ever accesses (infinite distance)
	Total   uint64
}

// Merge accumulates another histogram (e.g. from another thread's
// analyzer) into h.
func (h *Histogram) Merge(other Histogram) {
	for i := range h.Buckets {
		h.Buckets[i] += other.Buckets[i]
	}
	h.Cold += other.Cold
	h.Total += other.Total
}

// MissRatio predicts the miss ratio of a fully-associative LRU cache
// holding cacheLines lines: the fraction of accesses whose reuse
// distance is >= cacheLines, plus cold misses. Exact when cacheLines is
// a power of two (bucket boundaries align); otherwise it interpolates
// within the straddled bucket.
func (h Histogram) MissRatio(cacheLines int) float64 {
	if h.Total == 0 {
		return 0
	}
	if cacheLines <= 0 {
		return 1
	}
	misses := float64(h.Cold)
	for b := 0; b < MaxBuckets; b++ {
		lo, hi := bucketBounds(b)
		switch {
		case lo >= cacheLines:
			misses += float64(h.Buckets[b])
		case hi > cacheLines:
			// Straddling bucket: assume uniform within.
			frac := float64(hi-cacheLines) / float64(hi-lo)
			misses += frac * float64(h.Buckets[b])
		}
	}
	return misses / float64(h.Total)
}

// bucketBounds returns bucket b's distance range [lo, hi).
func bucketBounds(b int) (lo, hi int) {
	if b == 0 {
		return 0, 1
	}
	return 1 << (b - 1), 1 << b
}

// Curve evaluates MissRatio at power-of-two cache sizes from 2^from to
// 2^to lines inclusive, returning (sizes, ratios).
func (h Histogram) Curve(from, to int) (sizes []int, ratios []float64) {
	for b := from; b <= to; b++ {
		sizes = append(sizes, 1<<b)
		ratios = append(ratios, h.MissRatio(1<<b))
	}
	return sizes, ratios
}

// String renders the profile as a table of cumulative miss ratios.
func (h Histogram) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "reuse-distance profile: %d accesses, %d cold\n", h.Total, h.Cold)
	fmt.Fprintf(&sb, "%12s %12s\n", "cache lines", "miss ratio")
	for b := 4; b <= 24; b += 2 {
		mr := h.MissRatio(1 << b)
		fmt.Fprintf(&sb, "%12d %12.4f\n", 1<<b, mr)
		if mr <= 1e-9 && float64(h.Cold)/math.Max(float64(h.Total), 1) <= 1e-9 {
			break
		}
	}
	return sb.String()
}
