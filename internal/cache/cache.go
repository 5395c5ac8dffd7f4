// Package cache implements a trace-driven, multi-level, set-associative
// cache simulator. It is the repo's stand-in for the PAPI hardware
// counters the paper reads (PAPI_L3_TCA on Ivy Bridge,
// L2_DATA_READ_MISS_MEM_FILL on Intel MIC): the kernels replay their
// exact memory-access streams through a simulated hierarchy and the
// per-level hit/miss counters provide the same "how often did requests
// escape the inner caches" signal, deterministically and without
// hardware access.
//
// The model: private L1/L2 per simulated thread, an optional shared last
// level (Ivy Bridge's 30MB L3), LRU replacement, write-allocate,
// write-back. Cache coherence between private hierarchies is not
// modeled; the paper's kernels share data read-only (the source volume)
// and partition their writes, so coherence traffic is not the signal of
// interest.
//
// Every per-access step is constant time for a given geometry: a set
// probe is one compare per way, a set's first empty way comes from a
// per-set fill count, and a TLB hit is found through its most recent
// slot or a page-indexed hint (only a TLB miss scans its entries).
//
// Counts are deterministic only when no two simulated threads share a
// level. A level shared by several Fronts — a core with CoreThreads > 1
// running two or more threads, or the shared last level under two or
// more threads — sees the threads' accesses in whatever order their
// goroutines interleave, so its counts (and, below a shared core, the
// counts of every level it fills from) can differ from run to run. Two
// back-to-back 32³ bilateral replays on MIC/16 with 2 threads differ in
// l1 and l2 counts; on IvyBridge/32 with next-line prefetch and 2
// threads they differ in llc and mem counts. A kernel that hands out
// work dynamically (the renderer's default schedule) varies each
// thread's own stream as well, so with 2 threads even private-level
// counts move. One thread always gives the same counts; several do
// only when no level is shared and each thread's stream is fixed.
package cache

import "fmt"

// LineBytes is the cache-line size used throughout (both test platforms
// use 64-byte lines).
const LineBytes = 64

const lineShift = 6

// Policy selects a replacement policy. The paper's §II-A motivates
// auto-tuning partly because "cache replacement strategies are often
// unknown"; the simulator makes the policy explicit and swappable.
type Policy int

// Replacement policies.
const (
	// LRU evicts the least recently used way (the default).
	LRU Policy = iota
	// FIFO evicts the oldest-inserted way, ignoring hits.
	FIFO
	// RandomPolicy evicts a deterministically pseudo-random way.
	RandomPolicy
)

// String names the policy.
func (p Policy) String() string {
	switch p {
	case LRU:
		return "lru"
	case FIFO:
		return "fifo"
	case RandomPolicy:
		return "random"
	}
	return fmt.Sprintf("Policy(%d)", int(p))
}

// LevelConfig describes one cache level.
type LevelConfig struct {
	Name      string // "L1", "L2", "L3"
	SizeBytes int    // total capacity
	Ways      int    // associativity
	Policy    Policy // replacement policy (zero value: LRU)
}

// Sets returns the number of sets implied by the config.
func (c LevelConfig) Sets() int { return c.SizeBytes / LineBytes / c.Ways }

func (c LevelConfig) validate() error {
	if c.SizeBytes <= 0 || c.Ways <= 0 {
		return fmt.Errorf("cache: level %s: size and ways must be positive", c.Name)
	}
	if c.SizeBytes%(LineBytes*c.Ways) != 0 {
		return fmt.Errorf("cache: level %s: size %d not divisible by ways*line", c.Name, c.SizeBytes)
	}
	return nil
}

// Counters accumulates per-level statistics.
type Counters struct {
	Accesses     uint64 // demand accesses (reads + writes) presented to this level
	Reads        uint64
	Writes       uint64
	Hits         uint64
	Misses       uint64
	ReadMisses   uint64
	WriteMisses  uint64
	Evictions    uint64
	WritebacksIn uint64 // dirty-eviction writebacks received from the level above
}

// Add accumulates other into c (for summing per-thread private levels).
func (c *Counters) Add(other Counters) {
	c.Accesses += other.Accesses
	c.Reads += other.Reads
	c.Writes += other.Writes
	c.Hits += other.Hits
	c.Misses += other.Misses
	c.ReadMisses += other.ReadMisses
	c.WriteMisses += other.WriteMisses
	c.Evictions += other.Evictions
	c.WritebacksIn += other.WritebacksIn
}

// MissRate returns Misses/Accesses, or 0 for an untouched level.
func (c Counters) MissRate() float64 {
	if c.Accesses == 0 {
		return 0
	}
	return float64(c.Misses) / float64(c.Accesses)
}

// level is one set-associative cache array.
//
// Ways fill from way 0 upward and a resident line is never invalidated
// (only replaced), so the resident ways of a set are always the prefix
// [0, fill): a set's first empty way is found in O(1), and the victim
// scan runs only over full sets.
type level struct {
	cfg  LevelConfig
	ways int
	sets uint64
	// pow2 says sets is a power of two, so line&(sets-1) is the set
	// index; otherwise it is line % sets (masking a non-power-of-two
	// set count would fold lines onto the wrong sets).
	pow2 bool
	// Flattened [set][way] arrays. keys holds line+1 for a resident way
	// and 0 for an empty one, so a probe is one compare per way.
	keys  []uint64
	dirty []bool
	used  []uint64 // LRU/FIFO timestamps
	fill  []int32  // resident ways per set
	// tick advances once per stamp written to used: victims depend only
	// on the stamps' order, so they need be distinct and increasing.
	tick uint64
	rng  uint64 // RandomPolicy state

	Counters
}

func newLevel(cfg LevelConfig) *level {
	if err := cfg.validate(); err != nil {
		panic(err)
	}
	sets := cfg.Sets()
	n := sets * cfg.Ways
	return &level{
		cfg:   cfg,
		ways:  cfg.Ways,
		sets:  uint64(sets),
		pow2:  sets&(sets-1) == 0,
		keys:  make([]uint64, n),
		dirty: make([]bool, n),
		used:  make([]uint64, n),
		fill:  make([]int32, sets),
		rng:   0x9e3779b97f4a7c15,
	}
}

// set returns line's set index.
func (l *level) set(line uint64) int {
	if l.pow2 {
		return int(line & (l.sets - 1))
	}
	return int(line % l.sets)
}

// find returns the flat index of line's way, or -1 when it is absent.
func (l *level) find(line uint64) int {
	base := l.set(line) * l.ways
	key := line + 1
	for w, k := range l.keys[base : base+l.ways] {
		if k == key {
			return base + w
		}
	}
	return -1
}

// lookup probes for line; on hit it refreshes LRU state and optionally
// marks the line dirty. It does not touch counters.
func (l *level) lookup(line uint64, markDirty bool) bool {
	i := l.find(line)
	if i < 0 {
		return false
	}
	if l.cfg.Policy == LRU { // FIFO/Random ignore recency
		l.tick++
		l.used[i] = l.tick
	}
	if markDirty {
		l.dirty[i] = true
	}
	return true
}

// insert places line into its set, evicting the LRU way if necessary.
// It returns the evicted line and whether it was dirty.
func (l *level) insert(line uint64, dirty bool) (evicted uint64, evictedDirty, didEvict bool) {
	set := l.set(line)
	base := set * l.ways
	var victim int
	if f := int(l.fill[set]); f < l.ways {
		victim = base + f
		l.fill[set]++
	} else {
		switch l.cfg.Policy {
		case RandomPolicy:
			// xorshift64*: deterministic pseudo-random way choice.
			l.rng ^= l.rng >> 12
			l.rng ^= l.rng << 25
			l.rng ^= l.rng >> 27
			victim = base + int((l.rng*0x2545f4914f6cdd1d>>33)%uint64(l.ways))
		default: // LRU and FIFO both evict the smallest timestamp
			victim = base
			for w := base + 1; w < base+l.ways; w++ {
				if l.used[w] < l.used[victim] {
					victim = w
				}
			}
		}
		evicted, evictedDirty, didEvict = l.keys[victim]-1, l.dirty[victim], true
		l.Evictions++
	}
	l.tick++
	l.keys[victim] = line + 1
	l.dirty[victim] = dirty
	l.used[victim] = l.tick
	return evicted, evictedDirty, didEvict
}

// contains probes without updating LRU or dirty state (for tests and
// writeback routing).
func (l *level) contains(line uint64) bool { return l.find(line) >= 0 }

// markDirtyIfPresent sets the dirty bit if the line is resident,
// returning whether it was.
func (l *level) markDirtyIfPresent(line uint64) bool {
	i := l.find(line)
	if i >= 0 {
		l.dirty[i] = true
	}
	return i >= 0
}
