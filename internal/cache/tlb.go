package cache

// TLBConfig describes a data TLB: a fully-associative, LRU-replaced
// page-translation cache. Entries == 0 disables TLB simulation.
//
// The TLB matters to the paper's story because against-the-grain array-
// order sweeps touch a new page almost every access (a 512³ float volume
// has a 1MB slab stride — every z-step crosses 256 pages), while Z-order
// neighborhoods stay within a handful of pages. The TLB counters expose
// that second locality axis beyond cache lines.
type TLBConfig struct {
	Entries   int // number of translations held; 0 disables
	PageBytes int // page size; 0 defaults to 4096
}

// TLBCounters accumulates TLB statistics.
type TLBCounters struct {
	Accesses uint64
	Hits     uint64
	Misses   uint64
}

// MissRate returns Misses/Accesses, or 0 for an untouched TLB.
func (c TLBCounters) MissRate() float64 {
	if c.Accesses == 0 {
		return 0
	}
	return float64(c.Misses) / float64(c.Accesses)
}

// tlb is one thread's translation cache.
//
// A hit costs O(1): the most-recently-used slot is checked first, then
// the slot a page-indexed hint table remembers for the page. The hint
// table is only a hint (two resident pages may share a bucket), so when
// both checks fail access falls back to the full scan, which finds a
// resident page the hint lost or else chooses the victim: the last
// empty slot, otherwise the first slot with the smallest used stamp.
type tlb struct {
	pages     []uint64 // page+1 per slot, 0 for an empty slot
	used      []uint64
	tick      uint64
	mru       int     // slot of the last translation
	hint      []int32 // slot last seen holding a page, by page hash
	pageShift uint
	TLBCounters
}

// tlbHintBits sizes the hint table at 1024 buckets, 16 per entry of a
// 64-entry TLB, so a resident page rarely loses its bucket.
const tlbHintBits = 10

func newTLB(cfg TLBConfig) *tlb {
	if cfg.Entries <= 0 {
		return nil
	}
	page := cfg.PageBytes
	if page == 0 {
		page = 4096
	}
	if page&(page-1) != 0 {
		panic("cache: TLB page size must be a power of two")
	}
	shift := uint(0)
	for 1<<shift < page {
		shift++
	}
	return &tlb{
		pages:     make([]uint64, cfg.Entries),
		used:      make([]uint64, cfg.Entries),
		hint:      make([]int32, 1<<tlbHintBits),
		pageShift: shift,
	}
}

// access translates one byte address, updating hit/miss counters and
// LRU state.
func (t *tlb) access(addr uint64) {
	key := addr>>t.pageShift + 1
	t.Accesses++
	t.tick++
	if t.pages[t.mru] == key {
		t.used[t.mru] = t.tick
		t.Hits++
		return
	}
	h := key * 0x9e3779b97f4a7c15 >> (64 - tlbHintBits) // Fibonacci hashing
	if s := int(t.hint[h]); t.pages[s] == key {
		t.mru = s
		t.used[s] = t.tick
		t.Hits++
		return
	}
	victim := 0
	for i, p := range t.pages {
		if p == key {
			t.hint[h], t.mru = int32(i), i
			t.used[i] = t.tick
			t.Hits++
			return
		}
		if p == 0 {
			victim = i
		} else if t.pages[victim] != 0 && t.used[i] < t.used[victim] {
			victim = i
		}
	}
	t.Misses++
	t.pages[victim] = key
	t.used[victim] = t.tick
	t.hint[h], t.mru = int32(victim), victim
}
