package cache

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// System is a full simulated memory system: per-thread private cache
// hierarchies, an optional shared last-level cache, and a memory
// endpoint. Build one per experiment run, obtain one Front per simulated
// thread, and feed each Front that thread's access stream.
type System struct {
	platform Platform
	fronts   []*Front
	cores    []*coreCaches
	shared   *level
	sharedMu sync.Mutex

	memReads         atomic.Uint64
	memWrites        atomic.Uint64
	memPrefetchReads atomic.Uint64
}

// coreCaches is one simulated core's cache hierarchy. With
// Platform.CoreThreads > 1 several fronts (hardware threads) share it —
// the MIC arrangement the paper's §IV-D discusses, where adding threads
// per core dilutes each thread's share of the L1/L2 and spatial
// locality drops.
type coreCaches struct {
	mu     sync.Mutex
	levels []*level
}

// Front is the per-thread entry point into the system. It implements
// the access protocol: probe the core's levels inner-to-outer, then the
// shared level, then memory; fill on the way back (write-allocate);
// write back dirty evictions to the next level down.
//
// Front is not safe for concurrent use by multiple goroutines; each
// simulated thread must own its Front exclusively. A core shared by
// several fronts, the shared level and the memory endpoint are
// internally synchronized.
type Front struct {
	sys *System
	// coreMu is the core's lock when other fronts share the core, nil
	// when this front is the core's only thread.
	coreMu *sync.Mutex
	// sharedMu is the shared level's lock when the system has other
	// fronts, nil when this front is its only thread.
	sharedMu *sync.Mutex
	private  []*level // the core's levels (alias of core.levels)
	tlb      *tlb     // nil when the platform has no TLB
	prefetch bool
	// Prefetches counts next-line prefetches issued by this front.
	Prefetches uint64
}

// NewSystem builds a simulated memory system for the given platform and
// simulated thread count.
func NewSystem(p Platform, threads int) *System {
	if threads <= 0 {
		panic("cache: thread count must be positive")
	}
	s := &System{platform: p}
	if p.Shared.SizeBytes > 0 {
		s.shared = newLevel(p.Shared)
	}
	ct := p.CoreThreads
	if ct < 1 {
		ct = 1
	}
	numCores := (threads + ct - 1) / ct
	s.cores = make([]*coreCaches, numCores)
	for c := range s.cores {
		cc := &coreCaches{}
		for _, cfg := range p.Private {
			cc.levels = append(cc.levels, newLevel(cfg))
		}
		s.cores[c] = cc
	}
	s.fronts = make([]*Front, threads)
	for t := range s.fronts {
		cc := s.cores[t/ct]
		f := &Front{
			sys:      s,
			private:  cc.levels,
			tlb:      newTLB(p.TLB),
			prefetch: p.NextLinePrefetch,
		}
		// Core c runs threads c·ct … c·ct+ct-1; it needs its lock only
		// when at least two of them exist.
		if ct > 1 && t/ct*ct+1 < threads {
			f.coreMu = &cc.mu
		}
		if threads > 1 {
			f.sharedMu = &s.sharedMu
		}
		s.fronts[t] = f
	}
	return s
}

// Front returns simulated thread tid's access front end.
func (s *System) Front(tid int) *Front { return s.fronts[tid] }

// Threads returns the number of simulated threads.
func (s *System) Threads() int { return len(s.fronts) }

// Platform returns the platform the system was built for.
func (s *System) Platform() Platform { return s.platform }

// Access simulates one data access at byte address addr.
func (f *Front) Access(addr uint64, write bool) {
	if f.tlb != nil {
		f.tlb.access(addr)
	}
	line := addr >> lineShift
	if f.coreMu == nil {
		f.accessPrivate(0, line, write)
		return
	}
	f.coreMu.Lock()
	f.accessPrivate(0, line, write)
	f.coreMu.Unlock()
}

// accessPrivate handles the demand access at private level i, recursing
// outward on a miss and filling on the way back.
func (f *Front) accessPrivate(i int, line uint64, write bool) {
	if i == len(f.private) {
		f.accessShared(line, write)
		return
	}
	lvl := f.private[i]
	lvl.Accesses++
	if write {
		lvl.Writes++
	} else {
		lvl.Reads++
	}
	if lvl.lookup(line, write) {
		lvl.Hits++
		return
	}
	lvl.Misses++
	if write {
		lvl.WriteMisses++
	} else {
		lvl.ReadMisses++
	}
	// Write-allocate: fetch the line from below (a read), then install
	// it here, dirty if this was a write.
	f.accessPrivate(i+1, line, false)
	evicted, evictedDirty, did := lvl.insert(line, write)
	if did && evictedDirty {
		f.writeback(i+1, evicted)
	}
	// Next-line prefetch at the outermost private level: on a demand
	// miss, pull line+1 in too (fetching it from below if absent). The
	// fetch must not take the demand path — a prefetch is not a demand
	// access, so it may move cache state but not the shared-level or
	// memory demand counters (it is tallied in Prefetches and, when it
	// reaches memory, MemPrefetchReads).
	if f.prefetch && i == len(f.private)-1 && !lvl.contains(line+1) {
		f.Prefetches++
		f.prefetchFill(i+1, line+1)
		pEvicted, pDirty, pDid := lvl.insert(line+1, false)
		if pDid && pDirty {
			f.writeback(i+1, pEvicted)
		}
	}
}

// prefetchFill brings line into private level i on behalf of a next-line
// prefetch, recursing outward when absent. It mirrors the demand fill's
// state changes — LRU touch on a hit, insert, dirty-victim writeback —
// without incrementing any demand counter.
func (f *Front) prefetchFill(i int, line uint64) {
	if i == len(f.private) {
		f.prefetchShared(line)
		return
	}
	lvl := f.private[i]
	if lvl.lookup(line, false) {
		return
	}
	f.prefetchFill(i+1, line)
	evicted, evictedDirty, did := lvl.insert(line, false)
	if did && evictedDirty {
		f.writeback(i+1, evicted)
	}
}

// prefetchShared is prefetchFill's shared-level leg: cache state moves
// exactly as a demand fill would move it, but the only counters touched
// are MemPrefetchReads for the memory fill and the ordinary writeback
// tally for a dirty victim.
func (f *Front) prefetchShared(line uint64) {
	s := f.sys
	if s.shared == nil {
		s.memPrefetch()
		return
	}
	f.lockShared()
	hit := s.shared.lookup(line, false)
	var evictedDirty, did bool
	if !hit {
		_, evictedDirty, did = s.shared.insert(line, false)
	}
	f.unlockShared()
	if hit {
		return
	}
	s.memPrefetch()
	if did && evictedDirty {
		s.memAccess(true) // victim writeback is real demand traffic
	}
}

// accessShared handles the demand access at the shared level (if any),
// then memory.
func (f *Front) accessShared(line uint64, write bool) {
	s := f.sys
	if s.shared == nil {
		s.memAccess(write)
		return
	}
	f.lockShared()
	lvl := s.shared
	lvl.Accesses++
	if write {
		lvl.Writes++
	} else {
		lvl.Reads++
	}
	if lvl.lookup(line, write) {
		lvl.Hits++
		f.unlockShared()
		return
	}
	lvl.Misses++
	if write {
		lvl.WriteMisses++
	} else {
		lvl.ReadMisses++
	}
	_, evictedDirty, did := lvl.insert(line, write)
	f.unlockShared()
	s.memAccess(false) // the fill read
	if did && evictedDirty {
		s.memAccess(true) // writeback of the victim
	}
}

// writeback delivers a dirty evicted line to private level i (or the
// shared level / memory beyond). If the line is resident there it is
// marked dirty; otherwise the writeback passes through to the next
// level. Writebacks do not count as demand accesses or misses and do
// not disturb LRU state, but are tallied in WritebacksIn.
func (f *Front) writeback(i int, line uint64) {
	for ; i < len(f.private); i++ {
		lvl := f.private[i]
		lvl.WritebacksIn++
		if lvl.markDirtyIfPresent(line) {
			return
		}
	}
	s := f.sys
	if s.shared != nil {
		f.lockShared()
		s.shared.WritebacksIn++
		hit := s.shared.markDirtyIfPresent(line)
		f.unlockShared()
		if hit {
			return
		}
	}
	s.memAccess(true)
}

// lockShared takes the shared level's lock, if other fronts share it.
func (f *Front) lockShared() {
	if f.sharedMu != nil {
		f.sharedMu.Lock()
	}
}

// unlockShared releases what lockShared took.
func (f *Front) unlockShared() {
	if f.sharedMu != nil {
		f.sharedMu.Unlock()
	}
}

// memPrefetch counts a memory fill triggered by a prefetch, kept apart
// from the demand read/write counters.
func (s *System) memPrefetch() { s.memPrefetchReads.Add(1) }

func (s *System) memAccess(write bool) {
	if write {
		s.memWrites.Add(1)
	} else {
		s.memReads.Add(1)
	}
}

// Report is a summary of all counters after a simulation run.
type Report struct {
	Platform string
	// PrivateTotal[i] sums level i's counters across all threads
	// (index 0 = L1).
	PrivateTotal []Counters
	// PerCore[c][i] is core c's level-i counters; with CoreThreads == 1
	// (the default) a core is one thread.
	PerCore [][]Counters
	// Shared is the shared level's counters (zero value if none).
	Shared    Counters
	HasShared bool
	MemReads  uint64
	MemWrites uint64
	// TLB sums per-thread TLB counters (zero value when disabled).
	TLB TLBCounters
	// Prefetches sums next-line prefetches issued (zero when disabled).
	Prefetches uint64
	// MemPrefetchReads counts memory fills triggered by prefetches,
	// separate from the demand MemReads.
	MemPrefetchReads uint64
}

// Report gathers all counters. Call after the access streams are fully
// replayed.
func (s *System) Report() Report {
	r := Report{Platform: s.platform.Name}
	nLevels := len(s.platform.Private)
	r.PrivateTotal = make([]Counters, nLevels)
	for _, cc := range s.cores {
		var row []Counters
		for i, lvl := range cc.levels {
			row = append(row, lvl.Counters)
			r.PrivateTotal[i].Add(lvl.Counters)
		}
		r.PerCore = append(r.PerCore, row)
	}
	for _, f := range s.fronts {
		if f.tlb != nil {
			r.TLB.Accesses += f.tlb.Accesses
			r.TLB.Hits += f.tlb.Hits
			r.TLB.Misses += f.tlb.Misses
		}
		r.Prefetches += f.Prefetches
	}
	if s.shared != nil {
		r.Shared = s.shared.Counters
		r.HasShared = true
	}
	r.MemReads = s.memReads.Load()
	r.MemWrites = s.memWrites.Load()
	r.MemPrefetchReads = s.memPrefetchReads.Load()
	return r
}

// PaperMetric extracts the counter the paper reports for this platform:
// total shared-LLC accesses (PAPI_L3_TCA) when a shared level exists,
// otherwise L2 read misses that filled from memory
// (L2_DATA_READ_MISS_MEM_FILL).
func (r Report) PaperMetric() uint64 {
	if r.HasShared {
		return r.Shared.Accesses
	}
	if n := len(r.PrivateTotal); n > 0 {
		return r.PrivateTotal[n-1].ReadMisses
	}
	return r.MemReads
}

// MetricName names the counter PaperMetric returns, matching the
// paper's terminology.
func (r Report) MetricName() string {
	if r.HasShared {
		return "PAPI_L3_TCA"
	}
	return "L2_DATA_READ_MISS"
}

// Snapshot flattens the report into a stable name → value map for
// machine-readable export (run manifests, expvar). Keys are "l1.*" ..
// "lN.*" for private levels, "llc.*" for the shared level, "tlb.*",
// "mem.reads"/"mem.writes", "prefetches", and the platform's paper
// counter under "paper_metric".
func (r Report) Snapshot() map[string]uint64 {
	out := make(map[string]uint64)
	put := func(prefix string, c Counters) {
		out[prefix+".accesses"] = c.Accesses
		out[prefix+".reads"] = c.Reads
		out[prefix+".writes"] = c.Writes
		out[prefix+".hits"] = c.Hits
		out[prefix+".misses"] = c.Misses
		out[prefix+".read_misses"] = c.ReadMisses
		out[prefix+".write_misses"] = c.WriteMisses
		out[prefix+".evictions"] = c.Evictions
		out[prefix+".writebacks_in"] = c.WritebacksIn
	}
	for i, c := range r.PrivateTotal {
		put(fmt.Sprintf("l%d", i+1), c)
	}
	if r.HasShared {
		put("llc", r.Shared)
	}
	if r.TLB.Accesses > 0 {
		out["tlb.accesses"] = r.TLB.Accesses
		out["tlb.hits"] = r.TLB.Hits
		out["tlb.misses"] = r.TLB.Misses
	}
	if r.Prefetches > 0 {
		out["prefetches"] = r.Prefetches
	}
	if r.MemPrefetchReads > 0 {
		out["mem.prefetch_reads"] = r.MemPrefetchReads
	}
	out["mem.reads"] = r.MemReads
	out["mem.writes"] = r.MemWrites
	out["paper_metric"] = r.PaperMetric()
	return out
}

// String renders a compact human-readable report.
func (r Report) String() string {
	out := fmt.Sprintf("platform %s (%d cores)\n", r.Platform, len(r.PerCore))
	for i, c := range r.PrivateTotal {
		out += fmt.Sprintf("  L%d  acc %12d  hit %12d  miss %10d (%.4f)\n",
			i+1, c.Accesses, c.Hits, c.Misses, c.MissRate())
	}
	if r.HasShared {
		c := r.Shared
		out += fmt.Sprintf("  LLC acc %12d  hit %12d  miss %10d (%.4f)\n",
			c.Accesses, c.Hits, c.Misses, c.MissRate())
	}
	if r.TLB.Accesses > 0 {
		out += fmt.Sprintf("  TLB acc %12d  hit %12d  miss %10d (%.4f)\n",
			r.TLB.Accesses, r.TLB.Hits, r.TLB.Misses, r.TLB.MissRate())
	}
	if r.Prefetches > 0 {
		out += fmt.Sprintf("  prefetches issued %d (mem fills %d)\n", r.Prefetches, r.MemPrefetchReads)
	}
	out += fmt.Sprintf("  mem reads %d writes %d\n", r.MemReads, r.MemWrites)
	out += fmt.Sprintf("  %s = %d\n", r.MetricName(), r.PaperMetric())
	return out
}
