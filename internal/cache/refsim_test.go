package cache

// This file freezes the simulator as it stood before its per-access
// steps were made constant-time: linear-probe sets with separate valid
// and tag arrays, a first-invalid-way scan on insert, and a TLB that
// scans every entry on every access. It is the reference model the
// differential tests in diff_test.go hold the production simulator to:
// the same platform and access stream must yield the same Report,
// counter for counter. Only a single goroutine drives it, so it has no
// locks.

// refLevel is the reference set-associative cache array.
type refLevel struct {
	cfg   LevelConfig
	sets  int
	tags  []uint64
	valid []bool
	dirty []bool
	used  []uint64
	tick  uint64
	rng   uint64

	Counters
}

func newRefLevel(cfg LevelConfig) *refLevel {
	sets := cfg.Sets()
	n := sets * cfg.Ways
	return &refLevel{
		cfg:   cfg,
		sets:  sets,
		tags:  make([]uint64, n),
		valid: make([]bool, n),
		dirty: make([]bool, n),
		used:  make([]uint64, n),
		rng:   0x9e3779b97f4a7c15,
	}
}

func (l *refLevel) lookup(line uint64, markDirty bool) bool {
	set := int(line % uint64(l.sets))
	base := set * l.cfg.Ways
	l.tick++
	for w := 0; w < l.cfg.Ways; w++ {
		if l.valid[base+w] && l.tags[base+w] == line {
			if l.cfg.Policy == LRU {
				l.used[base+w] = l.tick
			}
			if markDirty {
				l.dirty[base+w] = true
			}
			return true
		}
	}
	return false
}

func (l *refLevel) insert(line uint64, dirty bool) (evicted uint64, evictedDirty, didEvict bool) {
	set := int(line % uint64(l.sets))
	base := set * l.cfg.Ways
	l.tick++
	victim := -1
	for w := 0; w < l.cfg.Ways; w++ {
		if !l.valid[base+w] {
			victim = base + w
			break
		}
	}
	if victim < 0 {
		switch l.cfg.Policy {
		case RandomPolicy:
			l.rng ^= l.rng >> 12
			l.rng ^= l.rng << 25
			l.rng ^= l.rng >> 27
			victim = base + int((l.rng*0x2545f4914f6cdd1d>>33)%uint64(l.cfg.Ways))
		default:
			victim = base
			for w := 1; w < l.cfg.Ways; w++ {
				if l.used[base+w] < l.used[victim] {
					victim = base + w
				}
			}
		}
	}
	if l.valid[victim] {
		evicted, evictedDirty, didEvict = l.tags[victim], l.dirty[victim], true
		l.Evictions++
	}
	l.tags[victim] = line
	l.valid[victim] = true
	l.dirty[victim] = dirty
	l.used[victim] = l.tick
	return evicted, evictedDirty, didEvict
}

func (l *refLevel) contains(line uint64) bool {
	set := int(line % uint64(l.sets))
	base := set * l.cfg.Ways
	for w := 0; w < l.cfg.Ways; w++ {
		if l.valid[base+w] && l.tags[base+w] == line {
			return true
		}
	}
	return false
}

func (l *refLevel) markDirtyIfPresent(line uint64) bool {
	set := int(line % uint64(l.sets))
	base := set * l.cfg.Ways
	for w := 0; w < l.cfg.Ways; w++ {
		if l.valid[base+w] && l.tags[base+w] == line {
			l.dirty[base+w] = true
			return true
		}
	}
	return false
}

// refTLB is the reference fully-associative LRU TLB.
type refTLB struct {
	pages     []uint64
	used      []uint64
	valid     []bool
	tick      uint64
	pageShift uint
	TLBCounters
}

func newRefTLB(cfg TLBConfig) *refTLB {
	if cfg.Entries <= 0 {
		return nil
	}
	page := cfg.PageBytes
	if page == 0 {
		page = 4096
	}
	shift := uint(0)
	for 1<<shift < page {
		shift++
	}
	return &refTLB{
		pages:     make([]uint64, cfg.Entries),
		used:      make([]uint64, cfg.Entries),
		valid:     make([]bool, cfg.Entries),
		pageShift: shift,
	}
}

func (t *refTLB) access(addr uint64) {
	page := addr >> t.pageShift
	t.Accesses++
	t.tick++
	victim := 0
	for i := range t.pages {
		if t.valid[i] && t.pages[i] == page {
			t.used[i] = t.tick
			t.Hits++
			return
		}
		if !t.valid[i] {
			victim = i
		} else if t.valid[victim] && t.used[i] < t.used[victim] {
			victim = i
		}
	}
	t.Misses++
	t.pages[victim] = page
	t.valid[victim] = true
	t.used[victim] = t.tick
}

// refSystem is the reference access protocol: private levels per core,
// an optional shared level, and memory counters.
type refSystem struct {
	platform Platform
	fronts   []*refFront
	cores    [][]*refLevel
	shared   *refLevel

	memReads, memWrites, memPrefetchReads uint64
}

type refFront struct {
	sys        *refSystem
	private    []*refLevel
	tlb        *refTLB
	prefetch   bool
	prefetches uint64
}

func newRefSystem(p Platform, threads int) *refSystem {
	s := &refSystem{platform: p}
	if p.Shared.SizeBytes > 0 {
		s.shared = newRefLevel(p.Shared)
	}
	ct := max(p.CoreThreads, 1)
	s.cores = make([][]*refLevel, (threads+ct-1)/ct)
	for c := range s.cores {
		for _, cfg := range p.Private {
			s.cores[c] = append(s.cores[c], newRefLevel(cfg))
		}
	}
	for t := 0; t < threads; t++ {
		s.fronts = append(s.fronts, &refFront{
			sys:      s,
			private:  s.cores[t/ct],
			tlb:      newRefTLB(p.TLB),
			prefetch: p.NextLinePrefetch,
		})
	}
	return s
}

func (f *refFront) Access(addr uint64, write bool) {
	if f.tlb != nil {
		f.tlb.access(addr)
	}
	f.accessPrivate(0, addr>>lineShift, write)
}

func (f *refFront) accessPrivate(i int, line uint64, write bool) {
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
	f.accessPrivate(i+1, line, false)
	evicted, evictedDirty, did := lvl.insert(line, write)
	if did && evictedDirty {
		f.writeback(i+1, evicted)
	}
	if f.prefetch && i == len(f.private)-1 && !lvl.contains(line+1) {
		f.prefetches++
		f.prefetchFill(i+1, line+1)
		pEvicted, pDirty, pDid := lvl.insert(line+1, false)
		if pDid && pDirty {
			f.writeback(i+1, pEvicted)
		}
	}
}

func (f *refFront) prefetchFill(i int, line uint64) {
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

func (f *refFront) prefetchShared(line uint64) {
	s := f.sys
	if s.shared == nil {
		s.memPrefetchReads++
		return
	}
	if s.shared.lookup(line, false) {
		return
	}
	_, evictedDirty, did := s.shared.insert(line, false)
	s.memPrefetchReads++
	if did && evictedDirty {
		s.memWrites++
	}
}

func (f *refFront) accessShared(line uint64, write bool) {
	s := f.sys
	if s.shared == nil {
		if write {
			s.memWrites++
		} else {
			s.memReads++
		}
		return
	}
	lvl := s.shared
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
	_, evictedDirty, did := lvl.insert(line, write)
	s.memReads++
	if did && evictedDirty {
		s.memWrites++
	}
}

func (f *refFront) writeback(i int, line uint64) {
	for ; i < len(f.private); i++ {
		lvl := f.private[i]
		lvl.WritebacksIn++
		if lvl.markDirtyIfPresent(line) {
			return
		}
	}
	s := f.sys
	if s.shared != nil {
		s.shared.WritebacksIn++
		if s.shared.markDirtyIfPresent(line) {
			return
		}
	}
	s.memWrites++
}

// report assembles the reference counters into the production Report
// shape, so the two simulators compare through Report.Snapshot.
func (s *refSystem) report() Report {
	r := Report{Platform: s.platform.Name}
	r.PrivateTotal = make([]Counters, len(s.platform.Private))
	for _, levels := range s.cores {
		var row []Counters
		for i, lvl := range levels {
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
		r.Prefetches += f.prefetches
	}
	if s.shared != nil {
		r.Shared = s.shared.Counters
		r.HasShared = true
	}
	r.MemReads, r.MemWrites, r.MemPrefetchReads = s.memReads, s.memWrites, s.memPrefetchReads
	return r
}
