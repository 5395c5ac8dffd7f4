package cache

import (
	"sync"
	"testing"
	"testing/quick"
)

// tiny returns a platform with one small private L1 (1KB, 2-way) and no
// shared level — easy to reason about in unit tests.
func tiny() Platform {
	return Platform{
		Name:    "tiny",
		Private: []LevelConfig{{Name: "L1", SizeBytes: 1 << 10, Ways: 2}},
	}
}

func TestSequentialScanMissesOncePerLine(t *testing.T) {
	sys := NewSystem(tiny(), 1)
	f := sys.Front(0)
	const bytes = 8 << 10 // 8KB: 128 lines, cache holds 16
	for a := uint64(0); a < bytes; a += 4 {
		f.Access(a, false)
	}
	r := sys.Report()
	l1 := r.PrivateTotal[0]
	if l1.Accesses != bytes/4 {
		t.Errorf("accesses %d, want %d", l1.Accesses, bytes/4)
	}
	if l1.Misses != bytes/LineBytes {
		t.Errorf("misses %d, want one per line = %d", l1.Misses, bytes/LineBytes)
	}
	if r.MemReads != bytes/LineBytes {
		t.Errorf("memory reads %d, want %d", r.MemReads, bytes/LineBytes)
	}
	if r.MemWrites != 0 {
		t.Errorf("memory writes %d on a read-only scan", r.MemWrites)
	}
}

func TestResidentWorkingSetHitsAfterWarmup(t *testing.T) {
	sys := NewSystem(tiny(), 1)
	f := sys.Front(0)
	const ws = 512 // bytes, half the 1KB cache
	for pass := 0; pass < 3; pass++ {
		for a := uint64(0); a < ws; a += 4 {
			f.Access(a, false)
		}
	}
	l1 := sys.Report().PrivateTotal[0]
	if l1.Misses != ws/LineBytes {
		t.Errorf("misses %d, want compulsory-only %d", l1.Misses, ws/LineBytes)
	}
	wantHits := uint64(3*ws/4) - uint64(ws/LineBytes)
	if l1.Hits != wantHits {
		t.Errorf("hits %d, want %d", l1.Hits, wantHits)
	}
}

func TestLRUEvictsLeastRecentlyUsed(t *testing.T) {
	// 2-way, 8 sets (1KB/2way/64B). Three lines mapping to set 0:
	// line numbers 0, 8, 16 (stride = sets).
	sys := NewSystem(tiny(), 1)
	f := sys.Front(0)
	lineAddr := func(n uint64) uint64 { return n * LineBytes }
	f.Access(lineAddr(0), false)  // miss, set0 = {0}
	f.Access(lineAddr(8), false)  // miss, set0 = {0,8}
	f.Access(lineAddr(0), false)  // hit, 0 most recent
	f.Access(lineAddr(16), false) // miss, evicts 8 (LRU)
	f.Access(lineAddr(0), false)  // must still hit
	f.Access(lineAddr(8), false)  // must miss again
	l1 := sys.Report().PrivateTotal[0]
	if l1.Misses != 4 {
		t.Errorf("misses %d, want 4", l1.Misses)
	}
	if l1.Hits != 2 {
		t.Errorf("hits %d, want 2", l1.Hits)
	}
}

func TestDirtyEvictionWritesBack(t *testing.T) {
	sys := NewSystem(tiny(), 1)
	f := sys.Front(0)
	f.Access(0, true) // write-allocate line 0, dirty
	// Evict it by filling its set with two other lines (2-way, 8 sets).
	f.Access(8*LineBytes, false)
	f.Access(16*LineBytes, false)
	r := sys.Report()
	if r.MemWrites != 1 {
		t.Errorf("memory writes %d, want 1 (dirty line 0)", r.MemWrites)
	}
	// Clean evictions must not write back.
	f.Access(24*LineBytes, false) // evicts a clean line
	if r2 := sys.Report(); r2.MemWrites != 1 {
		t.Errorf("memory writes grew to %d after clean eviction", r2.MemWrites)
	}
}

func TestTwoLevelFill(t *testing.T) {
	p := Platform{
		Name: "twolevel",
		Private: []LevelConfig{
			{Name: "L1", SizeBytes: 1 << 10, Ways: 2},
			{Name: "L2", SizeBytes: 8 << 10, Ways: 4},
		},
	}
	sys := NewSystem(p, 1)
	f := sys.Front(0)
	// Stream 4KB: fits L2, not L1.
	const ws = 4 << 10
	for pass := 0; pass < 2; pass++ {
		for a := uint64(0); a < ws; a += 64 {
			f.Access(a, false)
		}
	}
	r := sys.Report()
	l1, l2 := r.PrivateTotal[0], r.PrivateTotal[1]
	lines := uint64(ws / LineBytes)
	if l1.Misses != 2*lines {
		t.Errorf("L1 misses %d, want %d (working set exceeds L1 both passes)", l1.Misses, 2*lines)
	}
	if l2.Misses != lines {
		t.Errorf("L2 misses %d, want compulsory-only %d", l2.Misses, lines)
	}
	if l2.Hits != lines {
		t.Errorf("L2 hits %d, want %d on second pass", l2.Hits, lines)
	}
	if r.MemReads != lines {
		t.Errorf("memory reads %d, want %d", r.MemReads, lines)
	}
}

func TestSharedLevelVisibleAcrossThreads(t *testing.T) {
	p := Platform{
		Name:    "sharedtest",
		Private: []LevelConfig{{Name: "L1", SizeBytes: 1 << 10, Ways: 2}},
		Shared:  LevelConfig{Name: "LLC", SizeBytes: 64 << 10, Ways: 8},
	}
	sys := NewSystem(p, 2)
	sys.Front(0).Access(0, false) // thread 0 pulls the line into LLC
	sys.Front(1).Access(0, false) // thread 1 misses L1 but hits LLC
	r := sys.Report()
	if !r.HasShared {
		t.Fatal("report lost shared level")
	}
	if r.Shared.Accesses != 2 || r.Shared.Hits != 1 || r.Shared.Misses != 1 {
		t.Errorf("shared counters %+v", r.Shared)
	}
	if r.MemReads != 1 {
		t.Errorf("memory reads %d, want 1", r.MemReads)
	}
}

func TestPrivateLevelsAreIsolated(t *testing.T) {
	sys := NewSystem(tiny(), 2)
	sys.Front(0).Access(0, false)
	sys.Front(1).Access(0, false)
	r := sys.Report()
	if r.PerCore[0][0].Misses != 1 || r.PerCore[1][0].Misses != 1 {
		t.Errorf("both threads should miss privately: %+v / %+v",
			r.PerCore[0][0], r.PerCore[1][0])
	}
}

func TestPaperMetricIvyBridge(t *testing.T) {
	sys := NewSystem(Scaled(IvyBridge(), 64), 1)
	f := sys.Front(0)
	for a := uint64(0); a < 1<<20; a += 64 {
		f.Access(a, false)
	}
	r := sys.Report()
	if r.MetricName() != "PAPI_L3_TCA" {
		t.Errorf("metric name %q", r.MetricName())
	}
	if r.PaperMetric() != r.Shared.Accesses {
		t.Errorf("PaperMetric %d != shared accesses %d", r.PaperMetric(), r.Shared.Accesses)
	}
	// Every L2 miss becomes an L3 access on this platform.
	if r.PaperMetric() != r.PrivateTotal[1].Misses {
		t.Errorf("L3 accesses %d != L2 misses %d", r.PaperMetric(), r.PrivateTotal[1].Misses)
	}
}

func TestPaperMetricMIC(t *testing.T) {
	sys := NewSystem(Scaled(MIC(), 64), 1)
	f := sys.Front(0)
	for a := uint64(0); a < 1<<20; a += 64 {
		f.Access(a, false)
	}
	r := sys.Report()
	if r.MetricName() != "L2_DATA_READ_MISS" {
		t.Errorf("metric name %q", r.MetricName())
	}
	if r.PaperMetric() != r.PrivateTotal[1].ReadMisses {
		t.Errorf("PaperMetric %d != L2 read misses %d", r.PaperMetric(), r.PrivateTotal[1].ReadMisses)
	}
}

func TestWritebackLandsInNextLevelWhenResident(t *testing.T) {
	p := Platform{
		Name: "wb",
		Private: []LevelConfig{
			{Name: "L1", SizeBytes: 1 << 10, Ways: 2},
			{Name: "L2", SizeBytes: 64 << 10, Ways: 8},
		},
	}
	sys := NewSystem(p, 1)
	f := sys.Front(0)
	f.Access(0, true)             // dirty in L1, resident in L2
	f.Access(8*LineBytes, false)  // same L1 set
	f.Access(16*LineBytes, false) // evicts dirty line 0 from L1
	r := sys.Report()
	if r.MemWrites != 0 {
		t.Errorf("writeback should be absorbed by L2, got %d memory writes", r.MemWrites)
	}
	if r.PrivateTotal[1].WritebacksIn != 1 {
		t.Errorf("L2 writebacks-in %d, want 1", r.PrivateTotal[1].WritebacksIn)
	}
}

func TestCountersAdd(t *testing.T) {
	a := Counters{Accesses: 1, Reads: 2, Writes: 3, Hits: 4, Misses: 5,
		ReadMisses: 6, WriteMisses: 7, Evictions: 8, WritebacksIn: 9}
	var b Counters
	b.Add(a)
	b.Add(a)
	if b.Accesses != 2 || b.WritebacksIn != 18 || b.Misses != 10 {
		t.Errorf("Add broken: %+v", b)
	}
}

func TestMissRate(t *testing.T) {
	if (Counters{}).MissRate() != 0 {
		t.Error("empty miss rate should be 0")
	}
	c := Counters{Accesses: 10, Misses: 3}
	if c.MissRate() != 0.3 {
		t.Errorf("miss rate %v", c.MissRate())
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []LevelConfig{
		{Name: "x", SizeBytes: 0, Ways: 1},
		{Name: "x", SizeBytes: 1024, Ways: 0},
		{Name: "x", SizeBytes: 1000, Ways: 2}, // not divisible by ways*line
	}
	for _, cfg := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("newLevel(%+v) did not panic", cfg)
				}
			}()
			newLevel(cfg)
		}()
	}
}

func TestLevelContains(t *testing.T) {
	l := newLevel(LevelConfig{Name: "L1", SizeBytes: 1 << 10, Ways: 2})
	if l.contains(5) {
		t.Error("empty cache claims to contain line 5")
	}
	l.insert(5, false)
	if !l.contains(5) {
		t.Error("inserted line not found")
	}
	if !l.markDirtyIfPresent(5) {
		t.Error("markDirtyIfPresent missed resident line")
	}
	if l.markDirtyIfPresent(6) {
		t.Error("markDirtyIfPresent hit absent line")
	}
}

func TestScaled(t *testing.T) {
	p := Scaled(IvyBridge(), 16)
	if p.Private[0].SizeBytes != 2<<10 {
		t.Errorf("scaled L1 = %d", p.Private[0].SizeBytes)
	}
	if p.Shared.SizeBytes != 30<<20/16 {
		t.Errorf("scaled L3 = %d", p.Shared.SizeBytes)
	}
	// Scaling never drops below one full set row.
	q := Scaled(tiny(), 1024)
	if q.Private[0].SizeBytes < LineBytes*q.Private[0].Ways {
		t.Errorf("over-scaled L1 = %d", q.Private[0].SizeBytes)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Scaled with factor 3 did not panic")
			}
		}()
		Scaled(p, 3)
	}()
}

func TestParsePlatform(t *testing.T) {
	p, err := ParsePlatform("ivy/16")
	if err != nil || p.Shared.SizeBytes != 30<<20/16 {
		t.Errorf("ivy/16: %+v, %v", p, err)
	}
	if _, err := ParsePlatform("mic"); err != nil {
		t.Errorf("mic: %v", err)
	}
	for _, bad := range []string{"bogus", "ivy/3", "ivy/x"} {
		if _, err := ParsePlatform(bad); err == nil {
			t.Errorf("ParsePlatform(%q) should fail", bad)
		}
	}
}

func TestNewSystemPanicsOnZeroThreads(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic for 0 threads")
		}
	}()
	NewSystem(tiny(), 0)
}

// Conservation property: at every level, accesses = hits + misses, and
// reads+writes = accesses, under any access stream.
func TestCounterConservation(t *testing.T) {
	f := func(addrs []uint32, writes []bool) bool {
		sys := NewSystem(Platform{
			Name: "c",
			Private: []LevelConfig{
				{Name: "L1", SizeBytes: 512, Ways: 2},
				{Name: "L2", SizeBytes: 2048, Ways: 4},
			},
			Shared: LevelConfig{Name: "L3", SizeBytes: 8192, Ways: 4},
		}, 1)
		fr := sys.Front(0)
		for i, a := range addrs {
			w := i < len(writes) && writes[i]
			fr.Access(uint64(a), w)
		}
		r := sys.Report()
		all := append([]Counters{}, r.PrivateTotal...)
		all = append(all, r.Shared)
		for _, c := range all {
			if c.Hits+c.Misses != c.Accesses {
				return false
			}
			if c.Reads+c.Writes != c.Accesses {
				return false
			}
			if c.ReadMisses+c.WriteMisses != c.Misses {
				return false
			}
		}
		// Inclusive-fill property: outer demand accesses equal inner misses.
		if r.PrivateTotal[1].Accesses != r.PrivateTotal[0].Misses {
			return false
		}
		if r.Shared.Accesses != r.PrivateTotal[1].Misses {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func BenchmarkAccessHit(b *testing.B) {
	sys := NewSystem(IvyBridge(), 1)
	f := sys.Front(0)
	f.Access(0, false)
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		f.Access(0, false)
	}
}

func BenchmarkAccessStream(b *testing.B) {
	sys := NewSystem(IvyBridge(), 1)
	f := sys.Front(0)
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		f.Access(uint64(n)*4, false)
	}
}

// BenchmarkStencilStreamTLB replays a 7-point stencil over a 64³
// float32 array-order volume (1 MiB, 256 pages) through the 1/32-scaled
// IvyBridge hierarchy with its 64-entry TLB on: the ±z taps sit four
// pages apart, so the stream mixes TLB hits and misses and spills every
// cache level. Reported per simulated access.
func BenchmarkStencilStreamTLB(b *testing.B) {
	const n = 64
	taps := [][3]int{{0, 0, 0}, {-1, 0, 0}, {1, 0, 0}, {0, -1, 0}, {0, 1, 0}, {0, 0, -1}, {0, 0, 1}}
	var accesses uint64
	b.ResetTimer()
	for it := 0; it < b.N; it++ {
		sys := NewSystem(Scaled(IvyBridge(), 32), 1)
		f := sys.Front(0)
		for k := 1; k < n-1; k++ {
			for j := 1; j < n-1; j++ {
				for i := 1; i < n-1; i++ {
					for _, d := range taps {
						f.Access(uint64(((k+d[2])*n+j+d[1])*n+i+d[0])*4, false)
					}
					f.Access(1<<40+uint64((k*n+j)*n+i)*4, true)
				}
			}
		}
		accesses += sys.Report().PrivateTotal[0].Accesses
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(accesses), "ns/access")
}

// TestConcurrentFrontsConserveCounts drives every front from its own
// goroutine, as the kernels' workers do: two cores shared by two
// threads each (locked), one core with a single thread (unlocked), a
// shared last level and atomic memory counters. Under -race it checks
// that only unshared state goes unlocked; the totals must conserve
// whatever the interleaving.
func TestConcurrentFrontsConserveCounts(t *testing.T) {
	p := Platform{
		Name: "smt",
		Private: []LevelConfig{
			{Name: "L1", SizeBytes: 1 << 10, Ways: 2},
			{Name: "L2", SizeBytes: 4 << 10, Ways: 4},
		},
		Shared:           LevelConfig{Name: "L3", SizeBytes: 12 << 10, Ways: 4},
		TLB:              TLBConfig{Entries: 8},
		CoreThreads:      2,
		NextLinePrefetch: true,
	}
	const threads, perThread = 5, 20000
	sys := NewSystem(p, threads)
	var wg sync.WaitGroup
	for tid := 0; tid < threads; tid++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			f := sys.Front(tid)
			for i := uint64(0); i < perThread; i++ {
				f.Access(uint64(tid)<<20+(i*4168)%(64<<10), i%3 == 0)
			}
		}(tid)
	}
	wg.Wait()
	r := sys.Report()
	if r.PrivateTotal[0].Accesses != threads*perThread || r.TLB.Accesses != threads*perThread {
		t.Errorf("l1 accesses %d, tlb accesses %d, want %d", r.PrivateTotal[0].Accesses, r.TLB.Accesses, threads*perThread)
	}
	if r.PrivateTotal[1].Accesses != r.PrivateTotal[0].Misses || r.Shared.Accesses != r.PrivateTotal[1].Misses {
		t.Errorf("demand accesses do not chain: l1 misses %d, l2 accesses %d, l2 misses %d, llc accesses %d",
			r.PrivateTotal[0].Misses, r.PrivateTotal[1].Accesses, r.PrivateTotal[1].Misses, r.Shared.Accesses)
	}
	if r.MemReads != r.Shared.Misses {
		t.Errorf("mem reads %d, want one fill per llc miss = %d", r.MemReads, r.Shared.Misses)
	}
	if len(r.PerCore) != 3 {
		t.Errorf("%d cores, want 3", len(r.PerCore))
	}
}
