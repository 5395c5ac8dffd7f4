package cache

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"sort"
	"testing"
)

// The differential tests replay one seeded access stream through the
// production simulator and through the frozen reference model of
// refsim_test.go and require identical reports. They cover the set
// index for power-of-two and non-power-of-two set counts, every
// replacement policy, next-line prefetch, the TLB, and cores shared by
// several fronts (driven from one goroutine, so the interleaving is
// fixed).

// randomStream feeds n accesses drawn from rng to access(tid, addr,
// write): bursts of strided sweeps, random probes inside a window and
// re-touches of a small hot set, over a source region at 0 and a
// destination region at 1<<40 (the traced kernels' two bases).
func randomStream(rng *rand.Rand, threads, n int, access func(tid int, addr uint64, write bool)) {
	strides := []uint64{4, 8, 64, 192, 4096, 16384}
	windows := []uint64{4 << 10, 64 << 10, 1 << 20, 64 << 20}
	hot := make([]uint64, 16)
	for i := range hot {
		hot[i] = rng.Uint64N(256 << 10)
	}
	for done := 0; done < n; {
		burst := min(1+rng.IntN(256), n-done)
		tid := rng.IntN(threads)
		var base uint64
		if rng.IntN(3) == 0 {
			base = 1 << 40
		}
		writeP := []int{0, 0, 30, 100}[rng.IntN(4)]
		mode := rng.IntN(3)
		stride := strides[rng.IntN(len(strides))]
		start := rng.Uint64N(4 << 20)
		window := windows[rng.IntN(len(windows))]
		for i := 0; i < burst; i++ {
			var off uint64
			switch mode {
			case 0:
				off = start + uint64(i)*stride
			case 1:
				off = rng.Uint64N(window)
			default:
				off = hot[rng.IntN(len(hot))]
			}
			access(tid, base+off, rng.IntN(100) < writeP)
		}
		done += burst
	}
}

// checkAgainstReference replays the stream seeded by seed through both
// simulators and fails t on any differing counter.
func checkAgainstReference(t *testing.T, p Platform, threads, n int, seed uint64) {
	t.Helper()
	sys, ref := NewSystem(p, threads), newRefSystem(p, threads)
	randomStream(rand.New(rand.NewPCG(seed, 1)), threads, n, func(tid int, addr uint64, write bool) {
		sys.Front(tid).Access(addr, write)
		ref.fronts[tid].Access(addr, write)
	})
	got, want := sys.Report(), ref.report()
	gs, ws := got.Snapshot(), want.Snapshot()
	if !reflect.DeepEqual(gs, ws) {
		var diff []string
		for k, v := range ws {
			if gs[k] != v {
				diff = append(diff, fmt.Sprintf("%s: got %d, want %d", k, gs[k], v))
			}
		}
		for k, v := range gs {
			if _, ok := ws[k]; !ok {
				diff = append(diff, fmt.Sprintf("%s: got %d, not in reference", k, v))
			}
		}
		sort.Strings(diff)
		t.Fatalf("%s, %d threads, seed %d: snapshots differ:\n%v", p.Name, threads, seed, diff)
	}
	if !reflect.DeepEqual(got.PerCore, want.PerCore) {
		t.Fatalf("%s, %d threads, seed %d: per-core counters differ:\n got %v\nwant %v",
			p.Name, threads, seed, got.PerCore, want.PerCore)
	}
}

// withPolicy returns p with every cache level under policy pol.
func withPolicy(p Platform, pol Policy) Platform {
	p.Private = append([]LevelConfig(nil), p.Private...)
	for i := range p.Private {
		p.Private[i].Policy = pol
	}
	p.Shared.Policy = pol
	p.Name = fmt.Sprintf("%s/%s", p.Name, pol)
	return p
}

// TestSimulatorMatchesReferencePresets sweeps the paper's platforms at
// the scales the harness and the tuner use (IvyBridge's L3 has 24576
// sets and 768 at 1/32, neither a power of two) across policy,
// prefetch, TLB and threads per core.
func TestSimulatorMatchesReferencePresets(t *testing.T) {
	presets := []Platform{IvyBridge(), Scaled(IvyBridge(), 32), Scaled(MIC(), 16), Scaled(MIC(), 32)}
	seed := uint64(0)
	for _, base := range presets {
		for _, pol := range []Policy{LRU, FIFO, RandomPolicy} {
			for _, prefetch := range []bool{false, true} {
				for _, tlbOn := range []bool{false, true} {
					for _, coreThreads := range []int{1, 4} {
						p := withPolicy(base, pol)
						p.NextLinePrefetch = prefetch
						if !tlbOn {
							p.TLB = TLBConfig{}
						}
						p.CoreThreads = coreThreads
						p.Name = fmt.Sprintf("%s/pf=%v/tlb=%v/ct=%d", p.Name, prefetch, tlbOn, coreThreads)
						seed++
						// Five threads at four per core: one shared core and
						// one with a single front.
						checkAgainstReference(t, p, 5, 6000, seed)
					}
				}
			}
		}
	}
}

// randomPlatform draws a small hierarchy with arbitrary (often
// non-power-of-two) set counts, mixed policies and optional prefetch,
// TLB and core sharing, plus a thread count.
func randomPlatform(rng *rand.Rand) (Platform, int) {
	setChoices := []int{1, 2, 3, 4, 5, 7, 8, 12, 16, 24}
	wayChoices := []int{1, 2, 3, 4, 8, 20}
	lv := func(name string, scale int) LevelConfig {
		sets := setChoices[rng.IntN(len(setChoices))] * scale
		ways := wayChoices[rng.IntN(len(wayChoices))]
		return LevelConfig{Name: name, SizeBytes: sets * ways * LineBytes, Ways: ways, Policy: Policy(rng.IntN(3))}
	}
	p := Platform{Name: "random"}
	for i := 0; i < 1+rng.IntN(3); i++ {
		p.Private = append(p.Private, lv(fmt.Sprintf("L%d", i+1), 1<<i))
	}
	if rng.IntN(2) == 0 {
		p.Shared = lv("LLC", 16)
	}
	p.NextLinePrefetch = rng.IntN(2) == 0
	if rng.IntN(3) > 0 {
		p.TLB = TLBConfig{Entries: []int{1, 2, 3, 8, 64}[rng.IntN(5)], PageBytes: []int{256, 4096}[rng.IntN(2)]}
	}
	p.CoreThreads = []int{0, 1, 2, 4}[rng.IntN(4)]
	return p, 1 + rng.IntN(5)
}

func TestSimulatorMatchesReferenceRandomGeometry(t *testing.T) {
	for seed := uint64(1); seed <= 200; seed++ {
		p, threads := randomPlatform(rand.New(rand.NewPCG(seed, 2)))
		checkAgainstReference(t, p, threads, 3000, seed)
	}
}

// FuzzSimulatorMatchesReference is the fuzz form of the differential
// test: the seed picks the hierarchy, the thread count and the stream.
func FuzzSimulatorMatchesReference(f *testing.F) {
	for _, s := range []uint64{1, 2, 3, 42} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		p, threads := randomPlatform(rand.New(rand.NewPCG(seed, 2)))
		checkAgainstReference(t, p, threads, 2000, seed)
	})
}
