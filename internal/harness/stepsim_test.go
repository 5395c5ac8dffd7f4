package harness

import (
	"testing"

	"sfcmem/internal/core"
	"sfcmem/internal/parallel"
)

// TestStepperTableTraffic pins the structure of the simulated
// index-traffic model and, run with -v, prints the counter deltas
// recorded in DESIGN.md §13 (repro command in EXPERIMENTS.md).
func TestStepperTableTraffic(t *testing.T) {
	cfg := QuickConfig()
	in := NewBilatInput(32, cfg.Seed)
	row := BilatRow{Label: "r5 px xyz", Radius: 5, Axis: parallel.AxisX, Order: OrderXYZ}
	for _, kind := range []core.Kind{core.ZKind, core.ZTiledKind} {
		st, err := SimBilatStepTraffic(in, kind, row, 1, cfg.ivyPlatform())
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		sl1, tl1 := st.Step.PrivateTotal[0], st.Table.PrivateTotal[0]
		// The table stream is the step stream plus table loads: strictly
		// more L1 accesses, and identical data traffic underneath means
		// misses can only stay equal or grow.
		if tl1.Accesses <= sl1.Accesses {
			t.Errorf("%s: table path L1 accesses %d not above step path %d", kind, tl1.Accesses, sl1.Accesses)
		}
		if tl1.Misses < sl1.Misses {
			t.Errorf("%s: table path L1 misses %d below step path %d", kind, tl1.Misses, sl1.Misses)
		}
		if st.Step.MemReads != st.Table.MemReads && st.Table.MemReads < st.Step.MemReads {
			t.Errorf("%s: table path memory reads %d below step path %d", kind, st.Table.MemReads, st.Step.MemReads)
		}
		t.Logf("%s r5 px xyz 32³ 1 thread (IvyBridge-like, scaled):", kind)
		t.Logf("  L1 accesses  step %12d  table %12d  (+%.1f%%)",
			sl1.Accesses, tl1.Accesses, 100*float64(tl1.Accesses-sl1.Accesses)/float64(sl1.Accesses))
		t.Logf("  L1 misses    step %12d  table %12d", sl1.Misses, tl1.Misses)
		t.Logf("  L3 accesses  step %12d  table %12d", st.Step.Shared.Accesses, st.Table.Shared.Accesses)
		t.Logf("  mem reads    step %12d  table %12d", st.Step.MemReads, st.Table.MemReads)
	}
}
