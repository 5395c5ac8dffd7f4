package core

import "testing"

// The fuzz targets drive the two space-filling-curve bijections with
// arbitrary extents and coordinates: Index followed by Coords must
// return to the same cell, and any in-range buffer offset that decodes
// to a live cell must encode back to the same offset. Non-power-of-two
// extents are the interesting corpus — the curves pad to power-of-two
// bounding boxes, and the padding boundaries are where an inverse goes
// wrong first.

// fuzzDim folds an arbitrary fuzzed int into a usable extent in
// [1, 64]; small bounds keep Len() (and the Hilbert table walk) cheap.
func fuzzDim(v int) int {
	return 1 + int(uint(v)%64)
}

// fuzzCoord folds v into [0, n).
func fuzzCoord(v, n int) int {
	return int(uint(v) % uint(n))
}

func fuzzLayoutRoundTrip(f *testing.F, mk func(nx, ny, nz int) Inverse) {
	// Seeded corpus: cubes, flat slabs, pencils, and deliberately
	// non-power-of-two extents on every axis.
	seeds := [][6]int{
		{8, 8, 8, 0, 0, 0},
		{5, 7, 9, 4, 6, 8},
		{1, 1, 1, 0, 0, 0},
		{13, 6, 21, 12, 5, 20},
		{33, 17, 2, 32, 16, 1},
		{64, 3, 50, 63, 2, 49},
		{10, 10, 10, 9, 0, 5},
	}
	for _, s := range seeds {
		f.Add(s[0], s[1], s[2], s[3], s[4], s[5])
	}
	f.Fuzz(func(t *testing.T, nxRaw, nyRaw, nzRaw, iRaw, jRaw, kRaw int) {
		nx, ny, nz := fuzzDim(nxRaw), fuzzDim(nyRaw), fuzzDim(nzRaw)
		checkLayoutRoundTrip(t, mk(nx, ny, nz), nx, ny, nz, iRaw, jRaw, kRaw)
	})
}

func checkLayoutRoundTrip(t *testing.T, l Inverse, nx, ny, nz, iRaw, jRaw, kRaw int) {
	t.Helper()
	i, j, k := fuzzCoord(iRaw, nx), fuzzCoord(jRaw, ny), fuzzCoord(kRaw, nz)

	// Forward: every cell maps into the buffer and back to itself.
	idx := l.Index(i, j, k)
	if idx < 0 || idx >= l.Len() {
		t.Fatalf("%s %dx%dx%d: Index(%d,%d,%d) = %d outside [0,%d)",
			l.Name(), nx, ny, nz, i, j, k, idx, l.Len())
	}
	gi, gj, gk, ok := l.Coords(idx)
	if !ok || gi != i || gj != j || gk != k {
		t.Fatalf("%s %dx%dx%d: Coords(Index(%d,%d,%d)) = (%d,%d,%d,%v)",
			l.Name(), nx, ny, nz, i, j, k, gi, gj, gk, ok)
	}

	// Backward: a live offset (derived from the same fuzz input so
	// the whole buffer gets explored, padding included) must encode
	// back to itself.
	raw := fuzzCoord(iRaw^jRaw^kRaw, l.Len())
	ri, rj, rk, ok := l.Coords(raw)
	if !ok {
		return // padding offset: no cell lives there
	}
	if ri < 0 || ri >= nx || rj < 0 || rj >= ny || rk < 0 || rk >= nz {
		t.Fatalf("%s %dx%dx%d: Coords(%d) = (%d,%d,%d) out of bounds",
			l.Name(), nx, ny, nz, raw, ri, rj, rk)
	}
	if back := l.Index(ri, rj, rk); back != raw {
		t.Fatalf("%s %dx%dx%d: Index(Coords(%d)) = %d",
			l.Name(), nx, ny, nz, raw, back)
	}
}

func FuzzZOrderRoundTrip(f *testing.F) {
	fuzzLayoutRoundTrip(f, func(nx, ny, nz int) Inverse { return NewZOrder(nx, ny, nz) })
}

func FuzzHilbertRoundTrip(f *testing.F) {
	fuzzLayoutRoundTrip(f, func(nx, ny, nz int) Inverse { return NewHilbert(nx, ny, nz) })
}

// fuzzSpec derives a deterministic interleave string for the extents
// from an arbitrary seed: the round-robin spec shuffled by a xorshift
// Fisher–Yates, optionally padded with surplus occurrences. Every
// permutation of a valid multiset is a valid spec, so the shuffle
// explores the whole BitLayout search space the autotuner draws from.
func fuzzSpec(nx, ny, nz int, seed uint64) string {
	spec := []byte(RoundRobinSpec(nx, ny, nz))
	rng := seed | 1 // xorshift state must be nonzero
	next := func() uint64 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return rng
	}
	// Occasionally append surplus occurrences (legal, inert) so the
	// padding-handling paths get fuzzed too, within the 63-bit budget.
	for len(spec) < 63 && next()%8 == 0 {
		spec = append(spec, "xyz"[next()%3])
	}
	for i := len(spec) - 1; i > 0; i-- {
		j := int(next() % uint64(i+1))
		spec[i], spec[j] = spec[j], spec[i]
	}
	return string(spec)
}

func FuzzBitLayoutRoundTrip(f *testing.F) {
	seeds := [][7]int{
		{8, 8, 8, 0, 0, 0, 0},
		{5, 7, 9, 4, 6, 8, 12345},
		{1, 1, 1, 0, 0, 0, 7},
		{13, 6, 21, 12, 5, 20, 99},
		{33, 17, 2, 32, 16, 1, 3},
		{64, 3, 50, 63, 2, 49, 1 << 40},
	}
	for _, s := range seeds {
		f.Add(s[0], s[1], s[2], s[3], s[4], s[5], s[6])
	}
	f.Fuzz(func(t *testing.T, nxRaw, nyRaw, nzRaw, iRaw, jRaw, kRaw, specSeed int) {
		nx, ny, nz := fuzzDim(nxRaw), fuzzDim(nyRaw), fuzzDim(nzRaw)
		spec := fuzzSpec(nx, ny, nz, uint64(specSeed))
		l, err := NewBitLayout(nx, ny, nz, spec)
		if err != nil {
			t.Fatalf("NewBitLayout(%d,%d,%d,%q): %v", nx, ny, nz, spec, err)
		}
		checkLayoutRoundTrip(t, l, nx, ny, nz, iRaw, jRaw, kRaw)

		// The +x step, for the shuffled spec and for Z order (the
		// round-robin spec) alike, lands where Index puts the neighbor.
		i, j, k := fuzzCoord(iRaw, nx), fuzzCoord(jRaw, ny), fuzzCoord(kRaw, nz)
		if i+1 == nx {
			return
		}
		for _, b := range []*BitLayout{l, &NewZOrder(nx, ny, nz).BitLayout} {
			if got, want := b.StepX(b.Index(i, j, k)), b.Index(i+1, j, k); got != want {
				t.Fatalf("%s %dx%dx%d: StepX at (%d,%d,%d) = %d, want %d", b.Name(), nx, ny, nz, i, j, k, got, want)
			}
		}
	})
}
