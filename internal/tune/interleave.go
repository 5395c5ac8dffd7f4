package tune

import (
	"context"
	"fmt"
	"math/rand/v2"
	"sort"
	"time"

	"sfcmem/internal/cache"
	"sfcmem/internal/core"
	"sfcmem/internal/filter"
	"sfcmem/internal/grid"
	"sfcmem/internal/render"
	"sfcmem/internal/volume"
)

// This file extends the package's parameter sweeps to a search over
// generalized-Morton interleave orderings (core.BitLayout): instead of
// picking one scalar (a tile or brick edge), the tuner permutes the
// letters of an interleave spec — a string like "xyzxyzxyz" naming
// which axis contributes each index bit — and keeps the ordering whose
// simulated L1 misses are lowest for a given volume shape, kernel and
// element type. The space of orderings is a multiset permutation
// (e.g. 3× x, 3× y, 3× z for a 8×8×8 volume ⇒ 1680 distinct specs;
// 32³ ⇒ 756756), too large to sweep exhaustively, so the search is a
// small seeded evolutionary loop: structured seed candidates (Z order,
// row major, brick hybrids) plus random shuffles, then a few
// generations of elite selection, multiset-preserving crossover and
// swap mutation. All randomness comes from one PCG stream seeded by
// the config, candidates are evaluated sequentially against the
// deterministic cache simulator, and ties break toward the
// lexicographically smaller spec — so a given config always returns
// the same layout, which is what lets CI pin the result.

// Kernel names the workload an interleave is tuned for.
type Kernel string

// Tunable kernels: the paper's two applications.
const (
	// KernelBilateral is the 3D bilateral filter (structured stencil).
	KernelBilateral Kernel = "bilateral"
	// KernelVolrend is the raycasting volume renderer (semi-structured).
	KernelVolrend Kernel = "volrend"
)

// ParseKernel maps a kernel name to its Kernel.
func ParseKernel(s string) (Kernel, error) {
	switch Kernel(s) {
	case KernelBilateral, KernelVolrend:
		return Kernel(s), nil
	}
	return "", fmt.Errorf("tune: unknown kernel %q (want bilateral or volrend)", s)
}

// InterleaveConfig fixes what an interleave ordering is tuned for and
// how hard to search.
type InterleaveConfig struct {
	Nx, Ny, Nz int    // volume extents
	Seed       uint64 // dataset seed and the search's PCG seed
	Kernel     Kernel // workload to replay; empty defaults to bilateral
	Dtype      grid.Dtype
	// Options configures the bilateral kernel; Options.Workers also
	// sets the simulated thread count for both kernels. The replay
	// scores the stream production issues, the row-cached flat path's;
	// Options.NoFastPath scores the paper's per-tap model instead.
	Options filter.Options
	// Render configures the volrend kernel (ignored for bilateral);
	// its Workers field is overridden by Options.Workers.
	Render render.Options
	// ImgW, ImgH size the volrend framebuffer; zero defaults to 64×64.
	ImgW, ImgH int
	Platform   cache.Platform

	// Population is the candidate pool per generation (default 10),
	// Generations the number of evolutionary rounds after scoring the
	// seeds (default 6), Elite how many top candidates survive each
	// round unchanged (default 3).
	Population  int
	Generations int
	Elite       int
}

func (cfg InterleaveConfig) withDefaults() InterleaveConfig {
	if cfg.Kernel == "" {
		cfg.Kernel = KernelBilateral
	}
	if cfg.Options.Workers == 0 {
		cfg.Options.Workers = 1
	}
	if cfg.ImgW == 0 {
		cfg.ImgW = 64
	}
	if cfg.ImgH == 0 {
		cfg.ImgH = 64
	}
	if cfg.Population == 0 {
		cfg.Population = 10
	}
	if cfg.Generations == 0 {
		cfg.Generations = 6
	}
	if cfg.Elite == 0 {
		cfg.Elite = 3
	}
	if cfg.Elite > cfg.Population {
		cfg.Elite = cfg.Population
	}
	return cfg
}

// SpecScore records one evaluated interleave candidate.
type SpecScore struct {
	Spec  string
	Score uint64 // simulated L1 misses; lower is better
}

// InterleaveResult is the outcome of an interleave search.
type InterleaveResult struct {
	// Spec is the winning interleave ordering ("zyxzyx…"), Layout the
	// full layout spec ("bit:zyxzyx…") as stored in volume manifests.
	Spec   string
	Layout string
	// Score is the winner's simulated L1 misses; ZOrder is the plain
	// padded Z-order layout's misses under the same replay, the
	// baseline the tuner must not regress (CI's tune-smoke gate).
	Score  uint64
	ZOrder uint64
	// Evals lists every distinct candidate evaluated, in first-
	// evaluation order (seeds first). len(Evals) is the search cost in
	// simulator replays.
	Evals []SpecScore
}

// Interleave searches generalized-Morton interleave orderings for the
// configured volume × kernel × dtype and returns the best found. The
// search is deterministic: a fixed config (including Seed) always
// returns the same result. Each candidate's replay runs under ctx, and
// the search checks ctx before every candidate, so a cancelled search
// returns ctx.Err() within one replay.
func Interleave(ctx context.Context, cfg InterleaveConfig) (*InterleaveResult, error) {
	cfg = cfg.withDefaults()
	if cfg.Nx < 1 || cfg.Ny < 1 || cfg.Nz < 1 {
		return nil, fmt.Errorf("tune: extents %d×%d×%d must be positive", cfg.Nx, cfg.Ny, cfg.Nz)
	}
	base := core.RoundRobinSpec(cfg.Nx, cfg.Ny, cfg.Nz)
	replay := newKernelRun(cfg).sim

	var evals []SpecScore
	memo := make(map[string]uint64, cfg.Population*(cfg.Generations+1))
	evalSpec := func(spec string) (uint64, error) {
		if s, ok := memo[spec]; ok {
			return s, nil
		}
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		l, err := core.NewBitLayout(cfg.Nx, cfg.Ny, cfg.Nz, spec)
		if err != nil {
			return 0, fmt.Errorf("tune: candidate %q: %w", spec, err)
		}
		s, err := replay(ctx, l)
		if err != nil {
			return 0, fmt.Errorf("tune: candidate %q: %w", spec, err)
		}
		memo[spec] = s
		evals = append(evals, SpecScore{Spec: spec, Score: s})
		return s, nil
	}

	// Z order is the BitLayout "xyz"×b. On cubes that is base, the
	// first seed, so its replay is the seed's memoized evaluation.
	var zScore uint64
	var err error
	if z := core.NewZOrder(cfg.Nx, cfg.Ny, cfg.Nz); z.Spec() == base {
		zScore, err = evalSpec(base)
	} else if zScore, err = replay(ctx, z); err != nil {
		err = fmt.Errorf("tune: z-order baseline: %w", err)
	}
	if err != nil {
		return nil, err
	}

	finish := func(spec string) (*InterleaveResult, error) {
		score, ok := memo[spec]
		if !ok {
			var err error
			if score, err = evalSpec(spec); err != nil {
				return nil, err
			}
		}
		return &InterleaveResult{
			Spec:   spec,
			Layout: core.BitSpecPrefix + spec,
			Score:  score,
			ZOrder: zScore,
			Evals:  evals,
		}, nil
	}

	// Degenerate search space: one distinct letter (or a single bit)
	// permutes to itself.
	if distinctLetters(base) < 2 {
		return finish(base)
	}

	rng := rand.New(rand.NewPCG(cfg.Seed, 0x5fc1a7e46))
	pop := seedSpecs(base, cfg.Population, rng)
	for gen := 0; ; gen++ {
		scored := make([]SpecScore, 0, len(pop))
		for _, spec := range pop {
			s, err := evalSpec(spec)
			if err != nil {
				return nil, err
			}
			scored = append(scored, SpecScore{Spec: spec, Score: s})
		}
		sort.Slice(scored, func(a, b int) bool {
			if scored[a].Score != scored[b].Score {
				return scored[a].Score < scored[b].Score
			}
			return scored[a].Spec < scored[b].Spec
		})
		if gen == cfg.Generations {
			break
		}
		elite := scored
		if len(elite) > cfg.Elite {
			elite = elite[:cfg.Elite]
		}
		next := make([]string, 0, cfg.Population)
		seen := make(map[string]bool, cfg.Population)
		for _, e := range elite {
			next = append(next, e.Spec)
			seen[e.Spec] = true
		}
		// Breed until the pool is full; the shuffle fallback keeps the
		// loop bounded when crossover+mutation collapse to duplicates.
		for tries := 0; len(next) < cfg.Population && tries < cfg.Population*20; tries++ {
			a := elite[rng.IntN(len(elite))].Spec
			b := elite[rng.IntN(len(elite))].Spec
			child := crossoverSpecs(a, b, rng)
			if rng.IntN(2) == 0 {
				child = swapMutate(child, rng)
			}
			if !seen[child] {
				next = append(next, child)
				seen[child] = true
			}
		}
		for len(next) < cfg.Population {
			s := shuffleSpec(base, rng)
			if !seen[s] {
				next = append(next, s)
				seen[s] = true
			}
		}
		pop = next
	}

	// Pick the best ever evaluated (not just the last generation);
	// ties break toward the lexicographically smaller spec.
	best := evals[0]
	for _, e := range evals[1:] {
		if e.Score < best.Score || (e.Score == best.Score && e.Spec < best.Spec) {
			best = e
		}
	}
	return finish(best.Spec)
}

// kernelRun runs the configured kernel over a candidate layout, both
// ways a search measures one: sim replays it through the cache
// simulator and returns the total simulated L1 misses, wall times it
// on real memory. Both relayout one proxy dataset, generated once in
// array order: the dataset depends only on shape, seed and dtype —
// never on the layout — so candidates are compared on access order
// alone.
type kernelRun struct {
	sim  func(ctx context.Context, l core.Layout) (uint64, error)
	wall func(l core.Layout) (time.Duration, error)
}

// newKernelRun builds cfg's kernelRun at cfg's dtype.
func newKernelRun(cfg InterleaveConfig) kernelRun {
	switch cfg.Dtype {
	case grid.U8:
		return newKernelRunOf[uint8](cfg)
	case grid.U16:
		return newKernelRunOf[uint16](cfg)
	case grid.F64:
		return newKernelRunOf[float64](cfg)
	default:
		return newKernelRunOf[float32](cfg)
	}
}

// proxyOf generates cfg's proxy dataset in array order: the combustion
// plume for the renderer, the MRI phantom for the filter.
func proxyOf[T grid.Scalar](cfg InterleaveConfig) *grid.Grid[T] {
	a := core.NewArrayOrder(cfg.Nx, cfg.Ny, cfg.Nz)
	if cfg.Kernel == KernelVolrend {
		return volume.CombustionPlumeOf[T](a, cfg.Seed)
	}
	return volume.MRIPhantomOf[T](a, cfg.Seed, 0.05)
}

func newKernelRunOf[T grid.Scalar](cfg InterleaveConfig) kernelRun {
	data := proxyOf[T](cfg)
	var dst *grid.Grid[T] // the filter's, in array order for every candidate
	if cfg.Kernel == KernelBilateral {
		dst = grid.NewOf[T](core.NewArrayOrder(cfg.Nx, cfg.Ny, cfg.Nz))
	}
	cam := render.Orbit(1, 8, cfg.Nx, cfg.Ny, cfg.Nz, cfg.ImgW, cfg.ImgH)
	ro := cfg.Render
	ro.Workers = cfg.Options.Workers
	threads := cfg.Options.Workers
	sim := func(ctx context.Context, l core.Layout) (uint64, error) {
		src, err := data.Relayout(l)
		if err != nil {
			return 0, err
		}
		sys := cache.NewSystem(cfg.Platform, threads)
		switch cfg.Kernel {
		case KernelVolrend:
			views := make([]grid.ReaderOf[T], threads)
			for w := range views {
				views[w] = grid.NewTraced(src, 0, sys.Front(w))
			}
			if _, err := render.RenderViewsCtxOf[T](ctx, views, cam, render.DefaultTransferFunc(), ro); err != nil {
				return 0, err
			}
		case KernelBilateral:
			srcs := make([]grid.ReaderOf[T], threads)
			dsts := make([]grid.WriterOf[T], threads)
			for w := range srcs {
				srcs[w] = grid.NewTraced(src, 0, sys.Front(w))
				dsts[w] = grid.NewTraced(dst, 1<<40, sys.Front(w))
			}
			if err := filter.ApplyViewsCtxOf[T](ctx, srcs, dsts, cfg.Options); err != nil {
				return 0, err
			}
		default:
			return 0, fmt.Errorf("tune: unknown kernel %q", cfg.Kernel)
		}
		return l1Misses(sys.Report()), nil
	}
	wall := func(l core.Layout) (time.Duration, error) {
		src, err := data.Relayout(l)
		if err != nil {
			return 0, err
		}
		start := time.Now()
		switch cfg.Kernel {
		case KernelVolrend:
			_, err = render.RenderCtxOf[T](context.Background(), src, cam, render.DefaultTransferFunc(), ro)
		case KernelBilateral:
			err = filter.ApplyCtxOf[T](context.Background(), src, dst, cfg.Options)
		default:
			return 0, fmt.Errorf("tune: unknown kernel %q", cfg.Kernel)
		}
		return time.Since(start), err
	}
	return kernelRun{sim: sim, wall: wall}
}

// l1Misses sums level-1 misses across all simulated threads. The
// interleave tuner scores L1 rather than PaperMetric's last private
// level: interleave ordering mostly reshuffles spatial locality at
// line granularity, which L1 sees first and most sharply.
func l1Misses(r cache.Report) uint64 {
	if len(r.PrivateTotal) == 0 {
		return 0
	}
	return r.PrivateTotal[0].Misses
}

// distinctLetters counts distinct axis letters in a spec.
func distinctLetters(spec string) int {
	var seen [3]bool
	n := 0
	for i := 0; i < len(spec); i++ {
		k := int(spec[i] - 'x')
		if k >= 0 && k < 3 && !seen[k] {
			seen[k] = true
			n++
		}
	}
	return n
}

// letterCounts returns how many of each axis letter a spec holds.
func letterCounts(spec string) (cx, cy, cz int) {
	for i := 0; i < len(spec); i++ {
		switch spec[i] {
		case 'x':
			cx++
		case 'y':
			cy++
		case 'z':
			cz++
		}
	}
	return
}

// seedSpecs builds the initial population from base (the round-robin
// spec, ≡ compact Z order): structured seeds first — row-major and
// z-major extremes, Morton-brick hybrids — then random shuffles up to
// n candidates. All share base's letter multiset, so every candidate
// addresses the same extents.
func seedSpecs(base string, n int, rng *rand.Rand) []string {
	cx, cy, cz := letterCounts(base)
	rep := func(c byte, k int) string {
		b := make([]byte, k)
		for i := range b {
			b[i] = c
		}
		return string(b)
	}
	structured := []string{
		base, // round-robin interleave (compact Z order)
		rep('x', cx) + rep('y', cy) + rep('z', cz), // row major (x fastest)
		rep('z', cz) + rep('y', cy) + rep('x', cx), // z major (z fastest)
	}
	// Morton-brick hybrids: interleave the low b bits of each axis
	// (a 2^b-edge Z-ordered brick), then lay bricks out row-major.
	for _, b := range []int{1, 2, 3} {
		if cx <= b && cy <= b && cz <= b {
			break
		}
		spec := ""
		for i := 0; i < b; i++ {
			if i < cx {
				spec += "x"
			}
			if i < cy {
				spec += "y"
			}
			if i < cz {
				spec += "z"
			}
		}
		spec += rep('x', max(0, cx-b)) + rep('y', max(0, cy-b)) + rep('z', max(0, cz-b))
		structured = append(structured, spec)
	}
	pop := make([]string, 0, n)
	seen := make(map[string]bool, n)
	for _, s := range structured {
		if len(pop) == n {
			break
		}
		if !seen[s] {
			pop = append(pop, s)
			seen[s] = true
		}
	}
	for tries := 0; len(pop) < n && tries < n*20; tries++ {
		s := shuffleSpec(base, rng)
		if !seen[s] {
			pop = append(pop, s)
			seen[s] = true
		}
	}
	return pop
}

// shuffleSpec returns a Fisher-Yates shuffle of spec's letters.
func shuffleSpec(spec string, rng *rand.Rand) string {
	b := []byte(spec)
	for i := len(b) - 1; i > 0; i-- {
		j := rng.IntN(i + 1)
		b[i], b[j] = b[j], b[i]
	}
	return string(b)
}

// swapMutate swaps two positions holding different letters (a no-op
// swap would waste the mutation). Gives up after a few draws on
// near-uniform specs.
func swapMutate(spec string, rng *rand.Rand) string {
	b := []byte(spec)
	for tries := 0; tries < 8; tries++ {
		i, j := rng.IntN(len(b)), rng.IntN(len(b))
		if b[i] != b[j] {
			b[i], b[j] = b[j], b[i]
			break
		}
	}
	return string(b)
}

// crossoverSpecs keeps a random-length prefix of parent a and fills
// the remaining letter budget in parent b's order, preserving the
// multiset so the child still addresses the same extents.
func crossoverSpecs(a, b string, rng *rand.Rand) string {
	cut := rng.IntN(len(a) + 1)
	var need [3]int
	for i := 0; i < len(a); i++ {
		need[a[i]-'x']++
	}
	child := make([]byte, 0, len(a))
	child = append(child, a[:cut]...)
	for _, c := range child {
		need[c-'x']--
	}
	for i := 0; i < len(b) && len(child) < len(a); i++ {
		if need[b[i]-'x'] > 0 {
			child = append(child, b[i])
			need[b[i]-'x']--
		}
	}
	return string(child)
}

// BenchResult records one microbenchmark timing.
type BenchResult struct {
	Spec    string
	Elapsed time.Duration // min over reps
}

// Microbench is the optional second tuning stage: it re-times the
// given specs (typically the simulator's top few) with the real kernel
// on real memory — no tracing, fast paths enabled — and returns the
// spec with the lowest min-of-reps wall time. Wall time is machine-
// and load-dependent, so this stage is excluded from the determinism
// guarantee and off by default everywhere; the simulator stage alone
// decides when reproducibility matters (CI).
func Microbench(cfg InterleaveConfig, specs []string, reps int) (string, []BenchResult, error) {
	cfg = cfg.withDefaults()
	if len(specs) == 0 {
		return "", nil, fmt.Errorf("tune: no specs to microbench")
	}
	if reps < 1 {
		reps = 3
	}
	run := newKernelRun(cfg).wall
	results := make([]BenchResult, 0, len(specs))
	best, bestTime := "", time.Duration(0)
	for _, spec := range specs {
		l, err := core.NewBitLayout(cfg.Nx, cfg.Ny, cfg.Nz, spec)
		if err != nil {
			return "", nil, fmt.Errorf("tune: microbench %q: %w", spec, err)
		}
		min := time.Duration(0)
		for r := 0; r < reps; r++ {
			d, err := run(l)
			if err != nil {
				return "", nil, fmt.Errorf("tune: microbench %q: %w", spec, err)
			}
			if min == 0 || d < min {
				min = d
			}
		}
		results = append(results, BenchResult{Spec: spec, Elapsed: min})
		if best == "" || min < bestTime {
			best, bestTime = spec, min
		}
	}
	return best, results, nil
}
