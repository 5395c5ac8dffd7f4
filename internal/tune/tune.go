// Package tune implements empirical parameter search ("auto-tuning") for
// the layouts' blocking factors, in the spirit of the auto-tuning work
// the paper cites as prior art for cache blocking (Whaley/ATLAS 2001,
// Datta 2008, §II-A): instead of modeling the memory hierarchy, measure
// candidate parameters and keep the best.
//
// Here the measurement is the deterministic cache simulator, so tuning
// results are reproducible and hardware-independent: TileSize finds the
// best Tiled layout tile edge and BrickSize the best ZTiled brick edge
// for a given kernel configuration and simulated platform.
package tune

import (
	"fmt"
	"math"
	"strings"

	"sfcmem/internal/cache"
	"sfcmem/internal/core"
	"sfcmem/internal/filter"
	"sfcmem/internal/grid"
	"sfcmem/internal/volume"
)

// Result records one candidate's evaluation.
type Result struct {
	Param int
	Score float64 // lower is better
}

// Rejection records a candidate excluded before evaluation and why. When
// every candidate is rejected, the sweep error enumerates these instead
// of reporting a bare "no candidate parameters" — so a caller who passed
// {64} on a 32³ volume learns the candidate exceeded the volume edge,
// not merely that nothing was left.
type Rejection struct {
	Param  int
	Reason string
}

func (r Rejection) String() string { return fmt.Sprintf("%d (%s)", r.Param, r.Reason) }

// rejectedErr formats the all-candidates-rejected failure.
func rejectedErr(what string, rejected []Rejection) error {
	msgs := make([]string, len(rejected))
	for i, r := range rejected {
		msgs[i] = r.String()
	}
	return fmt.Errorf("tune: every %s candidate was rejected: %s", what, strings.Join(msgs, ", "))
}

// Sweep evaluates eval for every candidate and returns the parameter
// with the lowest score plus all results in input order. Ties break
// toward the smaller parameter — a smaller tile or brick edge wastes
// less padding and leaves more scheduling freedom, so when the
// simulator can't tell candidates apart the simpler one wins
// regardless of input order. It fails if params is empty or any
// evaluation fails.
func Sweep(params []int, eval func(p int) (float64, error)) (best int, results []Result, err error) {
	if len(params) == 0 {
		return 0, nil, fmt.Errorf("tune: no candidate parameters")
	}
	bestScore := math.Inf(1)
	for i, p := range params {
		score, err := eval(p)
		if err != nil {
			return 0, nil, fmt.Errorf("tune: candidate %d: %w", p, err)
		}
		results = append(results, Result{Param: p, Score: score})
		if i == 0 || score < bestScore || (score == bestScore && p < best) {
			bestScore, best = score, p
		}
	}
	return best, results, nil
}

// FilterConfig fixes the kernel configuration a layout parameter is
// tuned for.
type FilterConfig struct {
	Size     int // volume edge
	Seed     uint64
	Options  filter.Options // Workers also sets the simulated thread count
	Platform cache.Platform
}

// phantom generates the sweep's MRI phantom once, in array order; each
// candidate relays it out, so every candidate filters the same samples.
func (cfg FilterConfig) phantom() *grid.Grid[float32] {
	return volume.MRIPhantom(core.NewArrayOrder(cfg.Size, cfg.Size, cfg.Size), cfg.Seed, 0.05)
}

// simFilter replays the bilateral filter over data relaid out in
// layout through the platform and returns the paper metric. The replay
// is the paper's per-tap model (Options.NoFastPath), the stream Fig
// 8b's tile and brick scores are measured on.
func simFilter(cfg FilterConfig, data *grid.Grid[float32], layout core.Layout) (uint64, error) {
	threads := cfg.Options.Workers
	if threads == 0 {
		threads = 1
	}
	src, err := data.Relayout(layout)
	if err != nil {
		return 0, err
	}
	nx, ny, nz := layout.Dims()
	dstLayout := core.New(core.ArrayKind, nx, ny, nz) // dst layout held fixed across candidates
	dst := grid.New(dstLayout)
	sys := cache.NewSystem(cfg.Platform, threads)
	srcs := make([]grid.Reader, threads)
	dsts := make([]grid.Writer, threads)
	for w := 0; w < threads; w++ {
		srcs[w] = grid.NewTraced(src, 0, sys.Front(w))
		dsts[w] = grid.NewTraced(dst, 1<<40, sys.Front(w))
	}
	o := cfg.Options
	o.NoFastPath = true
	if err := filter.ApplyViews(srcs, dsts, o); err != nil {
		return 0, err
	}
	return sys.Report().PaperMetric(), nil
}

// TileSize tunes the Tiled layout's tile edge over the candidates
// (default {2,4,8,16,32} when nil), scoring each by the simulated paper
// counter for the configured filter run. Unusable candidates (non-
// positive, or larger than the volume edge) are skipped; if that skips
// all of them, the error names each rejected candidate and the reason.
func TileSize(cfg FilterConfig, candidates []int) (best int, results []Result, err error) {
	if candidates == nil {
		candidates = []int{2, 4, 8, 16, 32}
	}
	var valid []int
	var rejected []Rejection
	for _, c := range candidates {
		switch {
		case c < 1:
			rejected = append(rejected, Rejection{c, "not positive"})
		case c > cfg.Size:
			rejected = append(rejected, Rejection{c, fmt.Sprintf("exceeds volume edge %d", cfg.Size)})
		default:
			valid = append(valid, c)
		}
	}
	if len(valid) == 0 && len(rejected) > 0 {
		return 0, nil, rejectedErr("tile-edge", rejected)
	}
	data := cfg.phantom()
	return Sweep(valid, func(tile int) (float64, error) {
		m, err := simFilter(cfg, data, core.NewTiled(cfg.Size, cfg.Size, cfg.Size, tile))
		return float64(m), err
	})
}

// BrickSize tunes the ZTiled layout's brick edge over power-of-two
// candidates (default {4,8,16,32} when nil). Rejection reporting works
// like TileSize, with the additional power-of-two requirement.
func BrickSize(cfg FilterConfig, candidates []int) (best int, results []Result, err error) {
	if candidates == nil {
		candidates = []int{4, 8, 16, 32}
	}
	var valid []int
	var rejected []Rejection
	for _, c := range candidates {
		switch {
		case c < 1:
			rejected = append(rejected, Rejection{c, "not positive"})
		case c > cfg.Size:
			rejected = append(rejected, Rejection{c, fmt.Sprintf("exceeds volume edge %d", cfg.Size)})
		case c&(c-1) != 0:
			rejected = append(rejected, Rejection{c, "not a power of two"})
		default:
			valid = append(valid, c)
		}
	}
	if len(valid) == 0 && len(rejected) > 0 {
		return 0, nil, rejectedErr("brick-edge", rejected)
	}
	data := cfg.phantom()
	return Sweep(valid, func(brick int) (float64, error) {
		m, err := simFilter(cfg, data, core.NewZTiled(cfg.Size, cfg.Size, cfg.Size, brick))
		return float64(m), err
	})
}
