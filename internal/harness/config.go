// Package harness runs the paper's experiments end to end: it builds the
// synthetic datasets, runs each kernel under both memory layouts across
// the paper's parameter grids, measures wall-clock runtime and simulated
// memory-system counters, and renders the same tables the paper's
// figures show (as scaled relative differences, §IV-B2).
//
// Two measurement channels stand in for the paper's two instruments:
//
//   - runtime: real wall-clock of the kernels on the host, at the
//     paper's goroutine counts;
//   - counters: the internal/cache trace-driven simulator replaying the
//     kernels' exact access streams through IvyBridge-like and MIC-like
//     hierarchies (see DESIGN.md §2 for the scaling argument).
//
// Counter runs use a smaller volume than wall-clock runs because every
// access is simulated; Config carries both sizes.
package harness

import (
	"strconv"
	"time"

	"sfcmem/internal/cache"
	"sfcmem/internal/parallel"
)

// Config holds the experiment dimensions. The zero value is not useful;
// start from DefaultConfig or QuickConfig.
// The JSON tags define the run-manifest schema (see manifest.go); keep
// them stable.
type Config struct {
	// BilatSize is the volume edge for bilateral-filter wall-clock runs.
	BilatSize int `json:"bilat_size"`
	// BilatSimSize is the volume edge for bilateral-filter counter runs.
	BilatSimSize int `json:"bilat_sim_size"`
	// VolSize is the volume edge for renderer wall-clock runs.
	VolSize int `json:"vol_size"`
	// VolSimSize is the volume edge for renderer counter runs.
	VolSimSize int `json:"vol_sim_size"`
	// ImageSize is the square render-image edge for wall-clock runs.
	ImageSize int `json:"image_size"`
	// SimImageSize is the render-image edge for counter runs.
	SimImageSize int `json:"sim_image_size"`
	// Seed drives all synthetic data generation.
	Seed uint64 `json:"seed"`
	// IvyThreads is the "Ivy Bridge" concurrency sweep (paper: 2..24).
	IvyThreads []int `json:"ivy_threads"`
	// MICThreads is the "MIC" concurrency sweep (paper: 59..236).
	MICThreads []int `json:"mic_threads"`
	// CacheScale divides the simulated cache capacities, matching the
	// shrunken trace volumes (DESIGN.md §2). Power of two.
	CacheScale int `json:"cache_scale"`
	// Views is the renderer's orbit viewpoint count (paper: 8).
	Views int `json:"views"`
	// FixedThreads is the concurrency used for Fig 4's absolute series.
	FixedThreads int `json:"fixed_threads"`
	// Reps repeats each wall-clock measurement, keeping the minimum.
	Reps int `json:"reps"`
	// NoFastPath disables the kernels' flat-access fast path for
	// wall-clock runs, forcing the generic interface path — the ablation
	// that isolates what devirtualization contributes to the absolute
	// numbers. Counter runs are unaffected (traced views never take the
	// fast path).
	NoFastPath bool `json:"no_fastpath,omitempty"`
	// Radii maps the paper's row labels to stencil radii.
	Radii []RadiusSpec `json:"radii"`
	// Dtypes is the element-type sweep axis for the dtype extension
	// study (Fig 11): names accepted by grid.ParseDtype. Empty means
	// every supported dtype.
	Dtypes []string `json:"dtypes,omitempty"`
}

// RadiusSpec names one stencil size the way the paper's figures do.
type RadiusSpec struct {
	Label  string `json:"label"`  // "r1", "r3", "r5"
	Radius int    `json:"radius"` // stencil radius; stencil edge is 2*Radius+1
}

// DefaultConfig returns the full-fidelity experiment dimensions used to
// produce EXPERIMENTS.md. It is sized to finish in tens of minutes on a
// laptop-class machine rather than the paper's 512³ production runs;
// every structural parameter (rows, orders, thread counts, viewpoints)
// matches the paper.
func DefaultConfig() Config {
	return Config{
		BilatSize:    96,
		BilatSimSize: 64,
		VolSize:      128,
		VolSimSize:   64,
		ImageSize:    192,
		SimImageSize: 96,
		Seed:         1,
		IvyThreads:   []int{2, 4, 6, 8, 10, 12, 18, 24},
		MICThreads:   []int{59, 118, 177, 236},
		CacheScale:   32,
		Views:        8,
		FixedThreads: 8,
		Reps:         1,
		Radii: []RadiusSpec{
			{Label: "r1", Radius: 1},
			{Label: "r3", Radius: 2},
			{Label: "r5", Radius: 5},
		},
	}
}

// QuickConfig returns a reduced grid for smoke runs and CI: smaller
// volumes, two thread counts per platform, radii up to r3.
func QuickConfig() Config {
	c := DefaultConfig()
	c.BilatSize = 32
	c.BilatSimSize = 32
	c.VolSize = 48
	c.VolSimSize = 32
	c.ImageSize = 64
	c.SimImageSize = 48
	c.IvyThreads = []int{2, 8}
	c.MICThreads = []int{59, 118}
	c.Radii = c.Radii[:2]
	return c
}

// ivyPlatform returns the scaled IvyBridge-like cache hierarchy.
func (c Config) ivyPlatform() cache.Platform {
	return cache.Scaled(cache.IvyBridge(), c.CacheScale)
}

// micPlatform returns the scaled MIC-like cache hierarchy.
func (c Config) micPlatform() cache.Platform {
	return cache.Scaled(cache.MIC(), c.CacheScale)
}

// BilatRow is one row of the paper's bilateral-filter figures: a stencil
// size with the pencil-axis / iteration-order pairing the paper tests.
type BilatRow struct {
	Label  string
	Radius int
	Axis   parallel.Axis
	Order  Order
}

// Order aliases the filter iteration order to avoid importing filter in
// callers that only build row grids.
type Order int

// Iteration orders (match internal/filter).
const (
	OrderXYZ Order = iota
	OrderZYX
)

// BilatRows expands the configured radii into the paper's row grid: for
// each stencil size, the array-friendly configuration (px, xyz) and the
// against-the-grain one (pz, zyx). Labels mirror Fig. 2's row labels.
func (c Config) BilatRows() []BilatRow {
	var rows []BilatRow
	for _, r := range c.Radii {
		rows = append(rows,
			BilatRow{Label: r.Label + " px xyz", Radius: r.Radius, Axis: parallel.AxisX, Order: OrderXYZ},
			BilatRow{Label: r.Label + " pz zyx", Radius: r.Radius, Axis: parallel.AxisZ, Order: OrderZYX},
		)
	}
	return rows
}

// minDuration returns the smaller duration.
func minDuration(a, b time.Duration) time.Duration {
	if b < a {
		return b
	}
	return a
}

func intLabels(xs []int) []string {
	out := make([]string, len(xs))
	for i, x := range xs {
		out[i] = strconv.Itoa(x)
	}
	return out
}
