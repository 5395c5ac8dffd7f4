package harness

import (
	"encoding/csv"
	"encoding/json"
	"io"
	"maps"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"time"

	"sfcmem/internal/cache"
	"sfcmem/internal/metrics"
	"sfcmem/internal/parallel"
	"sfcmem/internal/reuse"
	"sfcmem/internal/timeline"
)

// ManifestSchema identifies the run-manifest JSON shape. Bump the suffix
// on any breaking field change; trajectory tooling (BENCH_*.json) keys on
// it.
const ManifestSchema = "sfcmem/run/v2"

// HostInfo describes the machine a run executed on.
type HostInfo struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
}

// Host captures the current process's host info.
func Host() HostInfo {
	return HostInfo{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
}

// CellRecord is one long-form row: one measured point under one
// layout. Runner rows (kernels "bilat" and "volrend") fill the columns
// their platform measures: wall-clock time and the imbalance factor on
// the host; the paper counter and the full counter snapshot on a cache
// model; the reuse profile on the LRU model. The figures' ds tables
// compare an array-order row with the matching Z-order row.
type CellRecord struct {
	// Kernel is "bilat", "volrend", "stride" (Fig 1's per-layout
	// strides) or "stride-sweep" (Fig 1's worker pool).
	Kernel string `json:"kernel"`
	// Strategy is the work-distribution strategy: "round-robin" or
	// "dynamic". Empty for serial cells.
	Strategy string `json:"strategy,omitempty"`
	// Layout names the memory layout (core.Kind) the row ran under.
	Layout string `json:"layout,omitempty"`
	// Dtype is the volume's element type.
	Dtype string `json:"dtype,omitempty"`
	// Size is the volume edge; Image the render image edge.
	Size  int `json:"size,omitempty"`
	Image int `json:"image,omitempty"`
	// Platform is "host" for a wall-clock row, else the model replayed:
	// "ivy", "mic" or "lru".
	Platform string `json:"platform,omitempty"`
	// Row labels a bilateral row ("r3 pz zyx").
	Row string `json:"row,omitempty"`
	// View is the renderer orbit viewpoint (volrend rows only).
	View int `json:"view,omitempty"`
	// Threads is the worker count.
	Threads int `json:"threads,omitempty"`
	// Runtime is wall-clock seconds, the minimum over repetitions.
	Runtime float64 `json:"runtime_s,omitempty"`
	// Metric is the platform's simulated paper counter.
	Metric uint64 `json:"metric,omitempty"`
	// Cache is the simulated counter snapshot (cache.Report.Snapshot).
	Cache map[string]uint64 `json:"cache,omitempty"`
	// Reuse is the reuse-distance profile of an "lru" row.
	Reuse *reuse.Histogram `json:"reuse,omitempty"`
	// Imbalance is the load-imbalance factor (max/mean worker busy
	// time, 1.0 = balanced) of the last wall-clock repetition; 0 when
	// the run was not instrumented.
	Imbalance float64 `json:"imbalance,omitempty"`
}

// WriteCellsCSV writes rows as long-form CSV, one line per row: the
// identifying columns, the measurements, then one column per simulated
// counter that any row reports. An empty field is a column that does
// not apply to the row (a bilateral row has no image or viewpoint, a
// Fig 1 stride row no size) or that the row did not measure. The reuse
// profile is left to the manifest.
func WriteCellsCSV(w io.Writer, rows []CellRecord) error {
	seen := make(map[string]bool)
	for _, c := range rows {
		for k := range c.Cache {
			seen[k] = true
		}
	}
	counters := slices.Sorted(maps.Keys(seen))
	cw := csv.NewWriter(w)
	header := []string{"kernel", "strategy", "layout", "dtype", "size", "image", "platform",
		"row", "view", "threads", "runtime_s", "metric", "imbalance"}
	if err := cw.Write(append(header, counters...)); err != nil {
		return err
	}
	float := func(v float64) string {
		if v == 0 {
			return ""
		}
		return strconv.FormatFloat(v, 'g', -1, 64)
	}
	count := func(v uint64, ok bool) string {
		if !ok {
			return ""
		}
		return strconv.FormatUint(v, 10)
	}
	// Size, image and threads are never 0 where they apply; viewpoint 0
	// is a render's first.
	dim := func(v int) string {
		if v == 0 {
			return ""
		}
		return strconv.Itoa(v)
	}
	for _, c := range rows {
		view := ""
		if c.Kernel == volrendKernel {
			view = strconv.Itoa(c.View)
		}
		line := []string{c.Kernel, c.Strategy, c.Layout, c.Dtype, dim(c.Size), dim(c.Image),
			c.Platform, c.Row, view, dim(c.Threads),
			float(c.Runtime), count(c.Metric, c.Cache != nil), float(c.Imbalance)}
		for _, k := range counters {
			v, ok := c.Cache[k]
			line = append(line, count(v, ok))
		}
		if err := cw.Write(line); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// FigureManifest is one figure's machine-readable record.
type FigureManifest struct {
	Name           string       `json:"name"`
	ElapsedSeconds float64      `json:"elapsed_s"`
	Cells          []CellRecord `json:"cells,omitempty"`
	// Cache sums the simulated cache counters over every sim run the
	// figure performed (see cache.Report.Snapshot for the key set).
	Cache map[string]uint64 `json:"cache,omitempty"`
}

// RunManifest is the machine-readable record of a whole harness run:
// what ran, where, with which configuration, and what every cell
// measured. It round-trips through encoding/json.
type RunManifest struct {
	Schema         string           `json:"schema"`
	Host           HostInfo         `json:"host"`
	Config         Config           `json:"config"`
	Figures        []FigureManifest `json:"figures"`
	Metrics        map[string]any   `json:"metrics,omitempty"`
	ElapsedSeconds float64          `json:"elapsed_s"`
}

// NewRunManifest starts a manifest for the given configuration.
func NewRunManifest(cfg Config) *RunManifest {
	return &RunManifest{Schema: ManifestSchema, Host: Host(), Config: cfg}
}

// WriteJSON writes the manifest as indented JSON.
func (m *RunManifest) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(m)
}

// Instruments bundles the observability sinks a run reports into. Any
// field may be nil, and a nil *Instruments disables everything — the
// figure code calls the same methods either way and pays nothing when
// observability is off.
type Instruments struct {
	// Timeline receives per-worker spans (pencils, tiles, figure
	// phases) when non-nil.
	Timeline *timeline.Recorder
	// Metrics receives counters, phase timings, and cell-runtime
	// histograms when non-nil.
	Metrics *metrics.Registry
	// Manifest accumulates figure records when non-nil.
	Manifest *RunManifest

	mu    sync.Mutex
	cur   *FigureManifest
	start time.Time
}

// NewInstruments returns instruments with a fresh metrics registry and
// manifest for cfg. Attach a timeline by setting Timeline before the
// first figure runs.
func NewInstruments(cfg Config) *Instruments {
	return &Instruments{
		Metrics:  metrics.NewRegistry(),
		Manifest: NewRunManifest(cfg),
		start:    time.Now(),
	}
}

// StartFigure opens figure name's record; the returned func closes it
// (stamping the elapsed time and appending it to the manifest). Figures
// run sequentially, so at most one is open at a time.
func (ins *Instruments) StartFigure(name string) func() {
	if ins == nil {
		return func() {}
	}
	ins.mu.Lock()
	ins.cur = &FigureManifest{Name: name}
	ins.mu.Unlock()
	begin := time.Now()
	var endSpan func()
	if ins.Timeline != nil {
		endSpan = ins.Timeline.Begin(0, name)
	}
	return func() {
		elapsed := time.Since(begin)
		if endSpan != nil {
			endSpan()
		}
		if ins.Metrics != nil {
			ins.Metrics.PhaseTimer("figures").Add(name, elapsed)
		}
		ins.mu.Lock()
		if ins.cur != nil {
			ins.cur.ElapsedSeconds = elapsed.Seconds()
			if ins.Manifest != nil {
				ins.Manifest.Figures = append(ins.Manifest.Figures, *ins.cur)
			}
			ins.cur = nil
		}
		ins.mu.Unlock()
	}
}

// RecordCell appends one measured cell to the open figure and feeds the
// metrics registry.
func (ins *Instruments) RecordCell(c CellRecord) {
	if ins == nil {
		return
	}
	if ins.Metrics != nil {
		ins.Metrics.Counter("cells", 1).Inc(0)
		if c.Runtime > 0 {
			ins.Metrics.Histogram("cell_runtime").Observe(time.Duration(c.Runtime * float64(time.Second)))
		}
	}
	ins.mu.Lock()
	if ins.cur != nil {
		ins.cur.Cells = append(ins.cur.Cells, c)
	}
	ins.mu.Unlock()
}

// AddCacheReport folds a simulated-cache report into the open figure's
// aggregate counters.
func (ins *Instruments) AddCacheReport(rep cache.Report) {
	if ins == nil {
		return
	}
	snap := rep.Snapshot()
	ins.mu.Lock()
	if ins.cur != nil {
		if ins.cur.Cache == nil {
			ins.cur.Cache = make(map[string]uint64, len(snap))
		}
		for k, v := range snap {
			ins.cur.Cache[k] += v
		}
	}
	ins.mu.Unlock()
}

// Observer returns a timeline item observer labelled name, or nil when
// no timeline is attached (which disables per-item timing entirely).
func (ins *Instruments) Observer(name string) parallel.Observer {
	if ins == nil || ins.Timeline == nil {
		return nil
	}
	return parallel.Observer(ins.Timeline.Observer(name))
}

// active reports whether any sink wants per-cell instrumentation.
func (ins *Instruments) active() bool { return ins != nil }

// Finish stamps the manifest's total elapsed time and final metrics
// snapshot. Call once, after the last figure.
func (ins *Instruments) Finish() {
	if ins == nil || ins.Manifest == nil {
		return
	}
	ins.mu.Lock()
	defer ins.mu.Unlock()
	if !ins.start.IsZero() {
		ins.Manifest.ElapsedSeconds = time.Since(ins.start).Seconds()
	}
	if ins.Metrics != nil {
		ins.Manifest.Metrics = ins.Metrics.Snapshot()
	}
}
