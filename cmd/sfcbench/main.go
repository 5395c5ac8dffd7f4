// Command sfcbench regenerates the paper's tables and figures.
//
// Each figure of the evaluation section maps to -fig N (1..6), the
// repo's extension studies to -fig 7 (reuse-distance curves) and -fig 8
// (padding + auto-tuning ablation) and -fig 9 (per-level counter breakdown) and -fig 10 (slice/LOD query costs) and -fig 11 (element-dtype
// sweep; narrow the axis with -dtype); -fig 0 runs everything in order,
// which is how EXPERIMENTS.md is produced:
//
//	sfcbench -fig 0 -out results.txt
//
// The -quick flag shrinks the grid for smoke runs. Volume sizes, thread
// sweeps and the cache scale can be overridden individually.
//
// Observability (see README "Observability"):
//
//	-metrics-json run.json   write the machine-readable run manifest
//	-timeline trace.json     write a Chrome trace_event timeline
//	-pprof localhost:6060    serve net/http/pprof and expvar while running
package main

import (
	_ "expvar" // registers /debug/vars on the default mux for -pprof
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on the default mux
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"sfcmem/internal/harness"
	"sfcmem/internal/timeline"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with injectable args and streams so tests can exercise the
// full CLI including its exit codes: 0 success, 1 runtime error, 2 usage
// error (bad flags or out-of-range -fig).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("sfcbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		fig         = fs.Int("fig", 0, "figure to reproduce (1-6 paper, 7-11 extensions); 0 = all")
		quick       = fs.Bool("quick", false, "use the reduced smoke-test grid")
		out         = fs.String("out", "", "also write results to this file")
		csvDir      = fs.String("csv", "", "also write each figure's tables as CSV into this directory, and every measured row to cells.csv")
		metricsJSON = fs.String("metrics-json", "", "write the machine-readable run manifest (config, host, per-cell timings, metrics) to this file")
		timelineOut = fs.String("timeline", "", "write a Chrome trace_event timeline (chrome://tracing, Perfetto) to this file")
		pprofAddr   = fs.String("pprof", "", "serve net/http/pprof and expvar on this address (e.g. localhost:6060) while running")
		bilatSize   = fs.Int("bilat-size", 0, "override bilateral wall-clock volume edge")
		bilatSim    = fs.Int("bilat-sim-size", 0, "override bilateral cache-sim volume edge")
		volSize     = fs.Int("vol-size", 0, "override renderer wall-clock volume edge")
		volSim      = fs.Int("vol-sim-size", 0, "override renderer cache-sim volume edge")
		imgSize     = fs.Int("image", 0, "override renderer image edge")
		simImg      = fs.Int("sim-image", 0, "override renderer cache-sim image edge")
		cacheScale  = fs.Int("cache-scale", 0, "override cache capacity scale factor (power of two)")
		reps        = fs.Int("reps", 0, "override wall-clock repetitions (min kept)")
		seed        = fs.Uint64("seed", 0, "override dataset seed")
		ivy         = fs.String("ivy-threads", "", "override IvyBridge thread sweep, e.g. 2,8,24")
		mic         = fs.String("mic-threads", "", "override MIC thread sweep, e.g. 59,118")
		noFastPath  = fs.Bool("no-fastpath", false, "disable the kernels' flat-access fast path (ablation; wall-clock runs only)")
		dtypes      = fs.String("dtype", "", "element dtypes for the fig 11 sweep, e.g. uint8,float32; default all")
		verbose     = fs.Bool("v", false, "print progress for each cell")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *fig < 0 || *fig > 11 {
		fmt.Fprintf(stderr, "sfcbench: -fig %d out of range (0 = all, 1-6 paper, 7-11 extensions)\n", *fig)
		fs.Usage()
		return 2
	}

	cfg := harness.DefaultConfig()
	if *quick {
		cfg = harness.QuickConfig()
	}
	setIf := func(dst *int, v int) {
		if v > 0 {
			*dst = v
		}
	}
	setIf(&cfg.BilatSize, *bilatSize)
	setIf(&cfg.BilatSimSize, *bilatSim)
	setIf(&cfg.VolSize, *volSize)
	setIf(&cfg.VolSimSize, *volSim)
	setIf(&cfg.ImageSize, *imgSize)
	setIf(&cfg.SimImageSize, *simImg)
	setIf(&cfg.CacheScale, *cacheScale)
	setIf(&cfg.Reps, *reps)
	if *seed != 0 {
		cfg.Seed = *seed
	}
	cfg.NoFastPath = *noFastPath
	if *dtypes != "" {
		for _, part := range strings.Split(*dtypes, ",") {
			cfg.Dtypes = append(cfg.Dtypes, strings.TrimSpace(part))
		}
		// Surface a bad dtype name before minutes of measurement.
		if _, err := cfg.DtypeList(); err != nil {
			return fatal(stderr, err)
		}
	}
	var err error
	if cfg.IvyThreads, err = parseThreads(*ivy, cfg.IvyThreads); err != nil {
		return fatal(stderr, err)
	}
	if cfg.MICThreads, err = parseThreads(*mic, cfg.MICThreads); err != nil {
		return fatal(stderr, err)
	}

	// Fail on unwritable outputs before spending minutes measuring.
	for _, p := range []string{*out, *metricsJSON, *timelineOut} {
		if p == "" {
			continue
		}
		if err := checkWritable(p); err != nil {
			return fatal(stderr, err)
		}
	}
	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			return fatal(stderr, err)
		}
	}

	// Observability sinks: any of the three flags instruments the run.
	var ins *harness.Instruments
	if *metricsJSON != "" || *timelineOut != "" || *pprofAddr != "" {
		ins = harness.NewInstruments(cfg)
		if *timelineOut != "" {
			ins.Timeline = timeline.NewRecorder()
		}
	}
	if *pprofAddr != "" {
		ln, err := net.Listen("tcp", *pprofAddr)
		if err != nil {
			return fatal(stderr, err)
		}
		defer ln.Close()
		ins.Metrics.Publish("sfcbench")
		fmt.Fprintf(stderr, "sfcbench: pprof on http://%s/debug/pprof/, expvar on /debug/vars\n", ln.Addr())
		go http.Serve(ln, nil) //nolint:errcheck // dies with the process
	}

	runStart := time.Now()
	progress := func(string) {}
	if *verbose {
		progress = func(msg string) {
			fmt.Fprintf(stderr, "[%9s] %s\n", time.Since(runStart).Round(time.Millisecond), msg)
		}
	}

	figs := []int{*fig}
	if *fig == 0 {
		figs = []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}
	}
	var text strings.Builder
	var cells []harness.CellRecord
	fmt.Fprintf(&text, "sfcmem experiment run — %s %s/%s, GOMAXPROCS=%d\n",
		runtime.Version(), runtime.GOOS, runtime.GOARCH, runtime.GOMAXPROCS(0))
	fmt.Fprintf(&text, "config: bilat %d³ (sim %d³), volrend %d³ (sim %d³), image %d (sim %d), cache-scale %d, seed %d, reps %d\n\n",
		cfg.BilatSize, cfg.BilatSimSize, cfg.VolSize, cfg.VolSimSize,
		cfg.ImageSize, cfg.SimImageSize, cfg.CacheScale, cfg.Seed, cfg.Reps)
	for i, n := range figs {
		figStart := time.Now()
		res, err := harness.FigureObs(n, cfg, progress, ins)
		if err != nil {
			return fatal(stderr, err)
		}
		elapsed := time.Since(runStart)
		// Per-figure pacing line; the ETA scales the mean figure time by
		// the remaining count, which is rough but keeps long -fig 0 runs
		// honest about how far along they are.
		line := fmt.Sprintf("sfcbench: fig%d done in %s (%d/%d, elapsed %s",
			n, time.Since(figStart).Round(time.Millisecond), i+1, len(figs),
			elapsed.Round(time.Millisecond))
		if rem := len(figs) - (i + 1); rem > 0 {
			eta := time.Duration(float64(elapsed) / float64(i+1) * float64(rem))
			line += fmt.Sprintf(", eta %s", eta.Round(time.Second))
		}
		fmt.Fprintln(stderr, line+")")
		text.WriteString(res.Text)
		text.WriteString("\n")
		if *csvDir != "" {
			if err := writeCSVs(*csvDir, res); err != nil {
				return fatal(stderr, err)
			}
		}
		cells = append(cells, res.Rows...)
	}
	if *csvDir != "" {
		write := func(w io.Writer) error { return harness.WriteCellsCSV(w, cells) }
		if err := writeFileWith(filepath.Join(*csvDir, "cells.csv"), write); err != nil {
			return fatal(stderr, err)
		}
	}
	fmt.Fprint(stdout, text.String())
	if *out != "" {
		if err := os.WriteFile(*out, []byte(text.String()), 0o644); err != nil {
			return fatal(stderr, err)
		}
	}

	ins.Finish()
	if *metricsJSON != "" {
		if err := writeFileWith(*metricsJSON, ins.Manifest.WriteJSON); err != nil {
			return fatal(stderr, err)
		}
	}
	if *timelineOut != "" {
		if err := writeFileWith(*timelineOut, ins.Timeline.WriteChromeTrace); err != nil {
			return fatal(stderr, err)
		}
		if d := ins.Timeline.Dropped(); d > 0 {
			fmt.Fprintf(stderr, "sfcbench: timeline dropped %d events past the recorder cap\n", d)
		}
	}
	return 0
}

// checkWritable verifies the path can be opened for writing, creating an
// empty placeholder if it does not exist (the real content replaces it
// at the end of the run).
func checkWritable(path string) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE, 0o644)
	if err != nil {
		return err
	}
	return f.Close()
}

// writeFileWith streams write(f) into path.
func writeFileWith(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeCSVs dumps a figure's tables as <dir>/<figname>_<i>.csv.
func writeCSVs(dir string, res harness.FigureResult) error {
	if len(res.Tables) == 0 {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for i, t := range res.Tables {
		path := filepath.Join(dir, fmt.Sprintf("%s_%d.csv", res.Name, i))
		if err := os.WriteFile(path, []byte(t.CSV()), 0o644); err != nil {
			return err
		}
	}
	return nil
}

func parseThreads(s string, def []int) ([]int, error) {
	if s == "" {
		return def, nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("sfcbench: bad thread count %q", part)
		}
		out = append(out, n)
	}
	// The figures pivot rows keyed by thread count, one table column
	// per list entry, so a duplicate ("4,4") would measure one column
	// twice and an unsorted list ("8,2") would plot the sweep out of
	// order; normalise instead of erroring.
	sort.Ints(out)
	return slices.Compact(out), nil
}

func fatal(stderr io.Writer, err error) int {
	fmt.Fprintln(stderr, "sfcbench:", err)
	return 1
}
